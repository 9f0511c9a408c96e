"""Thinning-based K-fold cross-validation for point processes, CRPS scoring
and model ranking.

Each observed point gets an independent uniform mark in 1..K; fold k trains
on the unmarked points (intensity (K-1)/K of the original, still a Cox
process) and validates on the marked ones (intensity 1/K). Raw residuals are
computed per bounded subset of each campaign's domain: the observed validation
count minus 1/(K-1) times the integrated posterior training intensity. The
subsets of all campaigns are stacked into G columns, campaign by campaign
(``subset_slices``), so over posterior draws and folds a model's residuals
are one A x K x G array. The CRPS of each fold's residual ensemble against 0
is averaged over folds (one score per subset), then pooled into a single
score per model. Lower is better.

The study runner fits every (model, fold) pair, on Linux with one OpenBLAS
thread, in the caller's process at one worker and in a pool of worker
processes above one. The caller holds that one thread for the whole study,
and above one worker keeps it after the study. On Linux the workers are
forked from it: they inherit the count of 1, start no OpenBLAS threads, and
need no ``if __name__ == "__main__":`` guard in the calling script.
Elsewhere they are spawned, re-import the calling script and need the
guard, and nothing pins OpenBLAS. Fold marks are drawn once per study; every
task derives its own generator from (seed, model, fold), so results are
identical for any worker count.
"""

from __future__ import annotations

import hashlib
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from multiprocessing import get_context

import numpy as np

from .geodata import CovariateStack, DomainMask, PartitionScheme, PointPattern, build_partition
from .gmrf import LatticeMesh
from .inference import (
    DicResult,
    FitSummary,
    GriddedLikelihood,
    PosteriorDraws,
    _one_blas_thread,
    _set_one_blas_thread,
    bin_points,
    compute_dic,
    fit,
    summarize,
)
from .model import ModelSpec

__all__ = [
    "FoldAssignment",
    "CrpsTable",
    "assign_folds",
    "split",
    "thin_intensity",
    "subset_slices",
    "validation_residuals",
    "crps_empirical",
    "aggregate_crps",
    "rank_models",
    "run_study",
]


# ---------------------------------------------------------------------------
# Folds and thinning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FoldAssignment:
    """Uniform multinomial marks, one per observed point."""

    n_folds: int
    marks: np.ndarray

    def __post_init__(self):
        marks = np.asarray(self.marks, dtype=int)
        if self.n_folds < 2:
            raise ValueError("need at least two folds")
        if marks.size and (marks.min() < 1 or marks.max() > self.n_folds):
            raise ValueError("marks must lie in 1..K")
        object.__setattr__(self, "marks", marks)


def assign_folds(points: PointPattern, n_folds: int, rng: np.random.Generator) -> FoldAssignment:
    """Mark each point with an independent uniform fold label in 1..K."""
    if n_folds < 2:
        raise ValueError("need at least two folds")
    marks = rng.integers(1, n_folds + 1, size=points.n)
    return FoldAssignment(n_folds=n_folds, marks=marks)


def split(
    points: PointPattern, folds: FoldAssignment, k: int
) -> tuple[PointPattern, PointPattern]:
    """(training, validation) patterns for fold k: validation has mark k."""
    if not 1 <= k <= folds.n_folds:
        raise ValueError(f"fold {k} out of range")
    if folds.marks.size != points.n:
        raise ValueError("fold assignment does not match the point pattern")
    val = folds.marks == k
    return points.take(~val), points.take(val)


def thin_intensity(lam, n_folds: int):
    """Training and validation intensities of a K-fold thinning.

    Training keeps (K-1)/K of the rate; validation is the remainder, computed
    by subtraction so the two parts sum to the input exactly.
    """
    if n_folds < 2:
        raise ValueError("need at least two folds")
    lam = np.asarray(lam, dtype=float)
    train = lam * ((n_folds - 1) / n_folds)
    return train, lam - train


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------


def subset_slices(partitions: dict[int, PartitionScheme]) -> dict[int, slice]:
    """Each campaign's columns of the stacked subsets, campaigns in 1..T order."""
    out: dict[int, slice] = {}
    end = 0
    for t in sorted(partitions):
        out[t] = slice(end, end + partitions[t].n_subsets)
        end = out[t].stop
    return out


def validation_residuals(
    draws: PosteriorDraws,
    like: GriddedLikelihood,
    partitions: dict[int, PartitionScheme],
    val_points: PointPattern,
    n_folds: int,
) -> np.ndarray:
    """Raw residual draws for one fold: observed validation counts minus
    1/(K-1) times the integrated training-intensity draws, per subset.

    ``draws`` must come from a fit to the fold's training points with
    unscaled exposures, so its intensity estimates the thinned training rate.
    Returns one (A, G) array over the stacked subsets of all campaigns;
    ``subset_slices(partitions)[t]`` holds campaign t's columns.
    """
    design = like.design
    lam = design.eta(draws.dense, draws.w)
    np.exp(lam, out=lam)  # (A, N) intensity draws
    cols = subset_slices(partitions)
    out = np.empty((lam.shape[0], sum(part.n_subsets for part in partitions.values())))
    for t, c in cols.items():
        rows = design.rows[t]
        part = partitions[t]
        g_of_cell = part.cell_subset.ravel()[design.cell_ids[rows]]
        if np.any(g_of_cell < 0):
            raise ValueError(f"campaign {t}: partition does not cover the domain")
        n_g = part.n_subsets
        member = np.zeros((g_of_cell.size, n_g))
        member[np.arange(g_of_cell.size), g_of_cell] = 1.0

        pts = val_points.for_campaign(t)
        g_of_point = part.subset_of_points(pts.x, pts.y)
        if np.any(g_of_point < 0):
            raise ValueError(f"campaign {t}: validation points outside the partition")
        counts = np.bincount(g_of_point, minlength=n_g).astype(float)

        integral = (lam[:, rows] @ member) * (design.weight / (n_folds - 1))
        out[:, c] = counts[None, :] - integral
    return out


# ---------------------------------------------------------------------------
# CRPS
# ---------------------------------------------------------------------------


def crps_empirical(samples: np.ndarray, y: float = 0.0, method: str = "sort") -> float:
    """CRPS of an empirical ensemble against a scalar observation.

    ``method="sort"`` uses the O(A log A) rearrangement of the double sum;
    ``method="pairwise"`` evaluates the double sum directly. Both implement
    mean|x - y| - mean|x - x'| / 2 over the ensemble.
    """
    x = np.asarray(samples, dtype=float).ravel()
    a = x.size
    if a == 0:
        raise ValueError("empty ensemble")
    term1 = float(np.mean(np.abs(x - y)))
    if method == "sort":
        xs = np.sort(x)
        j = np.arange(a)
        gini = float(np.dot(xs, 2.0 * j - a + 1.0)) / (a * a)
        return term1 - gini
    if method == "pairwise":
        double = float(np.abs(x[:, None] - x[None, :]).sum()) / (2.0 * a * a)
        return term1 - double
    raise ValueError(f"unknown method {method!r}")


def aggregate_crps(resid: np.ndarray) -> tuple[np.ndarray, float]:
    """Fold-averaged CRPS per subset, plus one pooled score.

    ``resid`` is (A, K, G): draws by folds by stacked subsets. Per subset g
    the score is the mean over folds of the CRPS of that fold's residual
    ensemble against 0 (``crps_empirical``'s sort route, applied along the
    draw axis of every ensemble at once). Pooling is an unweighted mean over
    all G subsets.
    """
    a = resid.shape[0]
    rank_coef = 2.0 * np.arange(a) - a + 1.0
    gini = np.tensordot(rank_coef, np.sort(resid, axis=0), axes=(0, 0)) / (a * a)
    by_subset = (np.abs(resid).mean(axis=0) - gini).mean(axis=0)
    return by_subset, float(by_subset.mean())


def rank_models(scores: dict[str, float]) -> list[str]:
    """Model ids by ascending score; ties break lexicographically."""
    return [m for m, _ in sorted(scores.items(), key=lambda kv: (kv[1], kv[0]))]


@dataclass
class CrpsTable:
    """Cross-validation scores and in-sample DIC for a set of models.

    ``by_subset`` and ``mean_residual`` hold, per model and campaign, the
    CRPS and the mean residual of each subset of ``partitions[t]``. Models
    that failed to fit appear in ``failures`` (model id to a list of stage
    messages) and are absent from ``scores``; rankings cover the scored
    models only.
    """

    model_ids: list[str]
    scores: dict[str, float]
    by_subset: dict[str, dict[int, np.ndarray]]
    mean_residual: dict[str, dict[int, np.ndarray]]
    dic: dict[str, DicResult]
    summaries: dict[str, FitSummary]
    partitions: dict[int, PartitionScheme]
    n_folds: int
    n_draws: int
    failures: dict[str, list[str]] = field(default_factory=dict)

    def ranking(self) -> list[str]:
        return rank_models(self.scores)

    def dic_ranking(self) -> list[str]:
        return rank_models({m: r.dic for m, r in self.dic.items()})


# ---------------------------------------------------------------------------
# Study runner
# ---------------------------------------------------------------------------


# Start method of the study pool. Forked workers inherit the caller's imported
# modules and do not re-run its __main__; spawn is the portable fallback.
_MP_CONTEXT = get_context("fork" if sys.platform == "linux" else "spawn")


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """Generator derived by hashing (seed, parts); stable across processes."""
    label = "|".join([str(seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(label.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class _StudyPayload:
    stack: CovariateStack
    campaign_domains: dict[int, DomainMask]
    points: PointPattern
    specs: list[ModelSpec]
    folds: FoldAssignment
    n_draws: int
    seed: int
    partitions: dict[int, PartitionScheme]
    fail_fast: bool = True


def _build_mesh(spec: ModelSpec, stack: CovariateStack) -> LatticeMesh | None:
    if not spec.include_field:
        return None
    return LatticeMesh.for_grid(stack.grid, rho_ref=spec.pc_prior.rho0)


def _full_fit_task(p: _StudyPayload, model_idx: int):
    """Full-data fit: DIC, summary and the hyper mode for warm starts."""
    spec = p.specs[model_idx]
    try:
        mesh = _build_mesh(spec, p.stack)
        like = bin_points(spec, p.stack, p.campaign_domains, p.points, mesh=mesh)
        rng = derive_rng(p.seed, spec.model_id, "full")
        draws = fit(like, n_draws=p.n_draws, rng=rng)
    except Exception as e:
        if p.fail_fast:
            raise
        return model_idx, None, None, None, f"{type(e).__name__}: {e}"
    return (
        model_idx,
        compute_dic(like, draws),
        summarize(draws),
        draws.theta_mode,
        None,
    )


def _fold_fit_task(p: _StudyPayload, model_idx: int, k: int, theta_init: np.ndarray):
    """Fit fold k's training pattern, warm-started at the full fit's hyper
    mode ``theta_init``, and score its validation residuals."""
    spec = p.specs[model_idx]
    try:
        mesh = _build_mesh(spec, p.stack)
        train, val = split(p.points, p.folds, k)
        like = bin_points(spec, p.stack, p.campaign_domains, train, mesh=mesh)
        rng = derive_rng(p.seed, spec.model_id, "fold", k)
        draws = fit(like, n_draws=p.n_draws, rng=rng, theta_init=theta_init)
        resid = validation_residuals(draws, like, p.partitions, val, p.folds.n_folds)
    except Exception as e:
        if p.fail_fast:
            raise
        return model_idx, k, None, f"{type(e).__name__}: {e}"
    return model_idx, k, resid, None


def build_partitions(
    campaign_domains: dict[int, DomainMask], rows: int, cols: int
) -> dict[int, PartitionScheme]:
    """One partition per distinct domain, shared by its campaigns."""
    by_key: dict[bytes, PartitionScheme] = {}
    out: dict[int, PartitionScheme] = {}
    for t, mask in campaign_domains.items():
        key = mask.included.tobytes()
        if key not in by_key:
            by_key[key] = build_partition(mask, rows, cols)
        out[t] = by_key[key]
    return out


def run_study(
    stack: CovariateStack,
    campaign_domains: dict[int, DomainMask],
    points: PointPattern,
    specs: list[ModelSpec],
    n_folds: int = 5,
    n_draws: int = 1000,
    partition_dims: tuple[int, int] = (18, 18),
    seed: int = 0,
    workers: int = 1,
    fail_fast: bool = True,
) -> CrpsTable:
    """Cross-validate and rank a set of models on one survey.

    Fold marks are drawn once from (seed, "folds"). Every model is first fit
    to the full data (DIC, posterior summary, warm start), then once per
    fold; fold fits are scored by subset residuals and pooled CRPS. On Linux
    every fit runs with one OpenBLAS thread, so the result is byte-identical
    for any ``workers`` value under a fixed seed. The caller's process holds
    one thread from the first fit on. At ``workers=1`` it gets its previous
    counts back on return. Above one it keeps one thread: the pool's fork
    stops the caller's OpenBLAS threads, and restoring a count would start
    them again, to busy-wait after this call has returned.

    At ``workers=1`` the fits run in the caller's process. Above one they
    run in a process pool. On Linux its workers are forked from the caller:
    they start with its imported modules and its count of one thread, start
    no OpenBLAS threads of their own, and do not re-run its main module, so
    a script needs no guard. Elsewhere nothing pins OpenBLAS, and the
    workers are spawned and re-import the caller's main module: a script
    must then keep its entry point under an ``if __name__ == "__main__":``
    guard, and without one this call raises ``BrokenProcessPool``.

    With ``fail_fast=False`` a failed fit does not abort the sweep: the
    error is recorded per model and the remaining work continues.
    """
    ids = [s.model_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate model ids")
    folds = assign_folds(points, n_folds, derive_rng(seed, "folds"))
    partitions = build_partitions(campaign_domains, *partition_dims)
    payload = _StudyPayload(
        stack=stack,
        campaign_domains=campaign_domains,
        points=points,
        specs=specs,
        folds=folds,
        n_draws=n_draws,
        seed=seed,
        partitions=partitions,
        fail_fast=fail_fast,
    )

    dic: dict[str, DicResult] = {}
    summaries: dict[str, FitSummary] = {}
    failures: dict[str, list[str]] = {}
    results: dict[tuple[int, int], np.ndarray] = {}
    workers = max(1, workers)
    if workers > 1:
        # kept after the study: forked workers inherit the count of 1, and
        # the caller's OpenBLAS threads, stopped by the fork, stay stopped
        _set_one_blas_thread()
        context = ProcessPoolExecutor(workers, mp_context=_MP_CONTEXT)
    else:
        context = _one_blas_thread()  # in-process fits; restored after them
    with context as pool:
        run = pool.map if workers > 1 else map
        theta_init: dict[int, np.ndarray] = {}
        for model_idx, dic_res, summary, theta, err in run(
            _full_fit_task, repeat(payload), range(len(specs))
        ):
            if err is not None:
                failures.setdefault(ids[model_idx], []).append(f"full fit: {err}")
                continue
            dic[ids[model_idx]] = dic_res
            summaries[ids[model_idx]] = summary
            theta_init[model_idx] = theta

        # fold fits warm-start from their model's full-fit hyper mode
        tasks = [(i, k) for i in theta_init for k in range(1, n_folds + 1)]
        for model_idx, k, resid, err in run(
            _fold_fit_task,
            repeat(payload),
            [i for i, _ in tasks],
            [k for _, k in tasks],
            [theta_init[i] for i, _ in tasks],
        ):
            if err is not None:
                failures.setdefault(ids[model_idx], []).append(f"fold {k}: {err}")
            else:
                results[(model_idx, k)] = resid

    cols = subset_slices(partitions)
    scores: dict[str, float] = {}
    by_subset: dict[str, dict[int, np.ndarray]] = {}
    mean_residual: dict[str, dict[int, np.ndarray]] = {}
    for i, spec in enumerate(specs):
        if spec.model_id in failures:
            continue
        resid = np.stack([results[(i, k)] for k in range(1, n_folds + 1)], axis=1)
        crps_g, scores[spec.model_id] = aggregate_crps(resid)
        mean_g = resid.mean(axis=(0, 1))
        by_subset[spec.model_id] = {t: crps_g[c] for t, c in cols.items()}
        mean_residual[spec.model_id] = {t: mean_g[c] for t, c in cols.items()}
    return CrpsTable(
        model_ids=ids,
        scores=scores,
        by_subset=by_subset,
        mean_residual=mean_residual,
        dic=dic,
        summaries=summaries,
        partitions=partitions,
        n_folds=n_folds,
        n_draws=n_draws,
        failures=failures,
    )
