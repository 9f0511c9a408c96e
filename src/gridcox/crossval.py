"""Thinning-based K-fold cross-validation for point processes, CRPS scoring
and model ranking.

Each observed point gets an independent uniform mark in 1..K; fold k trains
on the unmarked points (intensity (K-1)/K of the original, still a Cox
process) and validates on the marked ones (intensity 1/K). Raw residuals are
computed per bounded subset of each campaign's domain: the observed validation
count minus 1/(K-1) times the integrated posterior training intensity. The
subsets of all campaigns are stacked into G columns, campaign by campaign
(``subset_slices``), so over posterior draws a fold's residuals are one
A x G array. The CRPS of each fold's residual ensemble against 0 is averaged
over folds (one score per subset), then pooled into a single score per
model. Lower is better.

Residuals are computed in two steps: ``ResidualPairing.build`` reduces a
model's cells to (subset, group) pairs once, and ``validation_residuals``
scores one fold's draws and validation points against that pairing.

The study runner fits every (model, fold) pair, on Linux with one OpenBLAS
thread. Before any fit, the caller bins each model on all points and pairs
it with the subsets, once per study; a fold recounts only its training
points on those bins. A fold's task scores its own residuals and returns
two (G,) arrays, each subset's CRPS and mean residual, and the caller
averages them over folds. A model's fold fits start as soon as its full fit
returns. Every task reads the study from this module, where the runner sets
it for the length of the call. On Linux, above one worker, the tasks run in
a pool forked from the caller: the workers inherit the study and the count
of one thread from its memory, start no OpenBLAS threads and do not re-run
the calling script. Everywhere else, and at one worker, every task runs in
the caller. Fold marks are drawn once per study; every task derives its own
generator from (seed, model, fold), so results are identical for any
worker count.
"""

from __future__ import annotations

import hashlib
import sys
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from .geodata import CovariateStack, DomainMask, PartitionScheme, PointPattern, build_partition
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
from .model import CellDesign, ModelSpec

__all__ = [
    "FoldAssignment",
    "CrpsTable",
    "assign_folds",
    "split",
    "thin_intensity",
    "subset_slices",
    "subset_columns",
    "ResidualPairing",
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


def subset_columns(partitions: dict[int, PartitionScheme], points: PointPattern) -> np.ndarray:
    """The stacked subset column of each point: its subset of its campaign's
    partition, in that campaign's columns (``subset_slices``)."""
    out = np.full(points.n, -1)
    for t, cols in subset_slices(partitions).items():
        mine = points.campaign == t
        g = partitions[t].subset_of_points(points.x[mine], points.y[mine])
        if np.any(g < 0):
            raise ValueError(f"campaign {t}: points outside the partition")
        out[mine] = cols.start + g
    unplaced = int(np.sum(out < 0))
    if unplaced:
        raise ValueError(f"{unplaced} points belong to no partitioned campaign")
    return out


@dataclass(frozen=True)
class ResidualPairing:
    """A likelihood's groups paired with the stacked subsets they integrate
    over, for scoring residuals (``validation_residuals``).

    Each campaign's cells are reduced to (subset, group) pairs, by subset then
    group, each weighted by its cell count, so every subset is one contiguous
    segment of pairs: ``group`` holds each pair's group (a row of ``groups``),
    ``n_cells`` its cell count, ``filled`` marks the subsets with design rows
    and ``starts`` holds the first pair of each of them. In a field model
    every group is one cell and every pair a cell. The pairing reads the
    cells, not their counts, so the folds of a study share their model's.
    """

    groups: CellDesign
    group: np.ndarray
    n_cells: np.ndarray
    filled: np.ndarray
    starts: np.ndarray

    @classmethod
    def build(
        cls, like: GriddedLikelihood, partitions: dict[int, PartitionScheme]
    ) -> "ResidualPairing":
        design = like.design
        n_groups = like.groups.n_cells
        pair_group, pair_cells, sizes = [], [], []
        for t in subset_slices(partitions):
            rows = design.rows[t]
            part = partitions[t]
            g_of_cell = part.cell_subset.ravel()[design.cell_ids[rows]]
            if np.any(g_of_cell < 0):
                raise ValueError(f"campaign {t}: partition does not cover the domain")
            pairs, n_cells = np.unique(g_of_cell * n_groups + like.group_of[rows],
                                       return_counts=True)
            pair_group.append(pairs % n_groups)
            pair_cells.append(n_cells)
            sizes.append(np.bincount(pairs // n_groups, minlength=part.n_subsets))
        sizes = np.concatenate(sizes)
        # a subset without design rows integrates to 0; reduceat would instead
        # return the pair its empty segment starts at, so it sums only the others
        filled = sizes > 0
        return cls(
            groups=like.groups,
            group=np.concatenate(pair_group),
            n_cells=np.concatenate(pair_cells),
            filled=filled,
            starts=(np.cumsum(sizes) - sizes)[filled],
        )


def validation_residuals(
    draws: PosteriorDraws,
    pairing: ResidualPairing,
    val_columns: np.ndarray,
    n_folds: int,
) -> np.ndarray:
    """Raw residual draws for one fold: observed validation counts minus
    1/(K-1) times the integrated training-intensity draws, per subset.

    ``draws`` must come from a fit to the fold's training points with
    unscaled exposures, so its intensity estimates the thinned training rate.
    ``pairing`` pairs that likelihood's groups with the subsets, and
    ``val_columns`` holds the stacked subset column of each validation point
    (``subset_columns``). Returns one (A, G) array over the stacked subsets of
    all campaigns; ``subset_slices(partitions)[t]`` holds campaign t's columns.

    The intensity draws of the pairs' groups are made in blocks
    (``CellDesign.eta_blocks``), exponentiated in place, weighted by the
    pairs' cell counts and summed segment by segment (``np.add.reduceat``):
    memory stays at two blocks of eta, never an (A, N) array.
    """
    out = np.zeros((draws.n_draws, pairing.filled.size))
    for a, lam in pairing.groups.eta_blocks(draws.dense, draws.w, pairing.group):
        np.exp(lam, out=lam)
        lam *= pairing.n_cells
        out[a, pairing.filled] = np.add.reduceat(lam, pairing.starts, axis=1)
    out *= -(pairing.groups.weight / (n_folds - 1))
    out += np.bincount(val_columns, minlength=pairing.filled.size)
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

    The rank-weighted sums are one matrix-vector product per fold, so a
    fold's scores are the same to the bit whether it is scored alone, as
    (A, 1, G), or with the others; one product over all K x G columns rounds
    a column by its position among them.
    """
    a = resid.shape[0]
    rank_coef = 2.0 * np.arange(a) - a + 1.0
    gini = np.matmul(np.moveaxis(np.sort(resid, axis=0), 0, -1), rank_coef) / (a * a)
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


# Whether a study forks its pool above one worker. Forked workers inherit the
# caller's modules and study and do not re-run its __main__. Off Linux fork is
# missing or unsafe with the system's libraries, so every task runs in the
# caller, with the same result.
_FORK = sys.platform == "linux"


def derive_rng(seed: int, *parts) -> np.random.Generator:
    """Generator derived by hashing (seed, parts); stable across processes."""
    label = "|".join([str(seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(label.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class _Study:
    """One ``run_study`` call's fits, set up in the caller before any of them
    runs (``set_up``).

    Per model whose set-up succeeded (the keys of ``likes``): its likelihood
    of all points, each point's design row (``rows``) and its residual
    pairing (``pairings``); and each point's stacked subset column
    (``columns``). A fold only recounts its training points
    (``fold_likelihood``) and picks its validation points' columns
    (``validation_columns``). ``run_study`` sets it as this module's
    ``_study`` for the length of its call, where every task reads it.
    """

    specs: list[ModelSpec]
    folds: FoldAssignment
    n_draws: int
    seed: int
    fail_fast: bool
    likes: dict[int, GriddedLikelihood]
    rows: dict[int, np.ndarray]
    pairings: dict[int, ResidualPairing]
    columns: np.ndarray | None

    @classmethod
    def set_up(
        cls,
        stack: CovariateStack,
        campaign_domains: dict[int, DomainMask],
        points: PointPattern,
        specs: list[ModelSpec],
        folds: FoldAssignment,
        n_draws: int,
        seed: int,
        partitions: dict[int, PartitionScheme],
        fail_fast: bool = True,
    ) -> tuple["_Study", dict[str, list[str]]]:
        """Bin each model on all points and pair it with the subsets. Returns
        the study and, unless ``fail_fast``, the failures of the models whose
        set-up raised, as their full fits. The subset columns are found only
        if a model binned every point: a stray point fails each model, not
        the study."""
        likes, rows, pairings, failures = {}, {}, {}, {}
        for i, spec in enumerate(specs):
            try:
                like, rows_i = bin_points(spec, stack, campaign_domains, points, return_rows=True)
                pairing = ResidualPairing.build(like, partitions)
            except Exception as e:
                if fail_fast:
                    raise
                failures[spec.model_id] = [f"full fit: {type(e).__name__}: {e}"]
                continue
            likes[i], rows[i], pairings[i] = like, rows_i, pairing
        columns = subset_columns(partitions, points) if likes else None
        study = cls(specs, folds, n_draws, seed, fail_fast, likes, rows, pairings, columns)
        return study, failures

    def fold_likelihood(self, model_idx: int, k: int) -> GriddedLikelihood:
        """The model's likelihood of fold k's training points, the points
        without mark k, recounted on its cells and groups."""
        like = self.likes[model_idx]
        train = self.rows[model_idx][self.folds.marks != k]
        return like.with_counts(np.bincount(train, minlength=like.design.n_cells))

    def validation_columns(self, k: int) -> np.ndarray:
        """The stacked subset columns of fold k's validation points."""
        return self.columns[self.folds.marks == k]


# The study of the running ``run_study`` call, set before a pool forks: the
# tasks read it here, in the caller or in the memory a worker inherited, so
# no task carries it.
_study: _Study | None = None


def _full_fit_task(model_idx: int):
    """Full-data fit: DIC, summary and the hyper mode for warm starts."""
    p = _study
    spec = p.specs[model_idx]
    like = p.likes[model_idx]
    try:
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


def _run_now(fn, *args) -> Future:
    """Run a study task in the caller and return it as a finished future:
    ``run_study``'s ``submit`` at one worker."""
    fut = Future()
    fut.set_result(fn(*args))
    return fut


def _fold_fit_task(model_idx: int, k: int, theta_init: np.ndarray):
    """Fit fold k's training pattern, warm-started at the full fit's hyper
    mode ``theta_init``, and score its validation residuals: the CRPS and
    the mean of each subset's (A,) ensemble, two (G,) arrays, so that the
    result grows with the subsets and not with the draws."""
    p = _study
    spec = p.specs[model_idx]
    try:
        like = p.fold_likelihood(model_idx, k)
        rng = derive_rng(p.seed, spec.model_id, "fold", k)
        draws = fit(like, n_draws=p.n_draws, rng=rng, theta_init=theta_init)
        resid = validation_residuals(
            draws, p.pairings[model_idx], p.validation_columns(k), p.folds.n_folds
        )
        crps_g, _ = aggregate_crps(resid[:, None, :])
    except Exception as e:
        if p.fail_fast:
            raise
        return model_idx, k, None, None, f"{type(e).__name__}: {e}"
    return model_idx, k, crps_g, resid.mean(axis=0), None


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

    Fold marks are drawn once from (seed, "folds"). Before any fit, the
    caller bins every model on all points and pairs it with the subsets.
    Every model is fit to the full data (DIC, posterior summary, warm start)
    and, as soon as that fit returns, once per fold: a fold recounts only
    its training points on its model's bins, and its task scores the fit's
    subset residuals against that pairing, returning each subset's CRPS and
    mean residual. The caller averages those over folds and pools the CRPS
    as ``aggregate_crps`` does. Results are gathered by (model, fold), so no
    output depends on the order in which tasks finish. On Linux every fit
    runs with one OpenBLAS thread. The caller's process holds one thread from
    the first fit on. When the fits run in the caller it gets its previous
    counts back on return. After a forked pool it keeps one thread: the fork
    stops the caller's OpenBLAS threads, and restoring a count would start
    them again, to busy-wait after this call has returned.

    On Linux, above one worker, the fits run in a pool forked from the
    caller, of at most one worker per fold fit of the models that set up: a
    forked pool starts all its workers at once, however few tasks it gets.
    The workers start with the caller's imported modules, the set-up study
    and its count of one thread; they start no OpenBLAS threads of their
    own, and do not re-run the calling script. Everywhere else, and at one
    worker, every fit runs in the caller as it is submitted (``_run_now``),
    through the same loop as a pool. Either way the result is byte-identical
    for any ``workers`` value under a fixed seed.

    With ``fail_fast=False`` a failed fit does not abort the sweep: the
    error is recorded per model and the remaining work continues. A model
    whose set-up raises is recorded as a failed full fit.
    """
    ids = [s.model_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate model ids")
    folds = assign_folds(points, n_folds, derive_rng(seed, "folds"))
    partitions = build_partitions(campaign_domains, *partition_dims)
    study, failures = _Study.set_up(
        stack, campaign_domains, points, specs, folds, n_draws, seed, partitions, fail_fast
    )

    workers = max(1, min(workers, len(study.likes) * n_folds)) if _FORK else 1
    if workers > 1:
        # kept after the study: forked workers inherit the count of 1, and
        # the caller's OpenBLAS threads, stopped by the fork, stay stopped
        _set_one_blas_thread()
        context = ProcessPoolExecutor(workers, mp_context=get_context("fork"))
    else:
        context = _one_blas_thread()  # in-process fits; restored after them
    global _study
    _study = study
    # each task's result by (model, fold), fold 0 being the full fit
    results: dict[tuple[int, int], tuple] = {}
    try:
        with context as pool:
            submit = pool.submit if workers > 1 else _run_now
            tasks = {submit(_full_fit_task, i): (i, 0) for i in study.likes}
            try:
                while tasks:
                    done, _ = wait(tasks, return_when=FIRST_COMPLETED)
                    for fut in done:
                        i, k = tasks.pop(fut)
                        results[(i, k)] = out = fut.result()
                        if k == 0 and out[-1] is None:
                            # fold fits warm-start from their model's full-fit hyper mode
                            for j in range(1, n_folds + 1):
                                tasks[submit(_fold_fit_task, i, j, out[3])] = (i, j)
            finally:
                for fut in tasks:  # left by a task that raised
                    fut.cancel()
    finally:
        _study = None

    # gathered in model and fold order, whatever order the tasks finished in
    cols = subset_slices(partitions)
    dic: dict[str, DicResult] = {}
    summaries: dict[str, FitSummary] = {}
    scores: dict[str, float] = {}
    by_subset: dict[str, dict[int, np.ndarray]] = {}
    mean_residual: dict[str, dict[int, np.ndarray]] = {}
    for i in study.likes:
        m = ids[i]
        _, dic_res, summary, _, err = results[(i, 0)]
        if err is not None:
            failures[m] = [f"full fit: {err}"]
            continue
        dic[m], summaries[m] = dic_res, summary
        _, ks, crps_k, mean_k, errs = zip(*(results[(i, k)] for k in range(1, n_folds + 1)))
        if any(errs):
            failures[m] = [f"fold {k}: {e}" for k, e in zip(ks, errs) if e is not None]
            continue
        # the fold average and pooling of ``aggregate_crps``
        crps_g = np.stack(crps_k).mean(axis=0)
        mean_g = np.stack(mean_k).mean(axis=0)
        scores[m] = float(crps_g.mean())
        by_subset[m] = {t: crps_g[c] for t, c in cols.items()}
        mean_residual[m] = {t: mean_g[c] for t, c in cols.items()}
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
