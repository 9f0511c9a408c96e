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

Residuals are computed in three steps: ``ResidualPairing.build`` reduces a
model's cells to (subset, group) pairs once; a fold's fit integrates its
intensity draws over the subsets as it makes them, through the pairing's
``integrate``, the reduction it hands to ``fit``; and
``validation_residuals`` turns those (A, G) integrals and the fold's
validation points into residuals.

The study runner fits every (model, fold) pair, on Linux with one OpenBLAS
thread. Before any fit, the caller bins each model on all points and pairs
it with the subsets, once per study; a fold recounts only its training
points on those bins. A fold's task scores its own residuals and returns
two (G,) arrays, each subset's CRPS and mean residual, and the caller
averages them over folds. A model's fold fits start as soon as its full fit
returns. Every task reads the study from this module, where the runner sets
it for the length of the call.

The caller is one of the workers. On Linux, above one worker, it forks
``workers - 1`` children once per study, after the set-up; they inherit the
study and the count of one thread from its memory, start no OpenBLAS threads
and do not re-run the calling script. Every worker, the caller included,
claims the next task from one shared counter. A child that dies before its
results arrive makes the study raise ``ChildProcessError``. Fork is unsafe in
a caller that runs other threads, so call ``run_study`` with more than one
worker from a single-threaded process. Everywhere else, and at one worker,
every task runs in the caller. Fold marks are drawn once per study; every
task derives its own generator from (seed, model, fold), so results are
identical for any worker count.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import pickle
import select
import signal
import sys
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context

import numpy as np

from .geodata import CovariateStack, DomainMask, PartitionScheme, PointPattern, build_partition
from .inference import (
    DicResult,
    FitSummary,
    GriddedLikelihood,
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
    over, for scoring residuals (``integrate``, ``validation_residuals``).

    Each campaign's cells are reduced to (subset, group) pairs, by subset then
    group, each weighted by its cell count, so every subset is one contiguous
    segment of pairs: ``group`` holds each pair's group (a row of the
    likelihood's ``groups``), ``n_cells`` its cell count, ``filled`` marks
    the subsets with design rows and ``starts`` holds the first pair of each
    of them; ``weight`` is the cell area. In a field model every group is one
    cell and every pair a cell. The pairing reads the cells, not their
    counts, so the folds of a study share their model's.
    """

    weight: float
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
            weight=design.weight,
            group=np.concatenate(pair_group),
            n_cells=np.concatenate(pair_cells),
            filled=filled,
            starts=(np.cumsum(sizes) - sizes)[filled],
        )

    def integrate(self, out: np.ndarray, draws: slice, lam: np.ndarray) -> None:
        """Integrate a block of intensity draws ``lam`` (groups, draws in the
        block) over every subset, in units of the cell area, into rows
        ``draws`` of ``out`` (A, G), leaving the columns of subsets without
        design rows as they are: the reduction a fold hands to ``fit``. The
        pairs read their group's row, so the exp ran once per group, not per
        pair."""
        pairs = lam[self.group]
        pairs *= self.n_cells[:, None]
        out[draws, self.filled] = np.add.reduceat(pairs, self.starts, axis=0).T


def validation_residuals(
    integrals: np.ndarray,
    pairing: ResidualPairing,
    val_columns: np.ndarray,
    n_folds: int,
) -> np.ndarray:
    """Raw residual draws for one fold: observed validation counts minus
    1/(K-1) times the integrated training-intensity draws, per subset.

    ``integrals`` (A, G) holds each draw's training intensity integrated over
    every stacked subset by ``pairing.integrate``, in units of the cell
    area, which a fit to the fold's training points with unscaled exposures
    reduced as it sampled (``fit``'s ``reduce``), so the intensity estimates
    the thinned training rate. ``val_columns`` holds the stacked subset
    column of each validation point (``subset_columns``). Returns one (A, G)
    array over the stacked subsets of all campaigns, ``integrals`` itself,
    overwritten; ``subset_slices(partitions)[t]`` holds campaign t's columns.
    """
    integrals *= -(pairing.weight / (n_folds - 1))
    integrals += np.bincount(val_columns, minlength=pairing.filled.size)
    return integrals


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


# Whether a study forks workers above one. Forked children inherit the
# caller's modules and study and do not re-run its __main__. Off Linux fork is
# missing or unsafe with the system's libraries, so every task runs in the
# caller, with the same result.
_FORK = sys.platform == "linux"

# The longest that a study's caller waits before it checks on its children,
# and a child before it checks that its caller is still there.
_POLL_S = 0.05


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


# The study of the running ``run_study`` call, set before any child forks:
# the tasks read it here, in the caller or in the memory a child inherited,
# so no task carries it.
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


def _fold_fit_task(model_idx: int, k: int, theta_init: np.ndarray):
    """Fit fold k's training pattern, warm-started at the full fit's hyper
    mode ``theta_init``, integrating its intensity draws over the subsets as
    the fit makes them (``ResidualPairing.integrate``), and score its
    validation residuals: the CRPS and the mean of each subset's (A,)
    ensemble, two (G,) arrays, so that the result grows with the subsets and
    not with the draws."""
    p = _study
    spec = p.specs[model_idx]
    try:
        like = p.fold_likelihood(model_idx, k)
        pairing = p.pairings[model_idx]
        integrals = np.zeros((p.n_draws, pairing.filled.size))
        rng = derive_rng(p.seed, spec.model_id, "fold", k)
        fit(like, n_draws=p.n_draws, rng=rng, theta_init=theta_init,
            reduce=functools.partial(pairing.integrate, integrals))
        resid = validation_residuals(
            integrals, pairing, p.validation_columns(k), p.folds.n_folds
        )
        crps_g, _ = aggregate_crps(resid[:, None, :])
    except Exception as e:
        if p.fail_fast:
            raise
        return model_idx, k, None, None, f"{type(e).__name__}: {e}"
    return model_idx, k, crps_g, resid.mean(axis=0), None


class _Board:
    """The tasks of one study, which every worker (the caller and the
    children it forks) claims one at a time from a shared counter.

    Task t < M is the full fit of the t-th model that set up; the rest are
    the folds of each model in turn. ``next`` is the first unclaimed task,
    behind ``lock``, and ``stop`` is set once a task has raised, so that no
    more are claimed. A full fit writes its hyper mode into ``modes`` and
    its model's ``state`` (1 fitted, -1 failed), then opens the model's
    turnstile: a semaphore that each fold of the model takes and gives back
    at once. (``multiprocessing``'s condition variable would wait in
    ``notify_all``, without a timeout, for every sleeper to wake, so a
    sleeper killed while waiting would hang the notifier.)

    A worker waits at most ``_POLL_S`` at a time, then calls its ``check``,
    which raises if the worker should give up.
    """

    def __init__(self, study: _Study, n_folds: int):
        # fork's semaphores are unlinked at once, so no resource tracker starts
        ctx = get_context("fork" if "fork" in get_all_start_methods() else None)
        self.models = list(study.likes)
        self.n_folds = n_folds
        self.n_tasks = len(self.models) * (n_folds + 1)
        sizes = [len(study.specs[i].hyper_names) for i in self.models]
        self.offsets = [0, *itertools.accumulate(sizes)]
        self.modes = ctx.RawArray("d", self.offsets[-1])
        self.state = ctx.RawArray("b", len(self.models))
        self.next = ctx.RawValue("i", 0)
        self.stop = ctx.RawValue("b", 0)
        self.lock = ctx.Lock()
        self.turnstiles = [ctx.Semaphore(0) for _ in self.models]

    @staticmethod
    def _take(sem, check) -> None:
        """Acquire ``sem``, calling ``check`` after every ``_POLL_S`` of waiting."""
        while not sem.acquire(timeout=_POLL_S):
            check()

    def claim(self, check) -> int | None:
        """The next task, or None once all are claimed or a task has raised."""
        check()
        self._take(self.lock, check)
        try:
            t = self.next.value
            if self.stop.value or t == self.n_tasks:
                return None
            self.next.value = t + 1
            return t
        finally:
            self.lock.release()

    def publish(self, m: int, theta: np.ndarray | None) -> None:
        """Give model m's folds the hyper mode of its full fit, or None if
        that fit failed."""
        if theta is not None:
            self.modes[self.offsets[m] : self.offsets[m + 1]] = theta.tolist()
        self.state[m] = -1 if theta is None else 1
        self.turnstiles[m].release()

    def mode(self, m: int, check) -> np.ndarray | None:
        """Model m's hyper mode, once its full fit has published it; None if
        that fit failed or a task has raised."""
        self._take(self.turnstiles[m], check)
        self.turnstiles[m].release()  # open for the model's other folds
        if self.stop.value or self.state[m] < 0:
            return None
        return np.array(self.modes[self.offsets[m] : self.offsets[m + 1]])

    def halt(self) -> None:
        """Stop the claims and wake every waiting fold: a task has raised."""
        self.stop.value = 1
        for sem in self.turnstiles:
            sem.release()

    def work(self, check, results: dict) -> None:
        """Claim and run tasks until none is left, keeping each result in
        ``results`` by (model, fold), fold 0 being the full fit. A task that
        raises halts the board before its error propagates."""
        n_models = len(self.models)
        try:
            while (t := self.claim(check)) is not None:
                if t < n_models:
                    i = self.models[t]
                    results[(i, 0)] = out = _full_fit_task(i)
                    self.publish(t, out[3] if out[-1] is None else None)
                    continue
                m, k = divmod(t - n_models, self.n_folds)
                theta = self.mode(m, check)
                if theta is not None:
                    i = self.models[m]
                    results[(i, k + 1)] = _fold_fit_task(i, k + 1, theta)
        except BaseException:
            self.halt()
            raise


def _child(board: _Board, caller: int, w: int):
    """A forked child's whole life: work on the board, then pickle
    ``(results, error)`` down pipe ``w`` to the caller and exit. It never
    returns into the caller's stack; it exits with status 0 only once
    everything is written."""
    status = 1
    try:

        def check():
            if os.getppid() != caller:
                raise ChildProcessError("the study's caller has gone")

        results, error = {}, None
        try:
            board.work(check, results)
        except Exception as e:  # raised again in the caller
            error = e
        data = memoryview(pickle.dumps((results, error)))
        while data:
            data = data[os.write(w, data) :]
        status = 0
    finally:
        os._exit(status)


class _Children:
    """The children that a study forks to work on its board, with the read
    end of each one's pipe (``pipes``, by pid) and the wait status of each
    one reaped (``status``). Leaving the ``with`` block SIGKILLs and reaps
    every child still there."""

    def __init__(self):
        self.pipes: dict[int, int] = {}
        self.status: dict[int, int] = {}

    def fork(self, board: _Board, n: int) -> None:
        caller = os.getpid()
        for _ in range(n):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(board, caller, w)
            except OSError:
                os.close(r)
                raise
            finally:
                os.close(w)
            self.pipes[pid] = r

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for pid in self.pipes:
            if pid not in self.status:
                os.kill(pid, signal.SIGKILL)
                self.status[pid] = os.waitpid(pid, 0)[1]
        for r in self.pipes.values():
            os.close(r)

    def _reap(self, pid: int, block: bool) -> None:
        """Reap the child if it has ended (wait for it if ``block``), and
        raise ``ChildProcessError`` if it ended abnormally: a child exits
        with status 0 only after writing its results."""
        if pid not in self.status:
            done, status = os.waitpid(pid, 0 if block else os.WNOHANG)
            if not done:
                return
            self.status[pid] = status
        code = os.waitstatus_to_exitcode(self.status[pid])
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise ChildProcessError(f"study worker {pid} ended before its results arrived ({how})")

    def check(self) -> None:
        """Raise ``ChildProcessError`` if a child has ended abnormally."""
        for pid in self.pipes:
            self._reap(pid, block=False)

    def collect(self) -> dict:
        """Every child's results, merged, once all of them have been read;
        raises the error of a child's task, if one raised."""
        chunks = {r: [] for r in self.pipes.values()}
        poller = select.poll()
        for r in chunks:
            poller.register(r, select.POLLIN)
        unread = len(chunks)
        while unread:
            ready = poller.poll(_POLL_S * 1000)
            if not ready:
                self.check()
            for r, _ in ready:
                data = os.read(r, 1 << 16)
                if data:
                    chunks[r].append(data)
                else:
                    poller.unregister(r)
                    unread -= 1
        # a pipe at its end: the child has exited, or is exiting
        merged = {}
        for pid, r in self.pipes.items():
            self._reap(pid, block=True)
            results, error = pickle.loads(b"".join(chunks[r]))
            if error is not None:
                raise error  # the other children are reaped on leaving the with block
            merged.update(results)
        return merged


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
    the first fit on. At one worker it gets its previous counts back on
    return. After forking it keeps one thread: the fork stops the caller's
    OpenBLAS threads, and restoring a count would start them again, to
    busy-wait after this call has returned.

    The caller is one of the workers, and every worker runs the same loop
    (``_Board.work``): it claims the next task from a shared counter, the
    full fits first, and a fold waits until its model's full fit has
    published its hyper mode. On Linux, above one worker, the caller forks
    ``workers - 1`` children after the set-up, at most one worker per fold
    fit of the models that set up. The children start with the caller's
    imported modules, the set-up study and its count of one thread; they
    start no OpenBLAS threads of their own, do not re-run the calling script,
    and pickle their results back through a pipe each. Fork is unsafe in a
    caller that runs other threads. A child that ends before its results
    arrive makes this call kill the other children and raise
    ``ChildProcessError``; an error raised by a child's task is raised here.
    Everywhere else, and at one worker, every fit runs in the caller. Either
    way the result is byte-identical for any ``workers`` value under a fixed
    seed.

    With ``fail_fast=False`` a failed fit does not abort the sweep: the
    error is recorded per model and the remaining work continues. A model
    whose set-up raises is recorded as a failed full fit.
    """
    ids = [s.model_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate model ids")
    if n_draws < 1:
        raise ValueError(f"a study needs at least one draw per fit, not {n_draws}")
    folds = assign_folds(points, n_folds, derive_rng(seed, "folds"))
    partitions = build_partitions(campaign_domains, *partition_dims)
    study, failures = _Study.set_up(
        stack, campaign_domains, points, specs, folds, n_draws, seed, partitions, fail_fast
    )

    workers = max(1, min(workers, len(study.likes) * n_folds)) if _FORK else 1
    board = _Board(study, n_folds)
    # each task's result by (model, fold), fold 0 being the full fit
    results: dict[tuple[int, int], tuple] = {}
    global _study
    _study = study
    try:
        if workers == 1:
            with _one_blas_thread():  # fits in the caller; its count restored after them
                board.work(lambda: None, results)
        else:
            # kept after the study: forked children inherit the count of 1, and
            # the caller's OpenBLAS threads, stopped by the fork, stay stopped
            _set_one_blas_thread()
            with _Children() as children:
                children.fork(board, workers - 1)
                board.work(children.check, results)
                results.update(children.collect())
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
