"""Laplace-approximation fitting of the gridded Cox-process likelihood.

The point pattern is reduced to cell counts; conditional on the latent
effects the counts are independent Poissons with mean alpha_q lambda(s_q)
(midpoint quadrature, Berman-Turner style), so the log-likelihood is
sum over campaigns and cells of N_q log(alpha_q lambda) - alpha_q lambda.
That sum depends on the cells only through each distinct pair of design row
and mesh node, so ``bin_points`` groups the cells by that pair once (the
Berman-Turner / Baddeley-Turner weighting device): a group has the count
total and the exposure (cell area times cell count) of its cells. Newton,
the DIC and the cross-validation residuals all run over groups. A field-free
model has a handful of them (one per campaign and meadow indicator without
continuous covariates); in a field model every cell has its own mesh node,
so every cell is its own group, in the design's row order.

Fitting splits the latent vector u into the field block w (large, banded
precision) and the dense block d (small), laid out as
``ModelSpec.dense_columns``: intercept, covariates, gamma, mu_t. For a
fixed hyperparameter point theta the posterior mode of u is found by Newton
with step-halving, each iterate's eta, Poisson means and prior product
computed once (``_Latent``) for its objective, gradient and Hessian; because the Poisson Hessian contributes only a diagonal to
the w block, each step factors an arrowhead matrix (banded + dense border)
instead of a general sparse one. That diagonal, and the border, are zero on
the mesh rows before the first and after the last row holding a design cell,
so those end rows are factored once per theta (``_banded.EndElimination``)
and each step factors only the rows between them. Sampling factors the whole
lattice in natural order. The hyperparameters are then integrated over
a small axis-aligned grid around their posterior mode, spaced so the three
points per axis straddle roughly the central 90% of the Gaussian profile;
posterior draws pick a grid point by weight, add within-cell jitter on theta,
and draw the latent vector from the Gaussian approximation at that point. The
field is drawn on the whole mesh and never kept: a grid point's draws are
made in column blocks of at most bandwidth + 1 draws (``_block_normals``),
each block fills a view of one buffer of standard normals and is solved in
place there, and the fit reduces it at once (``_DrawReducer``) to what the
pipeline reads. A grid point of more blocks redraws its normals from the
generator's saved state for each, so every draw gets the normals it would
get in one block. The fit keeps the field's mean on the raster grid's cells
and, from the groups' intensities, ``ETA_BLOCK_DRAWS`` draws at a time,
each draw's Poisson log-likelihood for the DIC; a caller's reduction takes
the place of the latter, as a cross-validation fold's integrates the
intensities over its subsets. Besides the dense and theta draws, sampling
holds one whole-lattice factor, one block's normals, no larger than that
factor, and one block of intensities, never an array of every cell's draws.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dtrsm

from . import _banded
from .geodata import CovariateStack, DomainMask, PointPattern
from .gmrf import LatticeMesh, MaternHyper, SparsePrecision, build_precision
from .model import CellDesign, EffectVector, ModelSpec, build_design

__all__ = [
    "FitError",
    "GriddedLikelihood",
    "PosteriorDraws",
    "FitSummary",
    "DicResult",
    "bin_points",
    "fit",
    "summarize",
    "compute_dic",
    "inner_objective_grad",
]

NEWTON_MAX_ITER = 50
NEWTON_GRAD_TOL = 1e-6
GRID_HALF_WIDTH = 1.65  # theta grid offset in posterior sds: central 90% of a Gaussian
AXIS_SD_CLIP = (0.1, 1.2)  # bounds on each theta axis's grid sd
MAX_EXPLORE_EVALS = 150
# Draws per block of ``_DrawReducer``: 50 draws of 4096 groups (a field
# model's 64 x 64 cells, each its own group) are 1.6 MB, so a block stays in
# cache from its eta through exp to its sums.
ETA_BLOCK_DRAWS = 50


class FitError(RuntimeError):
    pass


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    return shape * math.log(rate) - math.lgamma(shape) + (shape - 1.0) * math.log(x) - rate * x


@functools.cache
def _openblas_threads() -> tuple:
    """(setter, getter) of the thread count of every OpenBLAS the process has
    loaded (numpy's and scipy's), read from ``/proc/self/maps``; empty off
    Linux or with another BLAS.

    Looked up once per process: importing this module loads both libraries
    (numpy, and scipy.linalg through ``_banded``), and a forked worker
    inherits the lookup with the rest of its parent's memory.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split(None, 5)[-1].strip() for ln in fh if "openblas" in ln})
    except OSError:
        paths = []
    names = ("openblas_%s_num_threads", "scipy_openblas_%s_num_threads",
             "scipy_openblas_%s_num_threads64_")
    return tuple((getattr(lib, name % "set"), getattr(lib, name % "get"))
                 for lib in map(ctypes.CDLL, paths) for name in names
                 if hasattr(lib, name % "get"))


def _set_one_blas_thread() -> list:
    """Set every loaded OpenBLAS to one thread; returns the (setter, previous
    count) of each library it changed.

    A library whose count already reads 1 is left alone. OpenBLAS stops its
    server threads at a fork, and any call of the setter after that restarts
    them, whatever the count; they then busy-wait. So a worker forked from a
    caller set to one thread, which inherits a count of 1, runs every fit
    without starting a BLAS thread.
    """
    pins = [(setter, n) for setter, getter in _openblas_threads() if (n := getter()) != 1]
    for setter, _ in pins:
        setter(1)
    return pins


@contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread, and restore its count after.

    A second thread doubles a fit's CPU for about the same wall time, threaded
    BLAS in workers side by side oversubscribes the cores, and the thread
    count changes floating-point sums. So ``fit`` and ``run_study`` hold one
    thread. The pin acts only on Linux, where ``_openblas_threads`` finds the
    libraries; elsewhere it does nothing. A library already at one thread is
    neither set nor restored (``_set_one_blas_thread``).
    """
    pins = _set_one_blas_thread()
    try:
        yield
    finally:
        for setter, n in pins:
            setter(n)


# ---------------------------------------------------------------------------
# Likelihood assembly
# ---------------------------------------------------------------------------


@dataclass
class GriddedLikelihood:
    """Counts of every campaign on the stacked cell design, one Poisson model,
    with the cells grouped by design row and mesh node.

    ``design`` stacks the cells of all campaign domains (see ``CellDesign``).
    Cells that share a design row and a mesh node share a log-intensity, so
    the likelihood keeps one entry per such group, the groups in order of
    their first cell: ``groups`` is the design of one row per group,
    ``group_of`` the group of each design row, ``y`` the count total of each
    group and ``exposure`` its quadrature weight, the cell area
    ``design.weight`` times its cell count. The Poisson mean of a group is
    exposure * exp(eta). ``loglik_const`` holds the eta-free terms, summed
    over the cells before grouping. In a field model every group is one cell,
    in the design's row order, with exposure ``design.weight``.
    """

    spec: ModelSpec
    mesh: LatticeMesh | None
    design: CellDesign
    groups: CellDesign
    group_of: np.ndarray
    y: np.ndarray
    exposure: np.ndarray
    loglik_const: float

    @classmethod
    def from_cells(
        cls, spec: ModelSpec, mesh: LatticeMesh | None, design: CellDesign, y: np.ndarray
    ) -> "GriddedLikelihood":
        """Group the cells of ``design``, whose counts are ``y``, by design row
        and mesh node."""
        # one column of mesh nodes, or none without a field
        nodes = design.mesh_index.reshape(design.n_cells, -1)
        key = np.ascontiguousarray(np.column_stack([design.x, nodes]), dtype=float)
        # each row as one opaque value: a 1-D unique sorts far faster than axis=0
        row_bytes = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
        order = np.argsort(first)  # groups by their first cell
        first = first[order]
        group_of = np.argsort(order)[inverse]
        groups = CellDesign(
            cell_ids=design.cell_ids[first],
            mesh_index=nodes[first].ravel(),
            weight=design.weight,
            # no group spans two campaigns: with two or more, the campaign
            # columns tell their rows apart
            rows={t: slice(*np.searchsorted(first, (r.start, r.stop)).tolist())
                  for t, r in design.rows.items()},
            x=design.x[first],
        )
        return cls(
            spec=spec,
            mesh=mesh,
            design=design,
            groups=groups,
            group_of=group_of,
            exposure=design.weight * np.bincount(group_of, minlength=first.size),
            **_counted(group_of, first.size, design.weight, y),
        )

    def with_counts(self, y: np.ndarray) -> "GriddedLikelihood":
        """The likelihood of other counts ``y`` (one per design row) on the
        same cells and groups: only ``y`` and ``loglik_const`` change. A
        cross-validation fold recounts its training points this way."""
        return replace(
            self, **_counted(self.group_of, self.groups.n_cells, self.design.weight, y)
        )

    @property
    def n_mesh(self) -> int:
        return self.mesh.n if (self.mesh is not None and self.spec.include_field) else 0

    @property
    def n_dense(self) -> int:
        return self.spec.n_dense

    @functools.cached_property
    def data_nodes(self) -> slice:
        """Mesh nodes of the rows from the first to the last that holds a design
        cell, widened to at least two rows (the band's width) so that the
        data-free rows before and after them share no entry of the precision.
        The halo keeps a row after the data to widen into."""
        cols = self.mesh.cols
        first = int(self.design.mesh_index.min()) // cols
        stop = max(int(self.design.mesh_index.max()) // cols + 1, first + 2)
        return slice(first * cols, stop * cols)

    def poisson_mean(self, eta: np.ndarray) -> np.ndarray:
        """Expected count of every group at its log-intensity ``eta``."""
        return self.exposure * np.exp(eta)

    def loglik(self, eta: np.ndarray, with_const: bool = False,
               mean: np.ndarray | None = None) -> float:
        """Poisson count log-likelihood at the groups' log-intensities ``eta``
        (``groups.eta``), whose ``poisson_mean`` is ``mean`` if given;
        ``with_const`` adds the eta-free ``loglik_const``."""
        if mean is None:
            mean = self.poisson_mean(eta)
        total = float(self.y @ eta - mean.sum())
        return total + self.loglik_const if with_const else total


def _log_factorials(y: np.ndarray) -> np.ndarray:
    """log(y!) of every count in ``y``, read from a table of ``math.lgamma``
    up to the largest count."""
    counts = np.asarray(y, dtype=np.intp)
    table = np.array([math.lgamma(k + 1.0) for k in range(int(counts.max(initial=0)) + 1)])
    return table[counts]


def _counted(group_of: np.ndarray, n_groups: int, weight: float, y: np.ndarray) -> dict:
    """The count fields of a ``GriddedLikelihood`` from cell counts ``y``:
    each group's count total, and the eta-free terms summed over the cells."""
    return dict(
        y=np.bincount(group_of, weights=y, minlength=n_groups),
        loglik_const=float(y.sum() * math.log(weight) - _log_factorials(y).sum()),
    )


def bin_points(
    spec: ModelSpec,
    stack: CovariateStack,
    campaign_domains: dict[int, DomainMask],
    points: PointPattern,
    mesh: LatticeMesh | None = None,
    return_rows: bool = False,
) -> GriddedLikelihood | tuple[GriddedLikelihood, np.ndarray]:
    """Reduce a point pattern to cell counts on the stacked cell design, and
    group the cells by design row and mesh node (``GriddedLikelihood``).

    Every point must fall in a cell of its campaign's domain
    (``CellDesign.rows_of_points``): a stray point is a hard error rather than
    silently dropped. A field model without a ``mesh`` gets the grid's
    lattice at its prior's reference range (``LatticeMesh.for_grid``). With
    ``return_rows`` it returns (likelihood, design row of each point), the
    rows it counted.
    """
    if mesh is None and spec.include_field:
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=spec.pc_prior.rho0)
    design = build_design(spec, stack, campaign_domains, mesh)
    rows = design.rows_of_points(stack.grid, points)
    y = np.bincount(rows, minlength=design.n_cells)
    like = GriddedLikelihood.from_cells(spec, mesh if spec.include_field else None, design, y)
    return (like, rows) if return_rows else like


# ---------------------------------------------------------------------------
# Inner problem: latent mode for one hyperparameter point
# ---------------------------------------------------------------------------


@contextmanager
def _positive_definite():
    """Raise a factorization's ``LinAlgError`` as ``FitError``."""
    try:
        yield
    except np.linalg.LinAlgError as err:
        raise FitError(f"non-positive-definite Hessian: {err}") from None


class _DenseFactor:
    """Dense-only stand-in for the arrowhead factor (field-free models)."""

    def __init__(self, s_dense: np.ndarray):
        self.ls = np.linalg.cholesky(s_dense)

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.ls))))

    def solve(self, b_w, b_d):
        y = np.linalg.solve(self.ls, b_d)
        return np.zeros(0), np.linalg.solve(self.ls.T, y)

    def sample(self, z_w, z_d):
        return z_w, dtrsm(1.0, self.ls, z_d, lower=1, trans_a=1)  # as ArrowFactor.sample


@dataclass
class _Latent:
    """One latent vector (u_w, u_d) with what Newton and the Laplace log
    posterior read of it, each computed once: the groups' log-intensities
    ``eta``, their Poisson means ``mean``, the prior product ``qu`` = Q u_w
    (None without a field), the log-likelihood ``loglik`` (without the eta-free
    constant) and the prior quadratic form ``quad``."""

    u_w: np.ndarray
    u_d: np.ndarray
    eta: np.ndarray
    mean: np.ndarray
    qu: np.ndarray | None
    loglik: float
    quad: float

    @property
    def objective(self) -> float:
        """The inner objective: log-likelihood plus the prior's kernel."""
        return self.loglik - 0.5 * self.quad


class _Inner:
    """Poisson likelihood plus Gaussian prior for one (sigma, rho, tau), over
    the likelihood's groups. The latent field block ``u_w`` lives on the whole
    mesh, halo included, and the groups read it at their ``mesh_index``."""

    def __init__(self, like: GriddedLikelihood, prec: SparsePrecision | None, tau: float | None):
        self.like = like
        self.groups = like.groups
        self.spec = like.spec
        self.prec = prec
        self.n_w = like.n_mesh
        self.m = like.n_dense
        prior = np.full(self.m, self.spec.fixed_prec)
        campaign = self.spec.dense_mask("campaign")
        if campaign.any():
            if tau is None:
                raise ValueError("campaign models need tau")
            prior[campaign] = tau
        self.dense_prior = prior
        self.n_factors = 0
        self.n_end_factors = 0

    def eta(self, u_w: np.ndarray, u_d: np.ndarray) -> np.ndarray:
        """log lambda of every group at the latent vector (u_w, u_d)."""
        out = u_d @ self.groups.x.T
        if self.n_w:
            out += u_w[self.groups.mesh_index]
        return out

    def at(self, u_w: np.ndarray, u_d: np.ndarray) -> _Latent:
        """The latent vector (u_w, u_d) with its eta, Poisson means and prior
        product: one exp and one stencil pass per latent vector."""
        eta = self.eta(u_w, u_d)
        mean = self.like.poisson_mean(eta)
        quad = float(np.dot(self.dense_prior * u_d, u_d))
        qu = None
        if self.n_w:
            qu = self.prec.matvec(u_w)
            quad += float(np.dot(u_w, qu))
        return _Latent(u_w, u_d, eta, mean, qu, self.like.loglik(eta, mean=mean), quad)

    def gradient(self, p: _Latent) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the inner objective at ``p``, as (field block, dense block)."""
        groups = self.groups
        resid = self.like.y - p.mean
        g_d = groups.x.T @ resid - self.dense_prior * p.u_d
        g_w = np.zeros(0)
        if self.n_w:
            g_w = np.bincount(groups.mesh_index, weights=resid, minlength=self.n_w)
            g_w -= p.qu
        return g_w, g_d

    def _hessian(self, mean: np.ndarray, nodes: slice):
        """The negated Hessian (prior precision + Poisson weights, the groups'
        Poisson ``mean``) as (band of the field block on the mesh ``nodes``,
        its border with the dense block on those nodes, dense block); the
        field parts are None without a field. The nodes must hold every design
        cell. Counts one factorization."""
        self.n_factors += 1
        x, idx = self.groups.x, self.groups.mesh_index - nodes.start
        s = np.diag(self.dense_prior) + (x * mean[:, None]).T @ x
        if not self.n_w:
            return None, None, s
        size = nodes.stop - nodes.start
        b = np.column_stack(
            [np.bincount(idx, weights=mean * x[:, j], minlength=size) for j in range(self.m)]
        )
        ab = self.prec.band(nodes.start, nodes.stop)
        ab[0] += np.bincount(idx, weights=mean, minlength=size)
        return ab, b, s

    def _hessian_factor(self, mean: np.ndarray):
        """Factor of the negated Hessian on the whole lattice, in natural node
        order: the factor that posterior draws map through."""
        ab, b, s = self._hessian(mean, slice(0, self.n_w))
        with _positive_definite():
            return _banded.ArrowFactor(ab, b, s) if self.n_w else _DenseFactor(s)

    @functools.cached_property
    def _ends(self) -> _banded.EndElimination:
        """The lattice's data-free end rows, eliminated once for this theta:
        their Hessian block is the prior's alone."""
        self.n_factors += 1
        self.n_end_factors += 1
        prec, n, nodes = self.prec, self.n_w, self.like.data_nodes
        bw, p, q = prec.mesh.bandwidth, nodes.start, nodes.stop
        ends = np.concatenate([prec.band(0, p), prec.band(q, n, reverse=True)], axis=1)
        top = prec.band(p - min(p, bw), p + bw)
        bottom = prec.band(q - bw, q + min(n - q, bw), reverse=True)
        return _banded.EndElimination(ends, p, top, bottom)

    def _newton_factor(self, mean: np.ndarray):
        """The factor of ``_hessian_factor``, with the end rows eliminated
        (``_ends``): each Newton step factors only ``like.data_nodes``."""
        if not self.n_w:
            return self._hessian_factor(mean)
        with _positive_definite():
            return _banded.EndArrowFactor(self._ends, *self._hessian(mean, self.like.data_nodes))

    def newton(self, u_w: np.ndarray, u_d: np.ndarray):
        """Mode of the latent posterior; returns (mode as a ``_Latent``,
        factor, n_iter). Each iterate is evaluated once (``at``): its line
        search trial, gradient and Hessian weights share one eta and exp."""
        p = self.at(u_w.copy(), u_d.copy())
        factor = None
        for it in range(NEWTON_MAX_ITER + 1):
            g_w, g_d = self.gradient(p)
            gnorm = float(np.max(np.abs(np.concatenate([g_w, g_d])), initial=0.0))
            converged = gnorm < NEWTON_GRAD_TOL
            if converged and factor is not None and it < NEWTON_MAX_ITER:
                return p, factor, it  # the factor of the previous step
            if not converged and it == NEWTON_MAX_ITER:
                raise FitError(
                    f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                    f"(gradient max-norm {gnorm:.3e})"
                )
            factor = None  # free the previous step's factor before building this one
            factor = self._newton_factor(p.mean)
            if converged:
                return p, factor, it
            step_w, step_d = factor.solve(g_w, g_d)
            scale = 1.0
            # accept any move within summation noise of the current value:
            # near the mode a full step gains less than the noise floor
            noise = 1e-9 * (1.0 + abs(p.objective))
            for _ in range(40):
                # an overflowing exp scores -inf, and the halving rejects it
                with np.errstate(over="ignore"):
                    trial = self.at(p.u_w + scale * step_w, p.u_d + scale * step_d)
                if trial.objective > p.objective - noise:
                    break
                scale *= 0.5
            else:
                raise FitError(
                    f"Newton line search failed at iteration {it + 1} "
                    f"(gradient max-norm {gnorm:.3e})"
                )
            p = trial


def _inner_at(like: GriddedLikelihood, hyper: MaternHyper | None, tau: float | None) -> _Inner:
    """The inner problem at one hyperparameter point, with its field precision."""
    prec = None
    if like.spec.include_field:
        if hyper is None:
            raise ValueError("field models need hyper")
        prec = build_precision(like.mesh, hyper)
    return _Inner(like, prec, tau)


def inner_objective_grad(
    like: GriddedLikelihood,
    u_w: np.ndarray,
    u_d: np.ndarray,
    hyper: MaternHyper | None = None,
    tau: float | None = None,
) -> tuple[float, np.ndarray]:
    """Inner Laplace objective and its analytic gradient at (u_w, u_d), with
    the latent field ``u_w`` on the whole mesh (length mesh.n).

    The objective is the Poisson log-likelihood plus the Gaussian prior
    kernel; the gradient is returned as one concatenated vector. Exposed for
    derivative checking.
    """
    inner = _inner_at(like, hyper, tau)
    p = inner.at(u_w, u_d)
    return p.objective, np.concatenate(inner.gradient(p))


# ---------------------------------------------------------------------------
# Hyperparameter exploration
# ---------------------------------------------------------------------------


@dataclass
class _ThetaPoint:
    theta: np.ndarray
    log_post: float
    u_w: np.ndarray
    u_d: np.ndarray


class _Explorer:
    """Deterministic search and evaluation cache over theta space."""

    def __init__(self, like: GriddedLikelihood, warm_w: np.ndarray, warm_d: np.ndarray):
        self.like = like
        self.spec = like.spec
        self.cache: dict[tuple, _ThetaPoint] = {}
        self.warm_w = warm_w
        self.warm_d = warm_d
        self.n_evals = 0
        self.newton_iters = 0
        self.factorizations = 0
        self.end_factorizations = 0

    def _unpack(self, theta: np.ndarray):
        """(hyper, tau) from theta = (log sigma, log rho, log tau), each part if present."""
        hyper = tau = None
        if self.spec.include_field:
            hyper = MaternHyper(sigma=math.exp(theta[0]), rho=math.exp(theta[1]))
        if self.spec.has_campaign_effects:
            tau = math.exp(theta[-1])
        return hyper, tau

    def _log_hyper_prior(self, theta: np.ndarray) -> float:
        """Prior on theta (log scales), including the change-of-variable terms."""
        hyper, tau = self._unpack(theta)
        total = 0.0
        if hyper is not None:
            total += self.spec.pc_prior.logdensity(hyper.sigma, hyper.rho)
            total += theta[0] + theta[1]
        if tau is not None:
            total += _gamma_logpdf(tau, self.spec.tau_shape, self.spec.tau_rate)
            total += theta[-1]
        return total

    def evaluate(self, theta: np.ndarray) -> _ThetaPoint:
        key = tuple(np.round(theta, 10))
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        if self.n_evals >= MAX_EXPLORE_EVALS:
            raise FitError("hyperparameter exploration exceeded its evaluation budget")
        self.n_evals += 1
        inner = _inner_at(self.like, *self._unpack(theta))
        p, factor, iters = inner.newton(self.warm_w, self.warm_d)
        self.newton_iters += iters
        self.factorizations += inner.n_factors
        self.end_factorizations += inner.n_end_factors
        # Laplace: loglik + prior kernel + 0.5 logdet Q_prior - 0.5 logdet H
        logdet_prior = float(np.sum(np.log(inner.dense_prior)))
        if self.spec.include_field:
            logdet_prior += inner.prec.logdet
        lp = (
            p.loglik + self.like.loglik_const
            - 0.5 * p.quad
            + 0.5 * logdet_prior
            - 0.5 * factor.logdet
            + self._log_hyper_prior(theta)
        )
        point = _ThetaPoint(theta=theta.copy(), log_post=lp, u_w=p.u_w, u_d=p.u_d)
        self.cache[key] = point
        self.warm_w, self.warm_d = p.u_w, p.u_d
        return point

    def factor_at(self, point: _ThetaPoint):
        """Rebuild the Gaussian approximation's factor at a cached mode."""
        inner = _inner_at(self.like, *self._unpack(point.theta))
        self.factorizations += 1
        return inner._hessian_factor(self.like.poisson_mean(inner.eta(point.u_w, point.u_d)))

    def hill_climb(
        self, theta0: np.ndarray, steps: tuple[float, ...] = (0.8, 0.4, 0.2, 0.1)
    ) -> _ThetaPoint:
        best = self.evaluate(theta0)
        h = theta0.size
        for step in steps:
            improved = True
            while improved:
                improved = False
                for axis in range(h):
                    for sign in (1.0, -1.0):
                        cand = best.theta.copy()
                        cand[axis] += sign * step
                        point = self.evaluate(cand)
                        if point.log_post > best.log_post + 1e-9:
                            best = point
                            improved = True
        return best

    def axis_scales(self, mode: _ThetaPoint, probe: float = 0.3) -> np.ndarray:
        """Posterior sd per theta axis from a three-point curvature estimate."""
        h = mode.theta.size
        sd = np.empty(h)
        for axis in range(h):
            up = mode.theta.copy()
            up[axis] += probe
            down = mode.theta.copy()
            down[axis] -= probe
            f_up = self.evaluate(up).log_post
            f_down = self.evaluate(down).log_post
            curv = (f_up + f_down - 2.0 * mode.log_post) / probe**2
            sd[axis] = 1.0 / math.sqrt(-curv) if curv < -1e-8 else 1.0
        return sd


# ---------------------------------------------------------------------------
# Posterior draws and summaries
# ---------------------------------------------------------------------------


@dataclass
class PosteriorDraws:
    """A fit's A posterior draws of the hyperparameters and dense effects, and
    what it kept of its field draws.

    ``dense`` is (A, n_dense), one column per entry of the column table
    ``spec.dense_columns``, and ``log_hyper`` is (A, n_hyper) in
    ``spec.hyper_names`` order. The field draws are reduced as they are made
    (``_DrawReducer``): ``field_mean`` is their mean on the raster grid's
    cells, indexed by flat cell id as ``EffectVector.w`` (empty for
    field-free models), and ``loglik`` (A,) holds each draw's Poisson
    log-likelihood under ``like``, the likelihood fitted, without its
    eta-free ``loglik_const``; it is None when the fit was handed a
    reduction of its own (``fit``'s ``reduce``).
    """

    spec: ModelSpec
    like: GriddedLikelihood
    dense: np.ndarray
    field_mean: np.ndarray
    loglik: np.ndarray | None
    log_hyper: np.ndarray
    theta_mode: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.dense.shape[0]

    def mean_effects(self) -> EffectVector:
        return EffectVector(dense=self.dense.mean(axis=0), w=self.field_mean)


class _DrawReducer:
    """Reduces a fit's draws as each θ grid point's are solved (``fit``): it
    sums the field on the grid cells and, ``ETA_BLOCK_DRAWS`` draws at a
    time in one buffer, exponentiates the groups' log-intensities once for
    the log-likelihoods (``loglik``, None with a ``reduce``) or ``reduce``."""

    def __init__(
        self,
        like: GriddedLikelihood,
        n_draws: int,
        reduce: Callable[[slice, np.ndarray], None] | None = None,
    ):
        self.like = like
        self.n_draws = n_draws
        self.reduce = reduce
        self.loglik = np.empty(n_draws) if reduce is None else None
        mesh = like.mesh
        self.field_sum = np.zeros((mesh.grid_rows, mesh.grid_cols) if like.n_mesh else 0)

    def add(self, first: int, d: np.ndarray, w: np.ndarray) -> None:
        """Reduce the draws ``first``, ``first + 1``, ...: their dense effects
        ``d`` (n_dense, n) and the field on the whole mesh ``w`` (mesh
        nodes, n), one column per draw."""
        like, groups = self.like, self.like.groups
        n_groups, n = groups.n_cells, d.shape[1]
        if like.n_mesh:
            self.field_sum += like.mesh.grid_view(w).sum(axis=-1)
        buf = np.empty(n_groups * min(n, ETA_BLOCK_DRAWS))
        for start in range(0, n, ETA_BLOCK_DRAWS):
            stop = min(start + ETA_BLOCK_DRAWS, n)
            eta = buf[: n_groups * (stop - start)].reshape(n_groups, stop - start)
            np.matmul(groups.x, d[:, start:stop], out=eta)
            if like.n_mesh:
                eta += w[groups.mesh_index, start:stop]
            draws = slice(first + start, first + stop)
            if self.reduce is None:
                dot_y = like.y @ eta
                np.exp(eta, out=eta)
                self.loglik[draws] = dot_y - like.exposure @ eta
            else:
                np.exp(eta, out=eta)
                self.reduce(draws, eta)

    def field_mean(self) -> np.ndarray:
        return self.field_sum.ravel() / self.n_draws


def _block_width(like: GriddedLikelihood, n_draws: int) -> int:
    """Most draws that ``fit`` samples at once: bandwidth + 1 with a field, so
    that a block's (mesh nodes, draws) normals are no larger than the
    whole-lattice factor they are solved against, and all ``n_draws``
    without one."""
    return like.mesh.bandwidth + 1 if like.n_mesh else n_draws


def _block_normals(rng: np.random.Generator, normals: np.ndarray, n_w: int, n_dense: int,
                   n_g: int, width: int):
    """Yield the standard normals (z_w, z_d) of one grid point's ``n_g``
    draws, ``width`` draws (columns) at a time, each block's field normals a
    C-ordered view of ``normals``.

    Every draw gets the normals it would get from one (n_w, n_g) array drawn
    whole, then one (n_dense, n_g) array. A grid point of more than ``width``
    draws saves the generator's state first: the first block draws the
    whole field stream, row-major in chunks of about width² normals, and
    keeps its own columns, then draws the dense normals; each later block
    restores the saved state and draws the field stream again. The
    generator then leaves at the state after the dense normals.
    """
    if n_g <= width:
        z_w = rng.standard_normal(out=normals[: n_w * n_g].reshape(n_w, n_g))
        yield z_w, rng.standard_normal((n_dense, n_g))
        return
    start = rng.bit_generator.state
    rows = max(1, width * width // n_g)
    scratch = np.empty(rows * n_g)
    for c0 in range(0, n_g, width):
        c1 = min(c0 + width, n_g)
        if c0:
            rng.bit_generator.state = start
        z_w = normals[: n_w * (c1 - c0)].reshape(n_w, c1 - c0)
        for r0 in range(0, n_w, rows):
            r1 = min(r0 + rows, n_w)
            chunk = rng.standard_normal(out=scratch[: (r1 - r0) * n_g].reshape(r1 - r0, n_g))
            z_w[r0:r1] = chunk[:, c0:c1]
        if not c0:
            z_d = rng.standard_normal((n_dense, n_g))
            end = rng.bit_generator.state
        yield z_w, z_d[:, c0:c1]
    rng.bit_generator.state = end


def _default_theta0(spec: ModelSpec) -> np.ndarray:
    parts = []
    if spec.include_field:
        parts += [math.log(spec.pc_prior.sigma0), math.log(spec.pc_prior.rho0)]
    if spec.has_campaign_effects:
        parts.append(math.log(10.0))
    return np.array(parts)


@_one_blas_thread()
def fit(
    like: GriddedLikelihood,
    n_draws: int = 1000,
    rng: np.random.Generator | None = None,
    theta_init: np.ndarray | None = None,
    reduce: Callable[[slice, np.ndarray], None] | None = None,
) -> PosteriorDraws:
    """Fit the model and return its posterior draws, with its field draws
    reduced as they are made.

    ``theta_init`` warm-starts the hyperparameter search (log scale, in
    ``spec.hyper_names`` order); ``n_draws`` must be at least 1. Each grid
    point's draws are reduced as soon as they are solved (``_DrawReducer``):
    the fit keeps the field's mean on the grid cells and each draw's
    log-likelihood (``PosteriorDraws``). A ``reduce`` given takes the place
    of the log-likelihoods: every block of the groups' intensity draws is
    passed to it as ``reduce(draws, lam)``, ``draws`` the slice of the draws
    and ``lam`` their (groups, draws in the block) intensities, a buffer that
    the next block overwrites. A cross-validation fold integrates them over
    its subsets this way, and pays for no log-likelihood it would not read.

    Sampling's memory is the dense and theta draws, one whole-lattice factor
    at a time (each grid point's factor is freed once its draws are solved),
    one buffer of (mesh nodes, b) standard normals, which every block of b
    draws fills and solves in place, and one block of intensities. A block
    has at most bandwidth + 1 draws (``_block_width``), so its normals are
    no larger than the factor; a grid point of n_g draws is sampled in
    ceil(n_g / b) blocks, each of them one pass of the generator over the
    point's field normals (``_block_normals``), and the draws, and the
    generator's state after the fit, are those of one block per grid point.
    A field-free model samples each grid point in one block. On Linux the
    fit runs with one OpenBLAS thread (``_one_blas_thread``).

    ``diagnostics`` records the curvature sd of each theta axis
    (``axis_sd_raw``), the grid's sd after the ``AXIS_SD_CLIP`` bounds
    (``axis_sd``) and the hyperparameters whose sd the bounds changed
    (``axis_clipped``). ``factorizations`` counts the banded factors built:
    Newton's, the end blocks and those for sampling at the grid points.
    ``end_factorizations`` counts the end blocks alone, one per theta
    evaluation of a field model and 0 without a field. ``grid_weights``
    holds the normalized weights of the 3^h grid points, ``grid_counts``
    the draws made at each and ``normal_passes`` the generator's passes over
    field normals, the sum of ceil(n_g / b) over the grid points (0 without
    a field).
    """
    if n_draws < 1:
        raise ValueError(f"a fit needs at least one draw, not {n_draws}")
    if rng is None:
        rng = np.random.default_rng()
    spec = like.spec
    n_w = like.n_mesh
    explorer = _Explorer(like, np.zeros(n_w), np.zeros(spec.n_dense))
    h = len(spec.hyper_names)
    if theta_init is not None:
        theta0 = np.asarray(theta_init, dtype=float)
        steps = (0.4, 0.2, 0.1)  # trust a warm start; search locally
    else:
        theta0 = _default_theta0(spec)
        steps = (0.8, 0.4, 0.2, 0.1)
    mode = explorer.hill_climb(theta0, steps)
    raw_sd = explorer.axis_scales(mode)
    sd = np.clip(raw_sd, *AXIS_SD_CLIP)
    delta = GRID_HALF_WIDTH * sd

    # 3^h points; a model without hyperparameters has the mode as its grid
    offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=h)))
    points = [explorer.evaluate(mode.theta + off * delta) for off in offsets]
    log_w = np.array([p.log_post for p in points])
    weights = np.exp(log_w - log_w.max())
    weights /= weights.sum()

    counts = rng.multinomial(n_draws, weights)
    dense = np.empty((n_draws, spec.n_dense))
    log_hyper = np.empty((n_draws, h))
    reducer = _DrawReducer(like, n_draws, reduce)
    width = _block_width(like, n_draws)
    # every block's field normals, solved in place: one buffer for the fit
    normals = np.empty(n_w * min(int(counts.max()), width))
    pos = 0
    for g in np.flatnonzero(counts):
        point = points[g]
        n_g = int(counts[g])
        factor = explorer.factor_at(point)
        jitter = rng.uniform(-0.5, 0.5, size=(n_g, h)) * delta
        log_hyper[pos : pos + n_g] = point.theta + jitter
        for z_w, z_d in _block_normals(rng, normals, n_w, spec.n_dense, n_g, width):
            x_w, x_d = factor.sample(z_w, z_d)
            x_w += point.u_w[:, None]  # the mesh-wide field draws, in place
            d = point.u_d[:, None] + x_d
            dense[pos : pos + d.shape[1]] = d.T
            reducer.add(pos, d, x_w)
            pos += d.shape[1]
        del factor  # before the next group builds its own

    return PosteriorDraws(
        spec=spec,
        like=like,
        dense=dense,
        field_mean=reducer.field_mean(),
        loglik=reducer.loglik,
        log_hyper=log_hyper,
        theta_mode=mode.theta,
        diagnostics={
            "n_evals": explorer.n_evals,
            "newton_iters": explorer.newton_iters,
            "factorizations": explorer.factorizations,
            "end_factorizations": explorer.end_factorizations,
            "grid_points": len(points),
            "grid_weights": weights,
            "grid_counts": counts,
            "normal_passes": int(np.ceil(counts / width).sum()) if n_w else 0,
            "grid_delta": delta,
            "axis_sd": sd,
            "axis_sd_raw": raw_sd,
            "axis_clipped": [n for n, r, c in zip(spec.hyper_names, raw_sd, sd) if r != c],
        },
    )


@dataclass(frozen=True)
class FitSummary:
    """Posterior summary table: one row per effect and hyperparameter."""

    names: list[str]
    mean: np.ndarray
    sd: np.ndarray
    q05: np.ndarray
    q50: np.ndarray
    q95: np.ndarray

    def row(self, name: str) -> dict[str, float]:
        i = self.names.index(name)
        return {
            "mean": float(self.mean[i]),
            "sd": float(self.sd[i]),
            "q05": float(self.q05[i]),
            "q50": float(self.q50[i]),
            "q95": float(self.q95[i]),
        }

    def interval(self, name: str) -> tuple[float, float]:
        """Central 90% credible interval."""
        i = self.names.index(name)
        return float(self.q05[i]), float(self.q95[i])

    def __str__(self) -> str:
        header = f"{'effect':<16}{'mean':>10}{'sd':>10}{'q05':>10}{'q50':>10}{'q95':>10}"
        lines = [header]
        for i, name in enumerate(self.names):
            lines.append(
                f"{name:<16}{self.mean[i]:>10.4f}{self.sd[i]:>10.4f}"
                f"{self.q05[i]:>10.4f}{self.q50[i]:>10.4f}{self.q95[i]:>10.4f}"
            )
        return "\n".join(lines)


def summarize(draws: PosteriorDraws) -> FitSummary:
    """Means, sds and 5/50/95% quantiles of all effects and hyperparameters.

    Hyperparameters are reported on their natural scales (sigma, rho, tau).
    """
    mat = np.column_stack([draws.dense, np.exp(draws.log_hyper)])
    q = np.quantile(mat, [0.05, 0.5, 0.95], axis=0)
    return FitSummary(
        names=draws.spec.row_names,
        mean=mat.mean(axis=0),
        sd=mat.std(axis=0, ddof=1),
        q05=q[0],
        q50=q[1],
        q95=q[2],
    )


@dataclass(frozen=True)
class DicResult:
    dbar: float
    d_hat: float
    p_d: float
    dic: float


def compute_dic(like: GriddedLikelihood, draws: PosteriorDraws) -> DicResult:
    """Deviance information criterion of a fit to ``like``.

    Deviance is -2 times the Poisson count log-likelihood (constants
    included); the effective parameter count is mean deviance minus the
    deviance at the posterior-mean effects. The mean deviance is read from
    the log-likelihood of every draw, which the fit reduced as it sampled
    (``PosteriorDraws.loglik``). The log-intensity is linear in the effects,
    so the plug-in deviance takes the eta of the mean effects, which equals
    the mean of the eta draws up to rounding. Both run over the likelihood's
    groups, with their count totals and exposures. A ``ValueError`` is
    raised when ``like``'s count totals, exposures or group count differ
    from those of the likelihood the draws were fitted to (a fold's recount,
    ``GriddedLikelihood.with_counts``, is another likelihood), or when the
    draws kept no log-likelihoods (a fit given its own ``reduce``).
    """
    if draws.loglik is None:
        raise ValueError("the DIC needs the draws' log-likelihoods, which a fit given "
                         "its own reduction does not keep")
    fitted = draws.like
    if like is not fitted and not (
        np.array_equal(like.y, fitted.y) and np.array_equal(like.exposure, fitted.exposure)
    ):
        raise ValueError(
            "the DIC needs the likelihood that the draws were fitted to: its "
            f"{like.y.size} groups' count totals or exposures differ from those of "
            f"the fit's {fitted.y.size}"
        )
    mean = draws.mean_effects()
    d_hat = -2.0 * like.loglik(like.groups.eta(mean.dense, mean.w), with_const=True)
    dbar = -2.0 * (float(np.mean(draws.loglik)) + like.loglik_const)
    p_d = dbar - d_hat
    return DicResult(dbar=dbar, d_hat=d_hat, p_d=p_d, dic=dbar + p_d)
