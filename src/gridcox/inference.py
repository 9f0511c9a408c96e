"""Laplace-approximation fitting of the gridded Cox-process likelihood.

The point pattern is reduced to cell counts; conditional on the latent
effects the counts are independent Poissons with mean alpha_q lambda(s_q)
(midpoint quadrature, Berman-Turner style), so the log-likelihood is
sum over campaigns and cells of N_q log(alpha_q lambda) - alpha_q lambda.

Fitting splits the latent vector u into the field block w (large, banded
precision) and the dense block d (small), laid out as
``ModelSpec.dense_columns``: intercept, covariates, gamma, mu_t. For a
fixed hyperparameter point theta the posterior mode of u is found by Newton
with step-halving; because the Poisson Hessian contributes only a diagonal to
the w block, each step factors an arrowhead matrix (banded + dense border)
instead of a general sparse one. The hyperparameters are then integrated over
a small axis-aligned grid around their posterior mode, spaced so the three
points per axis straddle roughly the central 90% of the Gaussian profile;
posterior draws pick a grid point by weight, add within-cell jitter on theta,
and draw the latent vector from the Gaussian approximation at that point.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

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


class FitError(RuntimeError):
    pass


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    return shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * math.log(x) - rate * x


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
    """Cell counts of every campaign on the stacked cell design, one Poisson model.

    ``design`` stacks the cells of all campaign domains (see ``CellDesign``)
    and computes their log-intensities; ``y`` holds the count of each of its
    rows. Every row has the same quadrature weight alpha = ``design.weight``
    (the cell area), so the Poisson mean of a row is alpha * exp(eta).
    """

    spec: ModelSpec
    mesh: LatticeMesh | None
    design: CellDesign
    y: np.ndarray

    @property
    def n_mesh(self) -> int:
        return self.mesh.n if (self.mesh is not None and self.spec.include_field) else 0

    @property
    def n_dense(self) -> int:
        return self.spec.n_dense

    @property
    def loglik_const(self) -> float:
        """Terms of the log-likelihood free of eta: sum y log alpha - log y!."""
        return float(self.y.sum() * math.log(self.design.weight) - gammaln(self.y + 1.0).sum())

    def poisson_mean(self, eta: np.ndarray) -> np.ndarray:
        """Expected count of every row at log-intensities ``eta``."""
        return self.design.weight * np.exp(eta)

    def loglik(self, eta: np.ndarray, with_const: bool = False) -> float:
        """Poisson count log-likelihood at stacked log-intensities ``eta``;
        ``with_const`` adds the eta-free ``loglik_const``."""
        total = float(self.y @ eta - self.poisson_mean(eta).sum())
        return total + self.loglik_const if with_const else total


def bin_points(
    spec: ModelSpec,
    stack: CovariateStack,
    campaign_domains: dict[int, DomainMask],
    points: PointPattern,
    mesh: LatticeMesh | None = None,
) -> GriddedLikelihood:
    """Reduce a point pattern to cell counts on the stacked cell design.

    Every point must fall in a cell of its campaign's domain; stray points
    (campaign label outside 1..T, outside the grid, on an unclassified cell,
    or in the wrong sub-domain) are a hard error rather than silently dropped.
    """
    design = build_design(spec, stack, campaign_domains, mesh)
    n_t = spec.n_campaigns
    unlabelled = int(np.sum((points.campaign < 1) | (points.campaign > n_t)))
    if unlabelled:
        raise ValueError(f"{unlabelled} points have a campaign label outside 1..{n_t}")
    grid = stack.grid
    y = np.empty(design.n_cells)
    for t, rows in design.rows.items():
        pts = points.for_campaign(t)
        cells = grid.cell_of_points(pts.x, pts.y)
        ids = design.cell_ids[rows]
        node_of = np.full(grid.n_cells, -1, dtype=int)
        node_of[ids] = np.arange(ids.size)
        node = np.where(cells >= 0, node_of[cells], -1)
        stray = int(np.sum(node < 0))
        if stray:
            raise ValueError(
                f"campaign {t}: {stray} points fall outside the campaign domain"
            )
        y[rows] = np.bincount(node, minlength=ids.size)
    return GriddedLikelihood(
        spec=spec,
        mesh=mesh if spec.include_field else None,
        design=design,
        y=y,
    )


# ---------------------------------------------------------------------------
# Inner problem: latent mode for one hyperparameter point
# ---------------------------------------------------------------------------


class _DenseFactor:
    """Dense-only stand-in for the arrowhead factor (field-free models)."""

    def __init__(self, s_dense: np.ndarray):
        try:
            self.ls = np.linalg.cholesky(s_dense)
        except np.linalg.LinAlgError as err:
            raise FitError(f"non-positive-definite Hessian: {err}") from None

    @property
    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.ls))))

    def solve(self, b_w, b_d):
        y = np.linalg.solve(self.ls, b_d)
        return np.zeros(0), np.linalg.solve(self.ls.T, y)

    def sample(self, z_w, z_d):
        return z_w, np.linalg.solve(self.ls.T, z_d)


class _Inner:
    """Poisson likelihood plus Gaussian prior for one (sigma, rho, tau)."""

    def __init__(self, like: GriddedLikelihood, prec: SparsePrecision | None, tau: float | None):
        self.like = like
        self.design = like.design
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

    def prior_quad(self, u_w: np.ndarray, u_d: np.ndarray) -> float:
        quad = float(np.dot(self.dense_prior * u_d, u_d))
        if self.n_w:
            quad += self.prec.quadform(u_w)
        return quad

    def objective(self, u_w: np.ndarray, u_d: np.ndarray) -> float:
        return self.like.loglik(self.design.eta(u_d, u_w)) - 0.5 * self.prior_quad(u_w, u_d)

    def gradient(self, u_w: np.ndarray, u_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        like, design = self.like, self.design
        resid = like.y - like.poisson_mean(design.eta(u_d, u_w))
        g_d = design.x.T @ resid - self.dense_prior * u_d
        g_w = np.zeros(0)
        if self.n_w:
            g_w = np.bincount(design.mesh_index, weights=resid, minlength=self.n_w)
            g_w -= self.prec.matvec(u_w)
        return g_w, g_d

    def _hessian_factor(self, u_w: np.ndarray, u_d: np.ndarray):
        """Factor of the negated Hessian (prior precision + Poisson weights)."""
        self.n_factors += 1
        x, idx = self.design.x, self.design.mesh_index
        w = self.like.poisson_mean(self.design.eta(u_d, u_w))
        s = np.diag(self.dense_prior) + (x * w[:, None]).T @ x
        if not self.n_w:
            return _DenseFactor(s)
        b = np.column_stack(
            [np.bincount(idx, weights=w * x[:, j], minlength=self.n_w) for j in range(self.m)]
        )
        ab = self.prec.ab
        ab[0] += np.bincount(idx, weights=w, minlength=self.n_w)
        try:
            return _banded.ArrowFactor(ab, b, s)
        except np.linalg.LinAlgError as err:
            raise FitError(f"non-positive-definite Hessian: {err}") from None

    def newton(self, u_w: np.ndarray, u_d: np.ndarray):
        """Mode of the latent posterior; returns (u_w, u_d, factor, n_iter)."""
        u_w, u_d = u_w.copy(), u_d.copy()
        obj = self.objective(u_w, u_d)
        factor = None
        for it in range(NEWTON_MAX_ITER + 1):
            g_w, g_d = self.gradient(u_w, u_d)
            gnorm = float(np.max(np.abs(np.concatenate([g_w, g_d])), initial=0.0))
            if gnorm < NEWTON_GRAD_TOL:
                # the factor of the previous step, except after the last one
                if factor is None or it == NEWTON_MAX_ITER:
                    factor = self._hessian_factor(u_w, u_d)
                return u_w, u_d, factor, it
            if it == NEWTON_MAX_ITER:
                raise FitError(
                    f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                    f"(gradient max-norm {gnorm:.3e})"
                )
            factor = self._hessian_factor(u_w, u_d)
            step_w, step_d = factor.solve(g_w, g_d)
            scale = 1.0
            # accept any move within summation noise of the current value:
            # near the mode a full step gains less than the noise floor
            noise = 1e-9 * (1.0 + abs(obj))
            for _ in range(40):
                new_w = u_w + scale * step_w
                new_d = u_d + scale * step_d
                # an overflowing exp scores -inf, and the halving rejects it
                with np.errstate(over="ignore"):
                    new_obj = self.objective(new_w, new_d)
                if new_obj > obj - noise:
                    break
                scale *= 0.5
            else:
                raise FitError(
                    f"Newton line search failed at iteration {it + 1} "
                    f"(gradient max-norm {gnorm:.3e})"
                )
            u_w, u_d, obj = new_w, new_d, new_obj


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
    """Inner Laplace objective and its analytic gradient at (u_w, u_d).

    The objective is the Poisson log-likelihood plus the Gaussian prior
    kernel; the gradient is returned as one concatenated vector. Exposed for
    derivative checking.
    """
    inner = _inner_at(like, hyper, tau)
    obj = inner.objective(u_w, u_d)
    g_w, g_d = inner.gradient(u_w, u_d)
    return obj, np.concatenate([g_w, g_d])


# ---------------------------------------------------------------------------
# Hyperparameter exploration
# ---------------------------------------------------------------------------


@dataclass
class _ThetaPoint:
    theta: np.ndarray
    log_post: float
    u_w: np.ndarray
    u_d: np.ndarray
    n_iter: int


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
        u_w, u_d, factor, iters = inner.newton(self.warm_w, self.warm_d)
        self.newton_iters += iters
        self.factorizations += inner.n_factors
        # Laplace: loglik + prior kernel + 0.5 logdet Q_prior - 0.5 logdet H
        logdet_prior = float(np.sum(np.log(inner.dense_prior)))
        if self.spec.include_field:
            logdet_prior += inner.prec.logdet
        lp = (
            self.like.loglik(self.like.design.eta(u_d, u_w), with_const=True)
            - 0.5 * inner.prior_quad(u_w, u_d)
            + 0.5 * logdet_prior
            - 0.5 * factor.logdet
            + self._log_hyper_prior(theta)
        )
        point = _ThetaPoint(theta=theta.copy(), log_post=lp, u_w=u_w, u_d=u_d, n_iter=iters)
        self.cache[key] = point
        self.warm_w, self.warm_d = u_w, u_d
        return point

    def factor_at(self, point: _ThetaPoint):
        """Rebuild the Gaussian approximation's factor at a cached mode."""
        inner = _inner_at(self.like, *self._unpack(point.theta))
        self.factorizations += 1
        return inner._hessian_factor(point.u_w, point.u_d)

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
    """A posterior draws of the hyperparameters and all latent effects.

    ``dense`` is (A, n_dense), one column per entry of the column table
    ``spec.dense_columns``; ``effect_draws`` reads one by name. ``w`` is
    (A, mesh.n) (zero columns for field-free models); ``log_hyper`` is
    (A, n_hyper) in ``spec.hyper_names`` order.
    """

    spec: ModelSpec
    mesh: LatticeMesh | None
    dense: np.ndarray
    w: np.ndarray
    log_hyper: np.ndarray
    theta_mode: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_draws(self) -> int:
        return self.dense.shape[0]

    def effect_draws(self, name: str) -> np.ndarray:
        """Draws of one dense effect or (natural-scale) hyperparameter."""
        if name in self.spec.dense_names:
            return self.dense[:, self.spec.dense_names.index(name)]
        hypers = self.spec.hyper_names
        if f"log_{name}" in hypers:
            return np.exp(self.log_hyper[:, hypers.index(f"log_{name}")])
        raise KeyError(f"unknown effect {name!r}")

    def mean_effects(self) -> EffectVector:
        w = self.w.mean(axis=0) if self.spec.include_field else np.zeros(0)
        return EffectVector(dense=self.dense.mean(axis=0), w=w)


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
) -> PosteriorDraws:
    """Fit the model and return posterior draws.

    ``theta_init`` warm-starts the hyperparameter search (log scale, in
    ``spec.hyper_names`` order). On Linux the fit runs with one OpenBLAS
    thread (``_one_blas_thread``).

    ``diagnostics`` records the curvature sd of each theta axis
    (``axis_sd_raw``), the grid's sd after the ``AXIS_SD_CLIP`` bounds
    (``axis_sd``) and the hyperparameters whose sd the bounds changed
    (``axis_clipped``). ``factorizations`` counts the Hessian factors built,
    by Newton and for sampling at the grid points.
    """
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
    w_draws = np.empty((n_draws, n_w))
    log_hyper = np.empty((n_draws, h))
    pos = 0
    for g in np.flatnonzero(counts):
        point = points[g]
        n_g = int(counts[g])
        factor = explorer.factor_at(point)
        jitter = rng.uniform(-0.5, 0.5, size=(n_g, h)) * delta
        log_hyper[pos : pos + n_g] = point.theta + jitter
        z_w = rng.standard_normal((n_w, n_g))
        z_d = rng.standard_normal((spec.n_dense, n_g))
        x_w, x_d = factor.sample(z_w, z_d)
        w_draws[pos : pos + n_g] = (point.u_w[:, None] + x_w).T
        dense[pos : pos + n_g] = (point.u_d[:, None] + x_d).T
        pos += n_g

    return PosteriorDraws(
        spec=spec,
        mesh=like.mesh,
        dense=dense,
        w=w_draws,
        log_hyper=log_hyper,
        theta_mode=mode.theta,
        diagnostics={
            "n_evals": explorer.n_evals,
            "newton_iters": explorer.newton_iters,
            "factorizations": explorer.factorizations,
            "grid_points": len(points),
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
    """Deviance information criterion from posterior draws.

    Deviance is -2 times the Poisson count log-likelihood (constants
    included); the effective parameter count is mean deviance minus the
    deviance at the posterior-mean effects. The log-intensity is linear in
    the effects, so the plug-in deviance uses the mean of the eta draws.
    """
    eta = like.design.eta(draws.dense, draws.w)  # (A, N)
    d_hat = -2.0 * like.loglik(eta.mean(axis=0), with_const=True)
    dot_y = eta @ like.y
    # the intensities overwrite the eta buffer: no second (A, N) array
    np.exp(eta, out=eta)
    expected = like.design.weight * eta.sum(axis=1)  # total Poisson mean per draw
    dbar = -2.0 * (float(np.mean(dot_y - expected)) + like.loglik_const)
    p_d = dbar - d_hat
    return DicResult(dbar=dbar, d_hat=d_hat, p_d=p_d, dic=dbar + p_d)
