"""Matern (nu = 1) Gaussian Markov random field on a raster lattice.

The field is discretized on the raster's own grid, extended by a halo of
extra cells so the artificial mesh boundary sits far from the data. With
kappa = sqrt(8) / rho the precision is

    Q = (J(kappa) / sigma^2) * (kappa^2 m I + G)^2,    m = dx * dy,

where G is the lattice stiffness matrix (horizontal edge weight dy/dx,
vertical dx/dy) and J(kappa) the infinite-lattice variance of the unscaled
field, computed from its spectral density. Dividing by J makes sigma the
exact stationary marginal standard deviation, not an approximation, so the
usual boundary/continuum corrections are unnecessary away from the halo.

Q is a stencil: its non-zero upper diagonals (offsets 0, 1, 2, C - 1, C,
C + 1, 2C on a lattice of C columns) combine the same diagonals of I, G and
G @ G, and products with Q run on them. The 2-D DCT-II diagonalizes G
(Strang, SIAM Rev. 1999), so log det Q has a closed form. The full banded
layout is built only where a Cholesky needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad

from . import _banded
from .geodata import RasterGrid

__all__ = [
    "MaternHyper",
    "PcPriorSpec",
    "LatticeMesh",
    "SparsePrecision",
    "lattice_variance_factor",
    "build_precision",
    "sample_field",
]


@dataclass(frozen=True)
class MaternHyper:
    """Marginal standard deviation and practical range (meters) of the field."""

    sigma: float
    rho: float

    def __post_init__(self):
        if self.sigma <= 0 or self.rho <= 0:
            raise ValueError("sigma and rho must be positive")

    @property
    def kappa(self) -> float:
        # practical range: correlation ~ 0.14 at distance rho for nu = 1
        return math.sqrt(8.0) / self.rho


@dataclass(frozen=True)
class PcPriorSpec:
    """Penalized-complexity prior for (rho, sigma).

    Calibrated by two tail statements: P(rho < rho0) = p_rho and
    P(sigma > sigma0) = p_sigma. For a two-dimensional domain the range
    density is lam_rho * rho^-2 * exp(-lam_rho / rho) and the sd density is
    exponential with rate lam_sigma.
    """

    rho0: float
    p_rho: float
    sigma0: float
    p_sigma: float

    def __post_init__(self):
        if not (0 < self.p_rho < 1 and 0 < self.p_sigma < 1):
            raise ValueError("tail probabilities must lie in (0, 1)")
        if self.rho0 <= 0 or self.sigma0 <= 0:
            raise ValueError("rho0 and sigma0 must be positive")

    @property
    def lam_rho(self) -> float:
        return -math.log(self.p_rho) * self.rho0

    @property
    def lam_sigma(self) -> float:
        return -math.log(self.p_sigma) / self.sigma0

    def logdensity(self, sigma: float, rho: float) -> float:
        if sigma <= 0 or rho <= 0:
            return -np.inf
        lr, ls = self.lam_rho, self.lam_sigma
        log_rho = math.log(lr) - 2.0 * math.log(rho) - lr / rho
        log_sigma = math.log(ls) - ls * sigma
        return log_rho + log_sigma

    def rho_cdf(self, rho: float) -> float:
        """P(range < rho)."""
        return math.exp(-self.lam_rho / rho) if rho > 0 else 0.0

    def sigma_tail(self, sigma: float) -> float:
        """P(sd > sigma)."""
        return math.exp(-self.lam_sigma * sigma)


def lattice_variance_factor(kappa: float, dx: float, dy: float) -> float:
    """Stationary marginal variance of the field with precision (kappa^2 m I + G)^2.

    The spectral density on the infinite lattice is 1 / s(w)^2 with
    s(w) = kappa^2 dx dy + 2 (dy/dx)(1 - cos w1) + 2 (dx/dy)(1 - cos w2);
    the inner integral over w1 has the closed form c / (c^2 - 4 a^2)^{3/2}
    with a = dy/dx and c = s evaluated at cos w1 = 0 plus the 2a term, and the
    outer integral is done numerically.
    """
    a = dy / dx
    b = dx / dy
    base = kappa * kappa * dx * dy + 2.0 * a

    def outer(w2: float) -> float:
        c = base + 2.0 * b * (1.0 - math.cos(w2))
        return c / (c * c - 4.0 * a * a) ** 1.5

    val, _ = quad(outer, -math.pi, math.pi, points=[0.0], limit=200)
    return val / (2.0 * math.pi)


class LatticeMesh:
    """Raster grid plus a halo of padding cells; owns the stencil templates."""

    def __init__(self, grid_rows: int, grid_cols: int, dx: float, dy: float, halo: int):
        if halo < 1:
            raise ValueError("halo must be at least one cell")
        self.grid_rows = grid_rows
        self.grid_cols = grid_cols
        self.dx = dx
        self.dy = dy
        self.halo = halo
        self.rows = grid_rows + 2 * halo
        self.cols = grid_cols + 2 * halo
        self.n = self.rows * self.cols
        self.bandwidth = 2 * self.cols

    @classmethod
    def for_grid(cls, grid: RasterGrid, rho_ref: float, halo: int | None = None) -> "LatticeMesh":
        """Mesh for a raster; the halo defaults to one reference range of cells."""
        if halo is None:
            cell = min(grid.cell_dx, grid.cell_dy)
            halo = max(2, math.ceil(rho_ref / cell))
        return cls(grid.n_rows, grid.n_cols, grid.cell_dx, grid.cell_dy, halo)

    @cached_property
    def grid_to_mesh(self) -> np.ndarray:
        """Mesh index of each flat grid cell id."""
        r = np.arange(self.grid_rows) + self.halo
        c = np.arange(self.grid_cols) + self.halo
        return (r[:, None] * self.cols + c[None, :]).ravel()

    @cached_property
    def _stiffness(self) -> sp.csr_matrix:
        """G = a (I_R kron L_C) + b (L_R kron I_C), with L_k the path Laplacian
        on k nodes and edge weights a = dy/dx (horizontal), b = dx/dy (vertical)."""

        def path(k: int) -> sp.dia_matrix:
            deg = np.full(k, 2.0)
            deg[[0, -1]] = 1.0
            return sp.diags([-1.0, deg, -1.0], [-1, 0, 1], shape=(k, k))

        a, b = self.dy / self.dx, self.dx / self.dy
        g = a * sp.kron(sp.identity(self.rows), path(self.cols))
        return (g + b * sp.kron(path(self.rows), sp.identity(self.cols))).tocsr()

    @cached_property
    def offsets(self) -> np.ndarray:
        """Offsets of the non-zero upper diagonals of G @ G, ascending."""
        c = self.cols
        return np.unique([0, 1, 2, c - 1, c, c + 1, 2 * c])

    @cached_property
    def templates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, G, G @ G) as their upper diagonals at ``offsets``: row i of each
        holds the diagonal at offset k = offsets[i], entry A[j - k, j] in column j."""
        g = self._stiffness
        mats = (sp.identity(self.n, format="csr"), g, g @ g)
        return tuple(np.array([np.pad(a.diagonal(k), (k, 0)) for k in self.offsets]) for a in mats)

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of G, 2a(1 - cos(pi j / C)) + 2b(1 - cos(pi k / R)) for
        j < C, k < R, edge weights a = dy/dx and b = dx/dy (DCT-II basis)."""
        a, b = self.dy / self.dx, self.dx / self.dy
        lam_c = 2.0 * a * (1.0 - np.cos(np.pi * np.arange(self.cols) / self.cols))
        lam_r = 2.0 * b * (1.0 - np.cos(np.pi * np.arange(self.rows) / self.rows))
        return np.add.outer(lam_r, lam_c).ravel()


@dataclass
class SparsePrecision:
    """Precision Q of the field on a mesh: ``diags`` holds its non-zero upper
    diagonals in the layout of ``LatticeMesh.templates``; ``logdet`` is log det Q."""

    mesh: LatticeMesh
    diags: np.ndarray
    logdet: float

    @property
    def n(self) -> int:
        return self.mesh.n

    @property
    def ab(self) -> np.ndarray:
        """Q in full upper-banded storage (bandwidth 2C), as a new column-major
        array, the order LAPACK reads: ``_banded.BandedChol`` factors it in place."""
        bw = self.mesh.bandwidth
        ab = np.zeros((bw + 1, self.n), order="F")
        ab[bw - self.mesh.offsets] = self.diags
        return ab

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Q @ x, one pass over each non-zero diagonal."""
        y = self.diags[0] * x
        for k, d in zip(self.mesh.offsets[1:], self.diags[1:]):
            y[:-k] += d[k:] * x[k:]
            y[k:] += d[k:] * x[:-k]
        return y

    def quadform(self, x: np.ndarray) -> float:
        """x.T @ Q @ x."""
        return float(np.dot(x, self.matvec(x)))

    def dense_covariance(self) -> np.ndarray:
        """Full inverse; for small meshes (tests, diagnostics) only."""
        if self.n > 5000:
            raise ValueError("dense covariance requested for a large mesh")
        return np.linalg.inv([self.matvec(e) for e in np.eye(self.n)])


def build_precision(mesh: LatticeMesh, hyper: MaternHyper) -> SparsePrecision:
    """Assemble Q(sigma, rho) from the mesh templates."""
    ib, gb, g2b = mesh.templates
    kap2m = hyper.kappa**2 * mesh.dx * mesh.dy
    scale = lattice_variance_factor(hyper.kappa, mesh.dx, mesh.dy) / hyper.sigma**2
    diags = scale * (kap2m**2 * ib + (2.0 * kap2m) * gb + g2b)
    # Q = scale (kap2m I + G)^2 shares G's eigenvectors
    logdet = mesh.n * math.log(scale) + 2.0 * float(np.sum(np.log(kap2m + mesh.spectrum)))
    return SparsePrecision(mesh=mesh, diags=diags, logdet=logdet)


def sample_field(
    prec: SparsePrecision, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw zero-mean fields on the mesh; shape (n_draws, mesh.n)."""
    factor = _banded.BandedChol(prec.ab)
    z = rng.standard_normal((prec.n, n_draws))
    # the level-2 solve, not ArrowFactor's blockwise one: simulated surveys
    # are built from these draws and keep their rounding
    draws = factor.solve_r(z)
    return np.ascontiguousarray(draws.T)
