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

Q is a polynomial in banded templates (I, G, G @ G), so rebuilding it for a
new (sigma, rho) is a cheap linear combination.
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
    """Raster grid plus a halo of padding cells; owns the banded templates."""

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
        a = self.dy / self.dx  # horizontal edge weight
        b = self.dx / self.dy  # vertical edge weight
        rows, cols, n = self.rows, self.cols, self.n
        idx = np.arange(n)
        right = idx[(idx % cols) != cols - 1]
        up = idx[: n - cols]
        i = np.concatenate([right, up])
        j = np.concatenate([right + 1, up + cols])
        w = np.concatenate([np.full(right.size, a), np.full(up.size, b)])
        off = sp.coo_matrix((w, (i, j)), shape=(n, n))
        off = off + off.T
        deg = np.asarray(off.sum(axis=1)).ravel()
        return (sp.diags(deg) - off).tocsr()

    @cached_property
    def templates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(I, G, G @ G) in upper-banded storage at the full bandwidth."""
        g = self._stiffness
        bw = self.bandwidth
        ib = _banded.eye_banded(self.n, bw)
        gb = _banded.from_sparse(g, bw)
        g2b = _banded.from_sparse((g @ g).tocsr(), bw)
        return ib, gb, g2b


@dataclass
class SparsePrecision:
    """Banded precision matrix of the field on a mesh, for one hyper setting."""

    mesh: LatticeMesh
    hyper: MaternHyper
    ab: np.ndarray

    @property
    def n(self) -> int:
        return self.mesh.n

    def dense_covariance(self) -> np.ndarray:
        """Full inverse; for small meshes (tests, diagnostics) only."""
        if self.n > 5000:
            raise ValueError("dense covariance requested for a large mesh")
        dense = np.zeros((self.n, self.n))
        bw = self.ab.shape[0] - 1
        for k in range(bw + 1):
            d = self.ab[bw - k, k:]
            dense += np.diag(d, k)
            if k:
                dense += np.diag(d, -k)
        return np.linalg.inv(dense)


def build_precision(mesh: LatticeMesh, hyper: MaternHyper) -> SparsePrecision:
    """Assemble Q(sigma, rho) from the mesh templates."""
    ib, gb, g2b = mesh.templates
    kap2m = hyper.kappa**2 * mesh.dx * mesh.dy
    scale = lattice_variance_factor(hyper.kappa, mesh.dx, mesh.dy) / hyper.sigma**2
    ab = scale * (kap2m**2 * ib + (2.0 * kap2m) * gb + g2b)
    return SparsePrecision(mesh=mesh, hyper=hyper, ab=ab)


def sample_field(
    prec: SparsePrecision, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw zero-mean fields on the mesh; shape (n_draws, mesh.n)."""
    factor = _banded.BandedChol(prec.ab)
    z = rng.standard_normal((prec.n, n_draws))
    draws = factor.solve_r(z)
    return np.ascontiguousarray(draws.T)
