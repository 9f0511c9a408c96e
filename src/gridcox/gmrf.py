"""Matern (nu = 1) Gaussian Markov random field on a raster lattice.

The field lives on the raster's grid plus a halo of cells that keeps the mesh
boundary far from the data. With kappa = sqrt(8) / rho its precision is

    Q = (J(kappa) / sigma^2) * (kappa^2 m I + G)^2,    m = dx * dy,

G the lattice stiffness matrix (edge weight a = dy/dx across columns, b =
dx/dy across rows) and J(kappa) the unscaled field's variance on the infinite
lattice, so that sigma is the exact stationary marginal sd.

Q is a stencil: products with it run on the diagonals of G and G @ G, plus
the constant kappa^4 m^2 on the main diagonal.
With node j at (r, c) on R x C nodes, deg_c and deg_r 1 on the mesh edge and
2 inside, and d = a deg_c + b deg_r, entry (j, j + k) is zero where the step
k stands for leaves the mesh, and otherwise

    G      k = 0: d;  1: -a;  C: -b
    G @ G  k = 0: d^2 + a^2 deg_c + b^2 deg_r;  1: -a (d_j + d_{j+1});
           2: a^2;  C - 1, C + 1: 2ab;  C: -b (d_j + d_{j+C});  2C: b^2

DCT-II diagonalizes G (Strang, SIAM Rev. 1999): log det Q has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def _ellipe(m: float) -> float:
    """Complete elliptic integral of the second kind E(m), parameter m in
    [0, 1], by the arithmetic-geometric mean (DLMF 19.8.5-6): with a_0 = 1,
    g_0 = sqrt(1 - m), c_0^2 = m and c_{n+1} = (a_n - g_n) / 2,
    E = pi / (2 M(1, g_0)) (1 - sum_n 2^(n-1) c_n^2). E(1) = 1."""
    if m == 1.0:
        return 1.0
    a, g = 1.0, math.sqrt(1.0 - m)
    total, power = 0.5 * m, 0.5
    while a - g > 1e-15 * a:  # quadratic: the next c_n^2 is below 1e-30
        c = 0.5 * (a - g)
        a, g = 0.5 * (a + g), math.sqrt(a * g)
        power *= 2.0
        total += power * c * c
    return math.pi / (2.0 * a) * (1.0 - total)


def lattice_variance_factor(kappa: float, dx: float, dy: float) -> float:
    """Stationary marginal variance of the field with precision (kappa^2 m I + G)^2,

        J = 2p E(16/D) / (pi g (g + 4(a + b)) sqrt(D)),

    g = kappa^2 dx dy, p = g + 2(a + b), D = p^2 - 4(a - b)^2 = 16 + g (g + 4(a + b))
    (ab = 1; this form does not cancel as kappa -> 0), E the complete elliptic
    integral of the second kind, parameter m (``_ellipe``). J is the mean of 1 / s(w)^2,
    s = p - 2a cos w1 - 2b cos w2: over w1 it is -d/dp of (c^2 - 4a^2)^(-1/2),
    c = p - 2b cos w2, whose mean over w2 is 2K(16/D) / (pi sqrt(D))
    (Gradshteyn & Ryzhik 3.152); dK/dm turns the p-derivative into E.
    """
    a, b, g = dy / dx, dx / dy, kappa * kappa * dx * dy
    p = g + 2.0 * (a + b)
    d = p * p - 4.0 * (a - b) ** 2
    return 2.0 * p * _ellipe(16.0 / d) / (math.pi * g * (g + 4.0 * (a + b)) * math.sqrt(d))


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

    def grid_view(self, a: np.ndarray) -> np.ndarray:
        """The grid cells' entries of ``a``, whose first axis runs over the mesh
        nodes, as a (grid_rows, grid_cols, ...) view: the mesh read as rows x
        cols, less the halo. Flattened over its first two axes it is
        ``a[grid_to_mesh]``, without the copy."""
        h = self.halo
        lattice = a.reshape(self.rows, self.cols, *a.shape[1:])
        return lattice[h : h + self.grid_rows, h : h + self.grid_cols]

    @cached_property
    def offsets(self) -> np.ndarray:
        """Offsets k >= 0 of the non-zero diagonals of G @ G, ascending."""
        c = self.cols
        return np.unique([0, 1, 2, c - 1, c, c + 1, 2 * c])

    @cached_property
    def templates(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, G @ G) as their diagonals at ``offsets``, in the rows of lower
        band storage: row i of each holds the diagonal at offset k = offsets[i],
        entry A[j + k, j] in column j < n - k, and zeros in the last k columns."""
        cols, a, b = self.cols, self.dy / self.dx, self.dx / self.dy
        r, c = np.divmod(np.arange(self.n), cols)
        deg_c, deg_r = 2.0 - (c == 0) - (c == cols - 1), 2.0 - (r == 0) - (r == self.rows - 1)
        d = a * deg_c + b * deg_r
        right, down = c < cols - 1, r < self.rows - 1  # nodes j + 1, j + C exist
        g, g2 = np.zeros((2, len(self.offsets), self.n))
        for k, where, g_k, g2_k in (
            (0, True, d, d * d + a * a * deg_c + b * b * deg_r),
            (1, right, -a, -a * (d + np.roll(d, -1))),
            (2, c < cols - 2, 0.0, a * a),
            (cols - 1, down & (c > 0), 0.0, 2.0 * a * b),
            (cols, down, -b, -b * (d + np.roll(d, -cols))),
            (cols + 1, down & right, 0.0, 2.0 * a * b),
            (2 * cols, r < self.rows - 2, 0.0, b * b),
        ):
            i = np.searchsorted(self.offsets, k)  # 2 and C - 1 coincide at C = 3: add
            g[i] += np.where(where, g_k, 0.0)
            g2[i] += np.where(where, g2_k, 0.0)
        return g, g2

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
    """Precision Q of the field on a mesh: ``diags`` holds its non-zero
    diagonals in the layout of ``LatticeMesh.templates``; ``logdet`` is log det Q."""

    mesh: LatticeMesh
    diags: np.ndarray
    logdet: float

    @property
    def n(self) -> int:
        return self.mesh.n

    @property
    def ab(self) -> np.ndarray:
        """Q in full lower-banded storage (bandwidth 2C, ``ab[i - j, j] = Q[i, j]``,
        diagonal in row 0), as a new column-major array, the order LAPACK reads:
        ``_banded.BandedChol`` factors it in place."""
        return self.band(0, self.n)

    def band(self, start: int, stop: int, reverse: bool = False) -> np.ndarray:
        """The principal block Q[start:stop, start:stop] in the layout of ``ab``,
        its nodes in reverse order when ``reverse``. ``diags`` already has the
        rows' layout: row k = offsets[i] of the band is ``diags[i]`` on the
        range (read backwards when reversed)."""
        size = stop - start
        ab = np.zeros((self.mesh.bandwidth + 1, size), order="F")
        for k, d in zip(self.mesh.offsets, self.diags):
            if k < size:
                seg = d[start : stop - k]
                ab[k, : size - k] = seg[::-1] if reverse else seg
        return ab

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Q @ x, one pass over each non-zero diagonal."""
        y = self.diags[0] * x
        for k, d in zip(self.mesh.offsets[1:], self.diags[1:]):
            y[:-k] += d[:-k] * x[k:]
            y[k:] += d[:-k] * x[:-k]
        return y

    def quadform(self, x: np.ndarray) -> float:
        """x.T @ Q @ x."""
        return float(np.dot(x, self.matvec(x)))


def build_precision(mesh: LatticeMesh, hyper: MaternHyper) -> SparsePrecision:
    """Assemble Q(sigma, rho) from the mesh templates."""
    gb, g2b = mesh.templates
    kap2m = hyper.kappa**2 * mesh.dx * mesh.dy
    scale = lattice_variance_factor(hyper.kappa, mesh.dx, mesh.dy) / hyper.sigma**2
    # scale (kap2m^2 I + 2 kap2m G + G @ G), I only on the main diagonal
    diags = (2.0 * kap2m) * gb
    diags[0] += kap2m**2
    diags += g2b
    diags *= scale
    # Q = scale (kap2m I + G)^2 shares G's eigenvectors
    logdet = mesh.n * math.log(scale) + 2.0 * float(np.sum(np.log(kap2m + mesh.spectrum)))
    return SparsePrecision(mesh=mesh, diags=diags, logdet=logdet)


def sample_field(
    prec: SparsePrecision, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw zero-mean fields on the mesh; shape (n_draws, mesh.n)."""
    factor = _banded.BandedChol(prec.ab)
    z = rng.standard_normal((prec.n, n_draws))
    draws = factor.solve_r(z)
    return np.ascontiguousarray(draws.T)
