import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from gridcox import _banded
from gridcox.gmrf import (
    LatticeMesh,
    MaternHyper,
    PcPriorSpec,
    build_precision,
    lattice_variance_factor,
    sample_field,
)
from test_banded import from_sparse, quadform


def dense_stiffness(mesh):
    """G assembled edge by edge: weight dy/dx across columns, dx/dy across rows."""
    g = np.zeros((mesh.n, mesh.n))
    for r in range(mesh.rows):
        for c in range(mesh.cols):
            i = r * mesh.cols + c
            for dr, dc, w in ((0, 1, mesh.dy / mesh.dx), (1, 0, mesh.dx / mesh.dy)):
                if r + dr < mesh.rows and c + dc < mesh.cols:
                    j = i + dr * mesh.cols + dc
                    g[i, j] = g[j, i] = -w
                    g[i, i] += w
                    g[j, j] += w
    return g


class TestHyper:
    def test_kappa(self):
        h = MaternHyper(sigma=1.0, rho=8.0)
        assert h.kappa == pytest.approx(math.sqrt(8.0) / 8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MaternHyper(sigma=0.0, rho=1.0)
        with pytest.raises(ValueError):
            MaternHyper(sigma=1.0, rho=-2.0)


class TestPcPrior:
    SPEC = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=0.5, p_sigma=0.01)

    def test_integrated_range_mass(self):
        # dual route: numerically integrate the density below rho0
        mass, _ = quad(
            lambda r: math.exp(
                math.log(self.SPEC.lam_rho) - 2 * math.log(r) - self.SPEC.lam_rho / r
            ),
            0,
            50.0,
            points=[1.0, 25.0],
            limit=200,
        )
        assert mass == pytest.approx(0.5, abs=1e-6)
        assert self.SPEC.rho_cdf(50.0) == pytest.approx(0.5, abs=1e-12)

    def test_integrated_sigma_tail(self):
        mass, _ = quad(
            lambda s: self.SPEC.lam_sigma * math.exp(-self.SPEC.lam_sigma * s),
            0.5,
            np.inf,
        )
        assert mass == pytest.approx(0.01, abs=1e-9)
        assert self.SPEC.sigma_tail(0.5) == pytest.approx(0.01, abs=1e-12)

    def test_logdensity_is_log_of_product(self):
        lr, ls = self.SPEC.lam_rho, self.SPEC.lam_sigma
        expect = math.log(lr / 30.0**2 * math.exp(-lr / 30.0)) + math.log(
            ls * math.exp(-ls * 0.3)
        )
        assert self.SPEC.logdensity(0.3, 30.0) == pytest.approx(expect, rel=1e-12)

    def test_density_normalizes(self):
        total, _ = quad(
            lambda r: math.exp(
                math.log(self.SPEC.lam_rho) - 2 * math.log(r) - self.SPEC.lam_rho / r
            ),
            0,
            np.inf,
            limit=400,
        )
        assert total == pytest.approx(1.0, abs=1e-7)

    def test_out_of_support(self):
        assert self.SPEC.logdensity(-1.0, 10.0) == -np.inf
        assert self.SPEC.logdensity(1.0, 0.0) == -np.inf


class TestMesh:
    def test_dims_and_mapping(self):
        mesh = LatticeMesh(4, 3, 1.0, 1.0, halo=2)
        assert (mesh.rows, mesh.cols) == (8, 7)
        assert mesh.n == 56
        g2m = mesh.grid_to_mesh
        assert g2m.shape == (12,)
        # grid cell (0, 0) maps to mesh cell (2, 2)
        assert g2m[0] == 2 * 7 + 2
        # grid cell (3, 2) maps to mesh cell (5, 4)
        assert g2m[-1] == 5 * 7 + 4

    def test_stiffness_rows_sum_to_zero(self):
        mesh = LatticeMesh(3, 3, 2.0, 1.0, halo=1)
        g = mesh._stiffness.toarray()
        np.testing.assert_allclose(g, dense_stiffness(mesh), rtol=1e-15)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(g, g.T)
        # horizontal weight dy/dx = 0.5, vertical dx/dy = 2
        assert g[0, 1] == pytest.approx(-0.5)
        assert g[0, mesh.cols] == pytest.approx(-2.0)


class TestPrecision:
    def test_template_matches_direct_assembly(self):
        import scipy.sparse as sp

        mesh = LatticeMesh(4, 5, 2.0, 3.0, halo=1)
        h = MaternHyper(sigma=1.3, rho=9.0)
        q = build_precision(mesh, h)
        g = mesh._stiffness
        m = mesh.dx * mesh.dy
        k2m = h.kappa**2 * m
        base = (k2m * sp.eye(mesh.n) + g).tocsr()
        scale = lattice_variance_factor(h.kappa, mesh.dx, mesh.dy) / h.sigma**2
        direct = from_sparse((scale * (base @ base)).tocsr(), mesh.bandwidth)
        np.testing.assert_allclose(q.ab, direct, rtol=1e-12, atol=1e-12)

    def test_marginal_sd_matches_sigma(self):
        # the lattice variance factor makes sigma exact away from the halo
        mesh = LatticeMesh(9, 9, 1.0, 1.0, halo=16)
        h = MaternHyper(sigma=1.7, rho=8.0)
        cov = build_precision(mesh, h).dense_covariance()
        center = (mesh.rows // 2) * mesh.cols + mesh.cols // 2
        assert math.sqrt(cov[center, center]) == pytest.approx(1.7, rel=5e-3)

    def test_marginal_sd_anisotropic_cells(self):
        mesh = LatticeMesh(7, 7, 2.0, 1.0, halo=12)
        h = MaternHyper(sigma=1.0, rho=10.0)
        cov = build_precision(mesh, h).dense_covariance()
        center = (mesh.rows // 2) * mesh.cols + mesh.cols // 2
        assert math.sqrt(cov[center, center]) == pytest.approx(1.0, rel=5e-3)

    def test_correlation_near_matern_at_practical_range(self):
        mesh = LatticeMesh(21, 21, 1.0, 1.0, halo=14)
        rho = 8.0
        h = MaternHyper(sigma=1.0, rho=rho)
        cov = build_precision(mesh, h).dense_covariance()
        center_rc = (mesh.rows // 2, mesh.cols // 2)
        center = center_rc[0] * mesh.cols + center_rc[1]
        at_range = center_rc[0] * mesh.cols + center_rc[1] + int(rho)
        corr = cov[center, at_range] / cov[center, center]
        # nu = 1 Matern correlation at the practical range
        matern = math.sqrt(8.0) * kv(1, math.sqrt(8.0))
        assert corr == pytest.approx(matern, abs=0.02)

    def test_quadform_and_matvec(self):
        mesh = LatticeMesh(3, 3, 1.0, 1.0, halo=1)
        q = build_precision(mesh, MaternHyper(1.0, 4.0))
        x = np.linspace(-1, 1, mesh.n)
        dense = np.linalg.inv(q.dense_covariance())
        np.testing.assert_allclose(_banded.matvec(q.ab, x), dense @ x, rtol=1e-8, atol=1e-10)
        assert quadform(q.ab, x) == pytest.approx(x @ dense @ x, rel=1e-8)


# (grid rows, grid cols, dx, dy, halo): square and non-square cells, halo 1-3;
# the 1 x 1 grid gives C = 3 columns, where offsets 2 and C - 1 coincide
STENCIL_MESHES = [
    (1, 1, 1.0, 1.0, 1),
    (3, 4, 1.0, 1.0, 2),
    (4, 5, 2.0, 3.0, 1),
    (5, 3, 1.5, 0.5, 3),
    (2, 6, 10.0, 10.0, 3),
]
STENCIL_HYPERS = [(1.0, 4.0), (0.3, 25.0), (2.0, 1.5)]
STENCIL_RTOL = 1e-12


@pytest.mark.parametrize("dims", STENCIL_MESHES)
@pytest.mark.parametrize("sigma_rho", STENCIL_HYPERS)
class TestStencil:
    """The stencil and the closed-form log determinant against the banded oracle."""

    def test_matvec_and_quadform_match_banded(self, dims, sigma_rho):
        mesh = LatticeMesh(*dims)
        q = build_precision(mesh, MaternHyper(*sigma_rho))
        x = np.random.default_rng(3).standard_normal(mesh.n)
        ref = _banded.matvec(q.ab, x)
        err = np.max(np.abs(q.matvec(x) - ref)) / np.max(np.abs(ref))
        assert err <= STENCIL_RTOL
        assert q.quadform(x) == pytest.approx(quadform(q.ab, x), rel=STENCIL_RTOL)

    def test_logdet_matches_cholesky(self, dims, sigma_rho):
        mesh = LatticeMesh(*dims)
        q = build_precision(mesh, MaternHyper(*sigma_rho))
        ref = _banded.BandedChol(q.ab).logdet
        assert q.logdet == pytest.approx(ref, rel=STENCIL_RTOL)


@pytest.mark.parametrize("dims", STENCIL_MESHES)
def test_spectrum_is_eigenvalues_of_dense_stiffness(dims):
    mesh = LatticeMesh(*dims)
    eig = np.linalg.eigvalsh(dense_stiffness(mesh))
    np.testing.assert_allclose(np.sort(mesh.spectrum), eig, atol=1e-12 * eig.max())


def test_square_cells_assemble_exactly():
    # integer G and G @ G: the per-diagonal combination is the dense one, bit for bit
    mesh = LatticeMesh(3, 4, 5.0, 5.0, halo=2)
    h = MaternHyper(sigma=0.7, rho=12.0)
    q = build_precision(mesh, h)
    g = dense_stiffness(mesh)
    kap2m = h.kappa**2 * mesh.dx * mesh.dy
    scale = lattice_variance_factor(h.kappa, mesh.dx, mesh.dy) / h.sigma**2
    dense = scale * (kap2m**2 * np.eye(mesh.n) + (2.0 * kap2m) * g + g @ g)
    assert np.array_equal(q.ab, from_sparse(dense, mesh.bandwidth))


@pytest.mark.parametrize("dims", [(2, 3, 1.0, 1.0, 1), (3, 3, 2.0, 1.0, 1)],
                         ids=["even-rows", "odd-rows"])
def test_band_rows_are_subdiagonals(dims):
    # oracle: Q from the stencil's products with unit vectors; row k of the
    # lower band is Q's k-th subdiagonal, zero-padded at the end
    mesh = LatticeMesh(*dims)
    prec = build_precision(mesh, MaternHyper(sigma=1.3, rho=3.0))
    n = mesh.n
    q = np.column_stack([prec.matvec(e) for e in np.eye(n)])
    ab = prec.ab
    assert ab.shape == (mesh.bandwidth + 1, n)
    for k in range(mesh.bandwidth + 1):
        assert np.array_equal(ab[k, : n - k], np.diagonal(q, -k))
        assert not ab[k, n - k :].any()
    ref = np.linalg.slogdet(q)[1]
    assert _banded.BandedChol(prec.ab).logdet == pytest.approx(ref, rel=1e-12)


class TestSampling:
    def test_sample_covariance_matches_inverse(self):
        mesh = LatticeMesh(3, 3, 1.0, 1.0, halo=2)
        q = build_precision(mesh, MaternHyper(sigma=1.0, rho=3.0))
        rng = np.random.default_rng(42)
        draws = sample_field(q, 20000, rng)
        assert draws.shape == (20000, mesh.n)
        cov = np.cov(draws.T)
        ref = q.dense_covariance()
        n = draws.shape[0]
        se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / n)
        assert np.all(np.abs(cov - ref) < 4.0 * se)

    def test_mean_is_zero(self):
        mesh = LatticeMesh(2, 2, 1.0, 1.0, halo=1)
        q = build_precision(mesh, MaternHyper(sigma=0.5, rho=2.0))
        rng = np.random.default_rng(7)
        draws = sample_field(q, 5000, rng)
        sd = np.sqrt(np.diag(q.dense_covariance()))
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * sd / math.sqrt(5000))
