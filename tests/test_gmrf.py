import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import kv

from gridcox import _banded, gmrf
from gridcox.gmrf import (
    LatticeMesh,
    MaternHyper,
    PcPriorSpec,
    build_precision,
    lattice_variance_factor,
    sample_field,
)
from test_banded import from_sparse, quadform


def dense_covariance(prec):
    """Q^-1 of a small mesh's precision, from Q's products with unit vectors."""
    return np.linalg.inv([prec.matvec(e) for e in np.eye(prec.n)])


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

    @pytest.mark.parametrize("dims", [(5, 5, 2), (4, 7, 3), (6, 3, 5), (1, 4, 2)])
    @pytest.mark.parametrize("trailing", [(), (3,), (1,)])
    def test_grid_view_is_grid_to_mesh_without_a_copy(self, dims, trailing):
        grid_rows, grid_cols, halo = dims
        mesh = LatticeMesh(grid_rows, grid_cols, 2.0, 0.5, halo)
        a = np.random.default_rng(0).standard_normal((mesh.n, *trailing))
        view = mesh.grid_view(a)
        assert view.shape == (grid_rows, grid_cols, *trailing)
        assert np.shares_memory(view, a)
        # bit for bit the fancy-indexed copy, in flat grid cell order
        np.testing.assert_array_equal(
            view.reshape(grid_rows * grid_cols, *trailing), a[mesh.grid_to_mesh]
        )
        # writes through the view land on the grid nodes and nowhere else
        view[...] = -1.0
        halo_nodes = np.setdiff1d(np.arange(mesh.n), mesh.grid_to_mesh)
        assert (a[mesh.grid_to_mesh] == -1.0).all()
        assert (a[halo_nodes] != -1.0).all()

    def test_stiffness_rows_sum_to_zero(self):
        mesh = LatticeMesh(3, 3, 2.0, 1.0, halo=1)
        g = dense_stiffness(mesh)
        template = from_sparse(g, mesh.bandwidth)[mesh.offsets]
        np.testing.assert_allclose(mesh.templates[0], template, rtol=1e-15)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(g, g.T)
        # horizontal weight dy/dx = 0.5, vertical dx/dy = 2
        assert g[0, 1] == pytest.approx(-0.5)
        assert g[0, mesh.cols] == pytest.approx(-2.0)


class TestPrecision:
    def test_template_matches_direct_assembly(self):
        mesh = LatticeMesh(4, 5, 2.0, 3.0, halo=1)
        h = MaternHyper(sigma=1.3, rho=9.0)
        q = build_precision(mesh, h)
        g = dense_stiffness(mesh)
        m = mesh.dx * mesh.dy
        k2m = h.kappa**2 * m
        base = k2m * np.eye(mesh.n) + g
        scale = lattice_variance_factor(h.kappa, mesh.dx, mesh.dy) / h.sigma**2
        direct = from_sparse(scale * (base @ base), mesh.bandwidth)
        np.testing.assert_allclose(q.ab, direct, rtol=1e-12, atol=1e-12)

    def test_marginal_sd_matches_sigma(self):
        # the lattice variance factor makes sigma exact away from the halo
        mesh = LatticeMesh(9, 9, 1.0, 1.0, halo=16)
        h = MaternHyper(sigma=1.7, rho=8.0)
        cov = dense_covariance(build_precision(mesh, h))
        center = (mesh.rows // 2) * mesh.cols + mesh.cols // 2
        assert math.sqrt(cov[center, center]) == pytest.approx(1.7, rel=5e-3)

    def test_marginal_sd_anisotropic_cells(self):
        mesh = LatticeMesh(7, 7, 2.0, 1.0, halo=12)
        h = MaternHyper(sigma=1.0, rho=10.0)
        cov = dense_covariance(build_precision(mesh, h))
        center = (mesh.rows // 2) * mesh.cols + mesh.cols // 2
        assert math.sqrt(cov[center, center]) == pytest.approx(1.0, rel=5e-3)

    def test_correlation_near_matern_at_practical_range(self):
        mesh = LatticeMesh(21, 21, 1.0, 1.0, halo=14)
        rho = 8.0
        h = MaternHyper(sigma=1.0, rho=rho)
        cov = dense_covariance(build_precision(mesh, h))
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
        dense = np.linalg.inv(dense_covariance(q))
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


@pytest.mark.parametrize("dims", STENCIL_MESHES)
def test_templates_match_dense_stiffness(dims):
    # G and G @ G from dense algebra, every other diagonal of the band zero;
    # square cells give integer entries, so the formulas must match bit for bit
    mesh = LatticeMesh(*dims)
    g = dense_stiffness(mesh)
    for rows, dense in zip(mesh.templates, (g, g @ g), strict=True):
        ab = from_sparse(dense, mesh.bandwidth)
        assert not np.delete(ab, mesh.offsets, axis=0).any()
        if mesh.dx == mesh.dy:
            assert np.array_equal(rows, ab[mesh.offsets])
        else:
            np.testing.assert_allclose(rows, ab[mesh.offsets], rtol=1e-14, atol=0)


def quad_variance_factor(kappa, dx, dy):
    """J by adaptive quadrature over w2 of the closed-form integral over w1,
    c / (c^2 - 4a^2)^(3/2), written in e = c - 2a so that it does not cancel."""
    a, b = dy / dx, dx / dy
    g = kappa * kappa * dx * dy

    def outer(w2):
        e = g + 4.0 * b * math.sin(0.5 * w2) ** 2
        return (e + 2.0 * a) / (e * (e + 4.0 * a)) ** 1.5

    val, _ = quad(outer, 0.0, math.pi, epsabs=0, epsrel=1e-13, limit=500)
    return val / math.pi


def mp_variance_factor(kappa, dx, dy):
    """J by 40-digit quadrature of c / (c^2 - 4a^2)^(3/2) over w2, the interval
    cut at decades of the width of the integrand's peak at w2 = 0."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, b = mpmath.mpf(dy) / dx, mpmath.mpf(dx) / dy
        g = mpmath.mpf(kappa) ** 2 * dx * dy
        width = mpmath.sqrt(g / b)
        cuts = [0] + [width * 10**i for i in range(20) if width * 10**i < 1] + [mpmath.pi]

        def outer(w2):
            c = g + 2 * a + 2 * b * (1 - mpmath.cos(w2))
            return c / (c * c - 4 * a * a) ** 1.5

        return float(mpmath.quad(outer, cuts) / mpmath.pi)


ASPECTS = [0.2, 1.0, 3.0, 7.0]  # dy / dx


@pytest.mark.parametrize("kappa_dx", [0.01, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("aspect", ASPECTS)
def test_variance_factor_matches_quadrature(kappa_dx, aspect):
    dx = 2.5
    kappa, dy = kappa_dx / dx, aspect * dx
    ref = quad_variance_factor(kappa, dx, dy)
    assert lattice_variance_factor(kappa, dx, dy) == pytest.approx(ref, rel=1e-11)


def test_agm_elliptic_integral_matches_scipy():
    # oracle: scipy.special.ellipe over m in [0, 1], finely near m = 1, where
    # K diverges and the AGM sum cancels against 1, and at E(1) = 1
    from scipy.special import ellipe

    m = np.r_[np.linspace(0.0, 1.0, 2001), 1.0 - np.logspace(-16, -1, 61), 1e-300, 1e-9]
    got = np.array([gmrf._ellipe(v) for v in m])
    np.testing.assert_allclose(got, ellipe(m), rtol=1e-14)
    assert gmrf._ellipe(1.0) == 1.0 and gmrf._ellipe(0.0) == pytest.approx(math.pi / 2, rel=1e-16)


@pytest.mark.parametrize("kappa_dx", [1e-6, 1e-4, 1e-2, 1.0, 100.0])
@pytest.mark.parametrize("aspect", ASPECTS)
def test_variance_factor_matches_40_digit_quadrature(kappa_dx, aspect):
    # down to kappa dx = 1e-6, where the integrand over w2 peaks in a width
    # of about kappa dx and double-precision quadrature loses digits
    dx = 2.5
    kappa, dy = kappa_dx / dx, aspect * dx
    ref = mp_variance_factor(kappa, dx, dy)
    assert lattice_variance_factor(kappa, dx, dy) == pytest.approx(ref, rel=1e-13)


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


@pytest.mark.parametrize("start, stop", [(0, 24), (5, 17), (9, 11), (20, 24)])
@pytest.mark.parametrize("reverse", [False, True], ids=["natural", "reversed"])
def test_band_of_a_node_range_is_the_principal_block(start, stop, reverse):
    # oracle: Q from the stencil's products with unit vectors, its block on
    # the nodes [start, stop), in reverse order when asked
    mesh = LatticeMesh(2, 4, 1.0, 2.0, 1)
    prec = build_precision(mesh, MaternHyper(sigma=1.3, rho=3.0))
    q = np.column_stack([prec.matvec(e) for e in np.eye(mesh.n)])
    block = q[start:stop, start:stop]
    if reverse:
        block = block[::-1, ::-1]
    ab = prec.band(start, stop, reverse)
    assert ab.shape == (mesh.bandwidth + 1, stop - start) and ab.flags.f_contiguous
    for k in range(mesh.bandwidth + 1):
        diag = np.diagonal(block, -k)  # empty beyond the block's size
        assert np.array_equal(ab[k, : diag.size], diag)
        assert not ab[k, diag.size :].any()
    if (start, stop) == (0, mesh.n) and not reverse:
        assert np.array_equal(ab, prec.ab)


class TestSampling:
    def test_sample_covariance_matches_inverse(self):
        mesh = LatticeMesh(3, 3, 1.0, 1.0, halo=2)
        q = build_precision(mesh, MaternHyper(sigma=1.0, rho=3.0))
        rng = np.random.default_rng(42)
        draws = sample_field(q, 20000, rng)
        assert draws.shape == (20000, mesh.n)
        cov = np.cov(draws.T)
        ref = dense_covariance(q)
        n = draws.shape[0]
        se = np.sqrt((np.outer(np.diag(ref), np.diag(ref)) + ref**2) / n)
        assert np.all(np.abs(cov - ref) < 4.0 * se)

    def test_mean_is_zero(self):
        mesh = LatticeMesh(2, 2, 1.0, 1.0, halo=1)
        q = build_precision(mesh, MaternHyper(sigma=0.5, rho=2.0))
        rng = np.random.default_rng(7)
        draws = sample_field(q, 5000, rng)
        sd = np.sqrt(np.diag(dense_covariance(q)))
        assert np.all(np.abs(draws.mean(axis=0)) < 4 * sd / math.sqrt(5000))
