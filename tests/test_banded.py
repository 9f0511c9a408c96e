import numpy as np
import pytest
from scipy.linalg import solve_triangular

from gridcox import _banded
from gridcox.gmrf import LatticeMesh, MaternHyper, build_precision


def random_banded_spd(n, bw, rng):
    a = rng.standard_normal((n, n))
    a = a @ a.T + n * np.eye(n)
    for i in range(n):
        for j in range(n):
            if abs(i - j) > bw:
                a[i, j] = 0.0
    # re-symmetrize and re-inflate the diagonal so banding keeps it SPD
    a = 0.5 * (a + a.T) + n * np.eye(n)
    return a


def from_sparse(a, bw):
    """Lower-banded storage of a symmetric sparse (or dense) matrix."""
    n = a.shape[0]
    ab = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        ab[k, : n - k] = a.diagonal(-k)
    return ab


def quadform(ab, x):
    """x.T @ A @ x for symmetric banded A."""
    return float(np.dot(x, _banded.matvec(ab, x)))


def band_to_dense(ab, symmetric=True):
    """Dense matrix of lower-banded storage: the symmetric A, or only its
    lower triangle (a triangular factor L)."""
    n = ab.shape[1]
    lower = sum(np.diag(ab[k, : n - k], -k) for k in range(ab.shape[0]))
    return lower + np.tril(lower, -1).T if symmetric else lower


class TestBandedStorage:
    def test_from_sparse_round_trip(self):
        rng = np.random.default_rng(0)
        a = random_banded_spd(12, 3, rng)
        ab = from_sparse(a, 3)
        assert ab.shape == (4, 12)
        np.testing.assert_allclose(ab[0], np.diag(a))
        np.testing.assert_allclose(ab[1][:-1], np.diag(a, -1))
        np.testing.assert_array_equal(band_to_dense(ab), a)

    def test_matvec_and_quadform(self):
        rng = np.random.default_rng(1)
        a = random_banded_spd(15, 4, rng)
        ab = from_sparse(a, 4)
        x = rng.standard_normal(15)
        np.testing.assert_allclose(_banded.matvec(ab, x), a @ x, rtol=1e-12)
        assert quadform(ab, x) == pytest.approx(x @ a @ x, rel=1e-12)


class TestBandedChol:
    def test_solve_and_logdet(self):
        rng = np.random.default_rng(2)
        a = random_banded_spd(20, 5, rng)
        chol = _banded.BandedChol(from_sparse(a, 5))
        b = rng.standard_normal(20)
        x = chol.solve_r(chol.solve_rt(b))
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10)
        assert chol.logdet == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)

    def test_triangular_solves_compose(self):
        rng = np.random.default_rng(3)
        a = random_banded_spd(10, 3, rng)
        chol = _banded.BandedChol(from_sparse(a, 3))
        b = rng.standard_normal(10)
        y = chol.solve_rt(b)
        x = chol.solve_r(y)
        np.testing.assert_allclose(a @ x, b, rtol=1e-10)

    def test_multiple_rhs(self):
        rng = np.random.default_rng(4)
        a = random_banded_spd(10, 2, rng)
        chol = _banded.BandedChol(from_sparse(a, 2))
        b = rng.standard_normal((10, 3))
        x = chol.solve_r(chol.solve_rt(b))
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10)

    @pytest.mark.parametrize("row, col", [(0, 9), (3, 6)], ids=["diagonal", "off-diagonal"])
    def test_nan_in_band_raises(self, row, col):
        # LAPACK's pbtrf can report success on a NaN band; the check must not
        a = random_banded_spd(12, 5, np.random.default_rng(8))
        ab = np.asfortranarray(from_sparse(a, 5))
        ab[row, col] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            _banded.BandedChol(ab)

    def test_factors_column_major_band_in_place(self):
        prec = build_precision(LatticeMesh(4, 3, 1.0, 1.0, halo=1), MaternHyper(1.0, 2.0))
        ab = prec.ab
        assert ab.flags.f_contiguous
        assert np.shares_memory(_banded.BandedChol(ab).factor, ab)

    def test_c_ordered_band_is_left_unchanged(self):
        ab = from_sparse(random_banded_spd(12, 3, np.random.default_rng(9)), 3)
        assert ab.flags.c_contiguous
        kept = ab.copy()
        chol = _banded.BandedChol(ab)
        assert np.array_equal(ab, kept)
        assert not np.shares_memory(chol.factor, ab)


class TestArrowFactor:
    def make_blocks(self, n=18, bw=4, m=3, seed=5):
        rng = np.random.default_rng(seed)
        a = random_banded_spd(n, bw, rng)
        b = rng.standard_normal((n, m))
        s = rng.standard_normal((m, m))
        s = s @ s.T + (m + np.abs(b).sum()) * np.eye(m)  # keep the Schur complement SPD
        q = np.block([[a, b], [b.T, s]])
        return a, b, s, q, rng

    def test_logdet_and_solve_match_dense(self):
        a, b, s, q, rng = self.make_blocks()
        arrow = _banded.ArrowFactor(from_sparse(a, 4), b, s)
        assert arrow.logdet == pytest.approx(np.linalg.slogdet(q)[1], rel=1e-10)
        rhs = rng.standard_normal(q.shape[0])
        x_w, x_d = arrow.solve(rhs[:18], rhs[18:])
        ref = np.linalg.solve(q, rhs)
        np.testing.assert_allclose(np.concatenate([x_w, x_d]), ref, rtol=1e-8)

    def test_factor_reconstructs_q(self):
        a, b, s, q, _ = self.make_blocks(seed=6)
        arrow = _banded.ArrowFactor(from_sparse(a, 4), b, s)
        r = band_to_dense(arrow.rw.factor, symmetric=False).T
        u = np.block([[r, arrow.x], [np.zeros((3, 18)), arrow.ls.T]])
        np.testing.assert_allclose(u.T @ u, q, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "mesh_rows, draws",
        [(None, 1), (None, 37), (6, 37), (7, 37)],
        ids=["1-column", "37-columns", "lattice-even-rows", "lattice-odd-rows"],
    )
    def test_sample_has_precision_q(self, mesh_rows, draws):
        # U x = z with z standard normal gives cov(x) = Q^{-1}; check the map
        # itself is U^{-1} by comparing with a dense triangular solve. The
        # solve runs in blocks of bw rows; a lattice band has bw = 2 * cols, so
        # an odd row count leaves a short last block, as n = 18, bw = 4 does
        if mesh_rows is None:
            a, b, s, _, rng = self.make_blocks(seed=7)
            ab = from_sparse(a, 4)
        else:
            rng = np.random.default_rng(7)
            mesh = LatticeMesh(mesh_rows - 2, 3, 1.0, 1.0, halo=1)
            ab = build_precision(mesh, MaternHyper(1.0, 2.0)).ab
            ab[0] += rng.uniform(0.5, 2.0, mesh.n)  # Poisson weights, as in the Hessian
            b = rng.standard_normal((mesh.n, 3))
            s = b.T @ np.linalg.solve(band_to_dense(ab), b) + 3.0 * np.eye(3)
        n, m = b.shape
        arrow = _banded.ArrowFactor(ab, b, s)
        r = band_to_dense(arrow.rw.factor, symmetric=False).T
        u = np.block([[r, arrow.x], [np.zeros((m, n)), arrow.ls.T]])
        z = rng.standard_normal((n + m, draws))
        ref = solve_triangular(u, z, lower=False)
        x_w, x_d = arrow.sample(z[:n], z[n:])
        np.testing.assert_allclose(np.concatenate([x_w, x_d]), ref, rtol=1e-9)
        assert np.shares_memory(x_w, z)  # the draws overwrite the normals


class TestEndElimination:
    def lattice_blocks(self, seed=11):
        rng = np.random.default_rng(seed)
        mesh = LatticeMesh(4, 3, 1.0, 1.0, halo=1)
        prec = build_precision(mesh, MaternHyper(1.0, 2.0))
        ab = prec.ab
        ab[0] += rng.uniform(0.5, 2.0, mesh.n)
        b = rng.standard_normal((mesh.n, 2))
        s = b.T @ np.linalg.solve(band_to_dense(ab), b) + 2.0 * np.eye(2)
        return ab, b, s, rng

    def test_empty_ends_reduce_to_the_arrow_factor(self):
        # no end rows: the whole band is the middle, and nothing is corrected
        ab, b, s, rng = self.lattice_blocks()
        bw, n = ab.shape[0] - 1, ab.shape[1]
        ends = _banded.EndElimination(np.zeros((bw + 1, 0), order="F"), 0,
                                      ab[:, :bw].copy(order="F"), ab[:, -bw:].copy(order="F"))
        assert not ends.corrections[0].any() and not ends.corrections[1].any()
        reduced = _banded.EndArrowFactor(ends, ab.copy(order="F"), b, s)
        arrow = _banded.ArrowFactor(ab.copy(order="F"), b, s)
        assert reduced.logdet == arrow.logdet
        rhs_w, rhs_d = rng.standard_normal(n), rng.standard_normal(2)
        for got, want in zip(reduced.solve(rhs_w, rhs_d), arrow.solve(rhs_w, rhs_d)):
            np.testing.assert_array_equal(got, want)
