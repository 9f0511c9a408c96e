import numpy as np
import pytest

from gridcox import _banded


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


class TestBandedStorage:
    def test_from_sparse_round_trip(self):
        rng = np.random.default_rng(0)
        a = random_banded_spd(12, 3, rng)
        ab = _banded.from_sparse(a, 3)
        assert ab.shape == (4, 12)
        np.testing.assert_allclose(ab[-1], np.diag(a))
        np.testing.assert_allclose(ab[-2][1:], np.diag(a, 1))

    def test_matvec_and_quadform(self):
        rng = np.random.default_rng(1)
        a = random_banded_spd(15, 4, rng)
        ab = _banded.from_sparse(a, 4)
        x = rng.standard_normal(15)
        np.testing.assert_allclose(_banded.matvec(ab, x), a @ x, rtol=1e-12)
        assert _banded.quadform(ab, x) == pytest.approx(x @ a @ x, rel=1e-12)


class TestBandedChol:
    def test_solve_and_logdet(self):
        rng = np.random.default_rng(2)
        a = random_banded_spd(20, 5, rng)
        chol = _banded.BandedChol(_banded.from_sparse(a, 5))
        b = rng.standard_normal(20)
        np.testing.assert_allclose(chol.solve(b), np.linalg.solve(a, b), rtol=1e-10)
        assert chol.logdet == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)

    def test_triangular_solves_compose(self):
        rng = np.random.default_rng(3)
        a = random_banded_spd(10, 3, rng)
        chol = _banded.BandedChol(_banded.from_sparse(a, 3))
        b = rng.standard_normal(10)
        y = chol.solve_rt(b)
        x = chol.solve_r(y)
        np.testing.assert_allclose(a @ x, b, rtol=1e-10)

    def test_multiple_rhs(self):
        rng = np.random.default_rng(4)
        a = random_banded_spd(10, 2, rng)
        chol = _banded.BandedChol(_banded.from_sparse(a, 2))
        b = rng.standard_normal((10, 3))
        np.testing.assert_allclose(chol.solve(b), np.linalg.solve(a, b), rtol=1e-10)


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
        arrow = _banded.ArrowFactor(_banded.from_sparse(a, 4), b, s)
        assert arrow.logdet == pytest.approx(np.linalg.slogdet(q)[1], rel=1e-10)
        rhs = rng.standard_normal(q.shape[0])
        x_w, x_d = arrow.solve(rhs[:18], rhs[18:])
        ref = np.linalg.solve(q, rhs)
        np.testing.assert_allclose(np.concatenate([x_w, x_d]), ref, rtol=1e-8)

    def test_factor_reconstructs_q(self):
        a, b, s, q, _ = self.make_blocks(seed=6)
        arrow = _banded.ArrowFactor(_banded.from_sparse(a, 4), b, s)
        n, m = 18, 3
        r = np.zeros((n, n))
        bw = arrow.rw.factor.shape[0] - 1
        for k in range(bw + 1):
            r += np.diag(arrow.rw.factor[bw - k, k:], k)
        u = np.block([[r, arrow.x], [np.zeros((m, n)), arrow.ls.T]])
        np.testing.assert_allclose(u.T @ u, q, rtol=1e-9, atol=1e-9)

    def test_sample_has_precision_q(self):
        # U x = z with z standard normal gives cov(x) = Q^{-1}; check the map
        # itself is U^{-1} by comparing with a dense triangular solve
        a, b, s, q, rng = self.make_blocks(seed=7)
        arrow = _banded.ArrowFactor(_banded.from_sparse(a, 4), b, s)
        n, m = 18, 3
        z = rng.standard_normal(n + m)
        x_w, x_d = arrow.sample(z[:n], z[n:])
        r = np.zeros((n, n))
        bw = arrow.rw.factor.shape[0] - 1
        for k in range(bw + 1):
            r += np.diag(arrow.rw.factor[bw - k, k:], k)
        u = np.block([[r, arrow.x], [np.zeros((m, n)), arrow.ls.T]])
        from scipy.linalg import solve_triangular

        ref = solve_triangular(u, z, lower=False)
        np.testing.assert_allclose(np.concatenate([x_w, x_d]), ref, rtol=1e-9)
