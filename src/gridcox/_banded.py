"""Symmetric banded matrices in LAPACK upper-banded storage, plus an
arrowhead (banded + dense border) Cholesky used for the joint latent field.

Storage: a symmetric n x n matrix with bandwidth ``bw`` lives in an array
``ab`` of shape (bw + 1, n) with ``ab[bw + i - j, j] = A[i, j]`` for
``j - bw <= i <= j``. Row ``bw`` (the last row) is the main diagonal. This is
the layout scipy's ``cholesky_banded``/``solveh_banded`` and BLAS ``dsbmv``
expect for ``lower=False``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky_banded, get_lapack_funcs
from scipy.linalg.blas import dsbmv


def from_sparse(a, bw: int) -> np.ndarray:
    """Upper-banded storage of a symmetric sparse (or dense) matrix."""
    n = a.shape[0]
    ab = np.zeros((bw + 1, n))
    for k in range(bw + 1):
        diag = np.asarray(a.diagonal(k)).ravel() if hasattr(a, "diagonal") else np.diagonal(a, k)
        ab[bw - k, k:] = diag
    return ab


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for symmetric banded A."""
    return dsbmv(ab.shape[0] - 1, 1.0, ab, x)


def quadform(ab: np.ndarray, x: np.ndarray) -> float:
    """x.T @ A @ x for symmetric banded A."""
    return float(np.dot(x, matvec(ab, x)))


class BandedChol:
    """Cholesky factor A = R.T @ R of a symmetric positive definite banded A."""

    def __init__(self, ab: np.ndarray):
        self.factor = cholesky_banded(ab, lower=False)
        self._tbtrs, = get_lapack_funcs(("tbtrs",), (self.factor,))

    @property
    def logdet(self) -> float:
        """log det A (twice the log-diagonal sum of R)."""
        return 2.0 * float(np.sum(np.log(self.factor[-1])))

    def _solve_tri(self, b: np.ndarray, trans: str) -> np.ndarray:
        b2 = b if b.ndim == 2 else b[:, None]
        x, info = self._tbtrs(self.factor, b2, uplo="U", trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"tbtrs failed with info={info}")
        return x if b.ndim == 2 else x[:, 0]

    def solve_rt(self, b: np.ndarray) -> np.ndarray:
        """Solve R.T @ x = b."""
        return self._solve_tri(b, "T")

    def solve_r(self, b: np.ndarray) -> np.ndarray:
        """Solve R @ x = b."""
        return self._solve_tri(b, "N")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A @ x = b."""
        return self.solve_r(self.solve_rt(b))


class ArrowFactor:
    """Factorization of Q = [[A, B], [B.T, S]] with banded A and small dense S.

    Uses the block factor U = [[R, X], [0, L.T]] with A = R.T R,
    X = R.T^{-1} B and L L.T = S - X.T X, so Q = U.T U. Solves, log
    determinant, and N(0, Q^{-1}) sampling all reduce to triangular solves.
    """

    def __init__(self, a_banded: np.ndarray, b_dense: np.ndarray, s_dense: np.ndarray):
        m = s_dense.shape[0]
        if b_dense.shape != (a_banded.shape[1], m):
            raise ValueError("border block has the wrong shape")
        self.rw = BandedChol(a_banded)
        self.x = self.rw.solve_rt(b_dense)
        self.ls = np.linalg.cholesky(s_dense - self.x.T @ self.x)

    @property
    def logdet(self) -> float:
        return self.rw.logdet + 2.0 * float(np.sum(np.log(np.diag(self.ls))))

    def solve(self, b_w: np.ndarray, b_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve Q @ (x_w, x_d) = (b_w, b_d)."""
        y_w = self.rw.solve_rt(b_w)
        y_d = np.linalg.solve(self.ls, b_d - self.x.T @ y_w)
        x_d = np.linalg.solve(self.ls.T, y_d)
        x_w = self.rw.solve_r(y_w - self.x @ x_d)
        return x_w, x_d

    def sample(self, z_w: np.ndarray, z_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map standard normals to a draw from N(0, Q^{-1}): solve U x = z."""
        x_d = np.linalg.solve(self.ls.T, z_d)
        x_w = self.rw.solve_r(z_w - self.x @ x_d)
        return x_w, x_d
