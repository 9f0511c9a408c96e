"""Symmetric banded matrices in LAPACK lower-banded storage, plus an
arrowhead (banded + dense border) Cholesky used for the joint latent field.

Storage: a symmetric n x n matrix with bandwidth ``bw`` lives in an array
``ab`` of shape (bw + 1, n) with ``ab[i - j, j] = A[i, j]`` for
``j <= i <= j + bw``. Row 0 is the main diagonal, and row k holds the k-th
subdiagonal in its first n - k columns. This is the layout LAPACK
``pbtrf``/``tbtrs`` and BLAS ``dsbmv`` expect for ``lower=True``. Kept
column-major (Fortran order), the array is what LAPACK reads, so
``BandedChol`` factors it in place: the factor shares the input's memory
and the input is consumed. A C-ordered input is copied once and left as it
was.

The lower layout is the cheaper one to factor. With one OpenBLAS 0.3.31
thread on a 2-core x86-64 host, ``pbtrf`` took 24.8 ms in place of 38.7 ms
for the upper layout on the 96 x 96 mesh's band (n = 9216, bw = 192), and
1.15 ms against 1.16 ms at n = 1024, bw = 64; the two factors' diagonals
agreed to 7.8e-16 relative. ``dtbtrs`` costs about the same in both layouts.

Column-major band storage is also a dense column-major matrix with leading
dimension ``bw``: entry (i, j) of the band sits at flat position
``i + j * bw``. So a bw x bw block of the triangular factor is a zero-copy
view that level-3 BLAS takes as is. Posterior sampling maps hundreds of
right-hand sides through the factor at once and runs that back-substitution
blockwise in ``dtrsm``/``dtrmm``. The solves inside Newton (1 to 3 columns)
stay on LAPACK ``dtbtrs``, where a Python loop over n / bw blocks would cost
more than the level-2 solve it replaces.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import get_lapack_funcs
from scipy.linalg.blas import dgemm, dsbmv, dtrmm, dtrsm


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for symmetric banded A.

    The pipeline multiplies by Q through ``SparsePrecision.matvec``; this
    stays as the banded oracle of the tests and as a layer the benchmark's
    tracer times by this name.
    """
    return dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)


class BandedChol:
    """Cholesky factor A = L @ L.T of a symmetric positive definite banded A;
    the solves are named for R = L.T, the upper factor with A = R.T @ R.

    A Fortran-ordered ``ab`` is overwritten by L. Raises
    ``np.linalg.LinAlgError`` when A is not positive definite or holds a
    non-finite entry: a NaN anywhere in the band reaches L's diagonal.
    """

    def __init__(self, ab: np.ndarray):
        pbtrf, self._tbtrs = get_lapack_funcs(("pbtrf", "tbtrs"), (ab,))
        self.factor, info = pbtrf(ab, lower=1, overwrite_ab=1)
        if info != 0 or not np.isfinite(self.factor[0]).all():
            raise np.linalg.LinAlgError(
                f"banded Cholesky failed (pbtrf info={info}, or a non-finite pivot)"
            )

    @property
    def logdet(self) -> float:
        """log det A (twice the log-diagonal sum of L)."""
        return 2.0 * float(np.sum(np.log(self.factor[0])))

    def _solve_tri(self, b: np.ndarray, trans: str) -> np.ndarray:
        b2 = b if b.ndim == 2 else b[:, None]
        x, info = self._tbtrs(self.factor, b2, uplo="L", trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"tbtrs failed with info={info}")
        return x if b.ndim == 2 else x[:, 0]

    def solve_rt(self, b: np.ndarray) -> np.ndarray:
        """Solve R.T @ x = L @ x = b."""
        return self._solve_tri(b, "N")

    def solve_r(self, b: np.ndarray) -> np.ndarray:
        """Solve R @ x = L.T @ x = b."""
        return self._solve_tri(b, "T")

    def _block(self, i0: int, j0: int, rows: int, cols: int) -> np.ndarray:
        """L[i0:i0 + rows, j0:j0 + cols] as a view with leading dimension bw;
        only the entries inside the band are L's."""
        bw = self.factor.shape[0] - 1
        flat = self.factor.ravel(order="F")
        step = flat.itemsize
        return as_strided(flat[i0 + j0 * bw :], (rows, cols), (step, bw * step))

    def solve_r_many(self, xt: np.ndarray) -> None:
        """Solve L.T @ x = b in place on xt = b.T, a column-major (k, n) array.

        Back-substitution of x.T L = b.T in blocks of bw columns, from the
        last block: each block subtracts the solved block after it through
        the coupling L[I + bw, I] (upper triangular; upper trapezoidal
        before a short last block), then solves with the lower triangle
        L[I, I] applied from the right.
        """
        bw, n = self.factor.shape[0] - 1, self.factor.shape[1]
        for i0 in reversed(range(0, n, bw)):
            i1 = min(i0 + bw, n)
            if i1 < n:
                j1 = min(i1 + bw, n)
                b = j1 - i1
                done = xt[:, i1:j1]
                xt[:, i0 : i0 + b] -= dtrmm(1.0, self._block(i1, i0, b, b), done,
                                            side=1, lower=0)
                if b < bw:
                    dgemm(-1.0, done, self._block(i1, i0 + b, b, bw - b), beta=1.0,
                          c=xt[:, i0 + b : i1], overwrite_c=1)
            dtrsm(1.0, self._block(i0, i0, i1 - i0, i1 - i0), xt[:, i0:i1],
                  side=1, lower=1, overwrite_b=1)


class ArrowFactor:
    """Factorization of Q = [[A, B], [B.T, S]] with banded A and small dense S.

    Uses the block factor U = [[R, X], [0, Ls.T]] with A = R.T R (R = L.T of
    ``BandedChol``), X = R.T^{-1} B and Ls Ls.T = S - X.T X, so Q = U.T U.
    Solves, log determinant, and N(0, Q^{-1}) sampling all reduce to
    triangular solves.
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
        """Map standard normals to draws from N(0, Q^{-1}): solve U x = z.

        Columns are draws. A C-ordered ``z_w`` is overwritten by ``x_w``.
        """
        x_d = np.linalg.solve(self.ls.T, z_d)
        xt = np.asfortranarray(z_w.T)  # z_w's own memory when z_w is C-ordered
        dgemm(-1.0, x_d.T, self.x, beta=1.0, c=xt, trans_b=1, overwrite_c=1)
        self.rw.solve_r_many(xt)
        return xt.T, x_d
