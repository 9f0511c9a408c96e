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

The lower layout is the cheaper one to factor. With one thread of the
OpenBLAS 0.3.30 that scipy bundles, on a 2-core x86-64 host, ``pbtrf`` took
12.7 ms in place of 19.5 ms for the upper layout on the 96 x 96 mesh's band
(n = 9216, bw = 192; sigma = 1, rho = 300 m, 10 m cells; best of 21), and
0.51 ms against 0.59 ms at n = 1024, bw = 64; the two factors' diagonals
agreed to 7.5e-13 relative. ``dtbtrs`` costs about the same in both layouts.

The kernels are scipy's f2py wrappers: ``dpbtrf`` and ``dtbtrs`` of
``scipy.linalg._flapack``, ``dtrsm``, ``dtrmm``, ``dgemm`` and ``dsbmv`` of
``scipy.linalg._fblas``, the objects ``scipy.linalg.get_lapack_funcs`` and
``scipy.linalg.blas`` hand out. ``_wrapper_modules`` loads the two modules
from their extension files, so the ``scipy.linalg`` package is not
imported: its import, mostly its array-API layer cloning numpy, cost every
gridcox process about 0.16 s and 17 MB resident. Where the files cannot be
loaded it imports the package instead, and the wrappers are the same.

Column-major band storage is also a dense column-major matrix with leading
dimension ``bw``: entry (i, j) of the band sits at flat position
``i + j * bw``. So a bw x bw block of the triangular factor is a zero-copy
view that level-3 BLAS takes as is. Posterior sampling maps hundreds of
right-hand sides through the factor at once and runs that back-substitution
blockwise in ``dtrsm``/``dtrmm``. The solves inside Newton (1 to 3 columns)
stay on LAPACK ``dtbtrs``, where a Python loop over n / bw blocks would cost
more than the level-2 solve it replaces.

End elimination. The Poisson weights of a Newton step touch only the lattice
rows that hold data, so the rows before the first and after the last of them
(the halo, plus grid rows outside every domain) keep the prior's block
across the steps of one hyperparameter point. ``EndElimination`` factors
those two ends once, and each step's ``EndArrowFactor`` factors only the
middle rows' Schur complement (Rue & Held, GMRFs, 2005, ch. 2): on the 96 x
96 mesh of a 64-row grid, 64 of the 96 rows. The bottom end is eliminated in
reverse order, so its coupling to the middle sits in the last bw nodes of its
factor, as the top end's does in natural order; top-down, L^{-1} of the
coupling would fill the whole end. The result is the Hessian's solve and log
determinant up to rounding. Posterior draws still map through the natural
order factor of the whole lattice: a draw L^{-T} z depends on the
factorization, and another elimination order gives other (equally valid)
draws for the same seed.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
from numpy.lib.stride_tricks import as_strided


def _load_extension(name: str, directory: str, suffixes) -> object:
    """The extension module ``name`` from the first of its files in
    ``directory`` with one of ``suffixes``; ImportError when there is none.

    The module is entered in ``sys.modules`` under ``name``, so a later
    ``import scipy.linalg`` takes it from there; only the package attribute
    (``scipy.linalg._flapack``) stays unset, which ``from scipy.linalg
    import _flapack`` does not need.
    """
    stem = os.path.join(directory, name.rpartition(".")[2])
    for suffix in suffixes:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no extension file for {name} in {directory}")


def _wrapper_modules(suffixes=tuple(importlib.machinery.EXTENSION_SUFFIXES)) -> tuple:
    """scipy's f2py LAPACK and BLAS modules, ``scipy.linalg._flapack`` and
    ``scipy.linalg._fblas``: taken from ``sys.modules`` when loaded, else
    loaded from their extension files without the ``scipy.linalg`` package.
    Falls back to importing ``scipy.linalg`` when a file cannot be found or
    loaded; the wrappers are the same either way.
    """
    import scipy  # on Windows, this sets up the search path of scipy's DLLs

    directory = os.path.join(scipy.__path__[0], "linalg")
    try:
        return tuple(sys.modules.get(name) or _load_extension(name, directory, suffixes)
                     for name in ("scipy.linalg._flapack", "scipy.linalg._fblas"))
    except ImportError:
        from scipy.linalg import _fblas, _flapack

        return _flapack, _fblas


_flapack, _fblas = _wrapper_modules()
dpbtrf, dtbtrs = _flapack.dpbtrf, _flapack.dtbtrs
dgemm, dsbmv, dtrmm, dtrsm = _fblas.dgemm, _fblas.dsbmv, _fblas.dtrmm, _fblas.dtrsm


def matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for symmetric banded A.

    The pipeline multiplies by Q through ``SparsePrecision.matvec``; this
    stays as the banded oracle of the tests and as a layer the benchmark's
    tracer times by this name.
    """
    return dsbmv(ab.shape[0] - 1, 1.0, ab, x, lower=1)


def _block(ab: np.ndarray, i0: int, j0: int, rows: int, cols: int) -> np.ndarray:
    """A[i0:i0 + rows, j0:j0 + cols] of the column-major band ``ab`` as a view
    with leading dimension bw; only the entries inside the lower band are A's."""
    bw = ab.shape[0] - 1
    flat = ab.ravel(order="F")
    step = flat.itemsize
    return as_strided(flat[i0 + j0 * bw :], (rows, cols), (step, bw * step))


def _lower_band(a: np.ndarray) -> np.ndarray:
    """A symmetric n x n matrix in column-major band storage with bw = n.

    Entry (i, j), i >= j, has the flat offset i + j * n both in the band and in
    the matrix's own column-major layout, and the slots of the upper triangle
    are band slots below the matrix's end. So the band is the lower
    triangle's flat copy followed by n zeros.
    """
    n = a.shape[0]
    flat = np.zeros((n + 1) * n)
    flat[: n * n] = np.tril(a).ravel(order="F")
    return flat.reshape((n + 1, n), order="F")


class BandedChol:
    """Cholesky factor A = L @ L.T of a symmetric positive definite banded A;
    the solves are named for R = L.T, the upper factor with A = R.T @ R.

    A Fortran-ordered ``ab`` is overwritten by L. Raises
    ``np.linalg.LinAlgError`` when A is not positive definite or holds a
    non-finite entry: a NaN anywhere in the band reaches L's diagonal.
    """

    def __init__(self, ab: np.ndarray):
        self.factor, info = dpbtrf(ab, lower=1, overwrite_ab=1)
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
        x, info = dtbtrs(self.factor, b2, uplo="L", trans=trans)
        if info != 0:
            raise np.linalg.LinAlgError(f"tbtrs failed with info={info}")
        return x if b.ndim == 2 else x[:, 0]

    def solve_rt(self, b: np.ndarray) -> np.ndarray:
        """Solve R.T @ x = L @ x = b."""
        return self._solve_tri(b, "N")

    def solve_r(self, b: np.ndarray) -> np.ndarray:
        """Solve R @ x = L.T @ x = b."""
        return self._solve_tri(b, "T")

    def solve_r_many(self, xt: np.ndarray) -> None:
        """Solve L.T @ x = b in place on xt = b.T, a column-major (k, n) array.

        Back-substitution of x.T L = b.T in blocks of bw columns, from the
        last block: each block subtracts the solved block after it through
        the coupling L[I + bw, I] (upper triangular; upper trapezoidal
        before a short last block), then solves with the lower triangle
        L[I, I] applied from the right.
        """
        lf = self.factor
        bw, n = lf.shape[0] - 1, lf.shape[1]
        for i0 in reversed(range(0, n, bw)):
            i1 = min(i0 + bw, n)
            if i1 < n:
                j1 = min(i1 + bw, n)
                b = j1 - i1
                done = xt[:, i1:j1]
                xt[:, i0 : i0 + b] -= dtrmm(1.0, _block(lf, i1, i0, b, b), done,
                                            side=1, lower=0)
                if b < bw:
                    dgemm(-1.0, done, _block(lf, i1, i0 + b, b, bw - b), beta=1.0,
                          c=xt[:, i0 + b : i1], overwrite_c=1)
            dtrsm(1.0, _block(lf, i0, i0, i1 - i0, i1 - i0), xt[:, i0:i1],
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
        ``x_d`` comes from ``dtrsm``, whose columns do not depend on how
        many are solved at once (a one-column ``np.linalg.solve`` rounds
        otherwise), so a draw is the same in any block of draws.
        """
        x_d = dtrsm(1.0, self.ls, z_d, lower=1, trans_a=1)
        xt = np.asfortranarray(z_w.T)  # z_w's own memory when z_w is C-ordered
        dgemm(-1.0, x_d.T, self.x, beta=1.0, c=xt, trans_b=1, overwrite_c=1)
        self.rw.solve_r_many(xt)
        return xt.T, x_d


class EndElimination:
    """The fixed end blocks of a banded matrix, factored once for many middles.

    The matrix is H = [[E_t, K_t, 0], [K_t.T, M, K_b.T], [0, K_b, E_b]] in
    node order: a top end, a middle of at least bw nodes (so the ends do not
    touch), and a bottom end. Only M changes between factorizations. The ends come as one band
    ``ends``: the top end's ``n_top`` nodes in natural order, then the bottom
    end's in reverse order, with zeros across the junction. ``top`` is the
    band of the top end's last t = min(bw, n_top) nodes followed by the
    middle's first bw nodes; ``bottom`` the band of the bottom end's first t
    nodes and the middle's last bw nodes, in reverse order.

    With E = L_E L_E.T, the non-zero part C of each end's coupling K (t x bw,
    the end's tail against bw middle nodes) gives X = L_tail^{-1} C, L_tail
    the last t x t block of the end's factor; the rest of L_E^{-1} K is zero. The middle's Schur
    complement is M - X_t.T X_t - X_b.T X_b, which ``EndArrowFactor`` factors.
    """

    def __init__(self, ends: np.ndarray, n_top: int, top: np.ndarray, bottom: np.ndarray):
        bw, n_end = ends.shape[0] - 1, ends.shape[1]
        self.n_top = n_top
        self.chol = BandedChol(ends)
        t_top, t_bot = top.shape[1] - bw, bottom.shape[1] - bw
        self.tails = (slice(n_top - t_top, n_top), slice(n_end - t_bot, n_end))
        x = []
        for ext, tail in zip((top, bottom), self.tails):
            t = tail.stop - tail.start
            coupling = np.triu(_block(ext, t, 0, bw, t), t - bw).T
            x.append(dtrsm(1.0, _block(self.chol.factor, tail.start, tail.start, t, t),
                           coupling, lower=1))
        # the bottom's middle columns in natural order
        self.x_top, self.x_bottom = x[0], np.asfortranarray(x[1][:, ::-1])
        self.corrections = (_lower_band(x[0].T @ x[0]), _lower_band((x[1].T @ x[1])[::-1, ::-1]))


class EndArrowFactor:
    """``ArrowFactor`` of H = [[H_ww, B], [B.T, S]] whose w block has the fixed
    ends of an ``EndElimination``: the middle block M (band ``middle``, border
    ``b_dense`` on its rows; B is zero on the ends) is factored after the
    ends' Schur correction, which overwrites ``middle``. Solves and the log
    determinant are those of the whole H, with x_w in natural node order.
    """

    def __init__(self, ends: EndElimination, middle: np.ndarray, b_dense: np.ndarray,
                 s_dense: np.ndarray):
        bw = middle.shape[0] - 1
        top, bottom = ends.corrections
        middle[:, :bw] -= top
        middle[:, -bw:] -= bottom
        self.ends = ends
        self.arrow = ArrowFactor(middle, b_dense, s_dense)

    @property
    def logdet(self) -> float:
        return self.ends.chol.logdet + self.arrow.logdet

    def solve(self, b_w: np.ndarray, b_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Solve H @ (x_w, x_d) = (b_w, b_d): forward through the ends, the
        middle's right-hand side corrected at its two boundaries, the arrow
        solve, then back through the ends."""
        e, (top, bot) = self.ends, self.ends.tails
        bw = e.x_top.shape[1]
        p, q = e.n_top, e.n_top + self.arrow.x.shape[0]
        z = e.chol.solve_rt(np.concatenate([b_w[:p], b_w[q:][::-1]]))
        b_m = b_w[p:q].copy()
        b_m[:bw] -= e.x_top.T @ z[top]
        b_m[-bw:] -= e.x_bottom.T @ z[bot]
        x_m, x_d = self.arrow.solve(b_m, b_d)
        z[top] -= e.x_top @ x_m[:bw]
        z[bot] -= e.x_bottom @ x_m[-bw:]
        x_e = e.chol.solve_r(z)
        return np.concatenate([x_e[:p], x_m, x_e[p:][::-1]]), x_d
