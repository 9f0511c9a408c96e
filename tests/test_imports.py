"""The import graph: ``import gridcox`` loads no scipy subpackage it does not use.

The prior is built from closed forms (stencil formulas, an elliptic integral
by the arithmetic-geometric mean), so neither sparse matrices nor quadrature
nor an optimizer belongs in a fresh interpreter after the import, and no
special function either: ``math.lgamma`` gives the log-factorials and the
gamma prior's constant, and importing ``scipy.special`` would cost every
process about 3.7 MB resident.

Nor the ``scipy.linalg`` package: ``_banded`` loads its two f2py modules
(``_flapack``, ``_fblas``) from their extension files and calls their
wrappers directly. The package's import, mostly its array-API layer cloning
numpy, took another 0.16 s and 17 MB resident on top of ``import gridcox.cli``
(39 MB) on a 2-core x86-64 host.
"""

import os
import subprocess
import sys
from pathlib import Path

UNUSED = ("scipy.sparse", "scipy.integrate", "scipy.optimize", "scipy.special", "scipy.linalg")


def run_fresh(code, cwd):
    """stdout of ``code`` run in a fresh interpreter that imports this checkout's gridcox."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_loads_no_unused_scipy_subpackage(tmp_path):
    code = f"import sys, gridcox; print(*[m for m in {UNUSED!r} if m in sys.modules])"
    assert run_fresh(code, tmp_path).split() == []


# A random symmetric positive definite band (diagonally dominant), factored
# and solved through the wrappers ``pbtrf``, ``tbtrs`` and ``trsm`` and
# through ``_banded``; every pair must agree to the bit.
COMPARE = """
import numpy as np
rng = np.random.default_rng(28)
n, bw, k = 500, 20, 7
ab = np.asfortranarray(rng.uniform(-1.0, 1.0, (bw + 1, n)))
ab[0] = 2.0 * bw + 1.0
b = rng.standard_normal((n, k))
lf, info = pbtrf(ab.copy(order="F"), lower=1)
assert info == 0
chol = _banded.BandedChol(ab.copy(order="F"))
assert np.array_equal(chol.factor, lf)
for trans, solve in (("N", chol.solve_rt), ("T", chol.solve_r)):
    assert np.array_equal(solve(b), tbtrs(lf, b, uplo="L", trans=trans)[0])
dense = np.tril(rng.standard_normal((k, k))) + k * np.eye(k)
assert np.array_equal(_banded.dtrsm(1.0, dense, b.T, lower=1, trans_a=1),
                      trsm(1.0, dense, b.T, lower=1, trans_a=1))
print("same")
"""


def test_wrappers_match_scipy_linalg_to_the_bit(tmp_path):
    code = (
        "import sys, gridcox\n"
        "import numpy as np\n"
        "from gridcox import _banded\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        "import scipy.linalg\n"
        "from scipy.linalg import blas, lapack\n"
        "pbtrf, tbtrs = lapack.get_lapack_funcs(('pbtrf', 'tbtrs'), (np.zeros(1),))\n"
        "trsm = blas.dtrsm\n"
        + COMPARE
    )
    assert run_fresh(code, tmp_path).split() == ["same"]


def test_loader_falls_back_to_the_scipy_linalg_import(tmp_path):
    # With no extension suffix to try, the loader cannot find either file, so
    # it imports scipy.linalg and returns the package's modules.
    code = (
        "import sys\n"
        "from gridcox import _banded\n"
        "del sys.modules['scipy.linalg._flapack'], sys.modules['scipy.linalg._fblas']\n"
        "flapack, fblas = _banded._wrapper_modules(suffixes=())\n"
        "assert 'scipy.linalg' in sys.modules\n"
        "assert flapack is sys.modules['scipy.linalg._flapack']\n"
        "assert fblas is sys.modules['scipy.linalg._fblas']\n"
        "pbtrf, tbtrs, trsm = flapack.dpbtrf, flapack.dtbtrs, fblas.dtrsm\n"
        + COMPARE
    )
    assert run_fresh(code, tmp_path).split() == ["same"]
