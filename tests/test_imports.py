"""The import graph: ``import gridcox`` loads no scipy subpackage it does not use.

The prior is built from closed forms (stencil formulas, an elliptic integral
by the arithmetic-geometric mean), so neither sparse matrices nor quadrature
nor an optimizer belongs in a fresh interpreter after the import, and no
special function either: ``math.lgamma`` gives the log-factorials and the
gamma prior's constant, and importing ``scipy.special`` would cost every
process about 3.7 MB resident.
"""

import os
import subprocess
import sys
from pathlib import Path

UNUSED = ("scipy.sparse", "scipy.integrate", "scipy.optimize", "scipy.special")


def test_import_loads_no_unused_scipy_subpackage(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    code = f"import sys, gridcox; print(*[m for m in {UNUSED!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == []
