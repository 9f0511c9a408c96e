"""The benchmark's span tracer still finds every gridcox name it wraps.

``perfbench/tracer.py`` patches module globals and class attributes by name,
so renaming or deleting one of them breaks traced benchmark runs. Installing
the tracer in a fresh interpreter is the cheap check.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)  # import without the exit hook
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
