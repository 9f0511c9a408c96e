"""Host context recorded beside every run.

On a shared 2-core box the same fixed-seed fit has read 13.45 s and then
17.8 s twenty minutes later, so each run records what the machine looked
like: cores, CPU affinity, the OpenBLAS thread counts the process sees,
interpreter and library versions, the source it ran, the CPU steal share
from ``/proc/stat`` over the run, and the time of a fixed calibration loop.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cholesky_banded


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS library loaded in this process."""
    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and path.endswith(".so"):
                libs.add(path)
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def source_id(root: Path) -> str:
    """The git commit when there is one, else a digest of the package source."""
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gridcox").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def cpu_counters() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice
    return fields[7], sum(fields[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter, BLAS and banded LAPACK work (median of 3).

    The banded Cholesky has the shape of a ``field_fit_96`` prior factor
    (n = 9216, bandwidth 192): it streams 14 MB through both OpenBLAS
    threads, so it slows with memory contention and CPU steal as the fits do.
    """
    times = []
    a = np.random.default_rng(0).standard_normal((256, 256))
    band = np.full((193, 9216), 0.004)
    band[-1] = 2.0  # diagonally dominant, so positive definite
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        b = a
        for _ in range(100):
            b = a @ b
            b /= np.abs(b).max()
        for _ in range(3):
            cholesky_banded(band)
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def context(root: Path) -> dict:
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "source": source_id(root),
    }
