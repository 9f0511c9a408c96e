"""gridcox benchmark: one closed-loop client timing one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports gridcox from ``src``.
The seed picks which recorded replicates the run uses (see
``workloads.py``). Set-up imports the package, builds the inputs and, for the
CLI workload, writes its workspaces. Then one client runs the workload's
operation, the next only when the last is done, until ``--seconds`` have
passed, and checks every output against ``reference/<workload>.json``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run wraps each gridcox layer (see
``tracer.py``), runs the workload's fixed number of traced operations so that
counts repeat exactly, and reports the per-layer metrics instead. Lines
before it give each metric with its unit and the host context.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from check import mismatches
import tracer  # installs the span wrappers in spawned workers of a traced run

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
IMPORT_PROBES = 3
EVAL_BAND = 2  # theta evaluations either side of the median; see pick_replicates
PR_SET_CHILD_SUBREAPER = 36  # from <linux/prctl.h>
CHILD_GRACE_S = 30.0


def adopt_orphans() -> None:
    """Make this process the parent of its orphaned descendants (Linux only).

    The resource tracker of a CLI subprocess's spawn pool outlives that
    subprocess by a moment. Adopted, it can be waited for by ``end_children``.
    """
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    pids = []
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def end_children() -> None:
    """Stop this process's resource tracker and wait until every child has ended.

    The spawn pools start a multiprocessing resource tracker that would
    otherwise run until after this process exits. Children still running
    after ``CHILD_GRACE_S`` are killed, and then waited for too.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def fresh_import_s(src: Path) -> float:
    """Wall time of ``import gridcox`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gridcox"], env=env, check=True)
    return time.perf_counter() - t0


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of its largest child."""
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def pick_replicates(seed: int, reference: dict, n: int) -> list[int]:
    """The replicates a run uses, in order, drawn from the seed.

    Where the reference records each replicate's theta-evaluation count
    (``field_fit_96``, whose fits take 29 to 39 evaluations and whose runs
    hold only two operations), the seed draws only from the replicates
    within ``EVAL_BAND`` evaluations of the median count, so a run's median
    is set by the program and the host, not by which surveys the seed drew.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    evals = {int(k): e["info"].get("n_evals") for k, e in reference["entries"].items()}
    pool = sorted(evals)
    if None not in evals.values():
        mid = statistics.median(evals.values())
        pool = [r for r in pool if abs(evals[r] - mid) <= EVAL_BAND]
    return [int(r) for r in rng.permutation(pool)[:n]]


def run_op(wl, inp, work: Path, tag: str, reference: dict):
    """Run and check one operation; returns (wall seconds, ok, fits completed)."""
    entry = reference["entries"][str(inp["entry"])]
    tol = reference["tolerance"]
    t0 = time.perf_counter()
    try:
        outputs, _ = wl.operate(inp, work, tag)
    except Exception:
        wall = time.perf_counter() - t0
        print(f"operation {tag} (replicate {inp['entry']}) failed:", file=sys.stderr)
        traceback.print_exc()
        return wall, False, 0
    wall = time.perf_counter() - t0
    bad = mismatches(outputs, entry["outputs"], tol["rtol"], tol["atol"])
    for line in bad[:10]:
        print(f"operation {tag} (replicate {inp['entry']}) output mismatch {line}",
              file=sys.stderr)
    return wall, not bad, wl.fits_per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "gridcox" / "__init__.py").is_file():
        print(f"error: no gridcox source under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    adopt_orphans()
    work = root / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, root, src, work)
    finally:
        end_children()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass


def measure(args, root: Path, src: Path, work: Path) -> int:
    traced = bool(args.trace)
    if traced:
        trace_dir = work / "spans"
        trace_dir.mkdir()
        os.environ[tracer.ENV] = str(trace_dir)
        tracer.install()
    else:
        os.environ.pop(tracer.ENV, None)

    import host
    import workloads

    wls = workloads.all_workloads(HERE / "cli_launch.py" if traced else None)
    if args.workload not in wls:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(wls)}",
              file=sys.stderr)
        return 2
    wl = wls[args.workload]
    with open(HERE / "reference" / f"{wl.name}.json") as fh:
        reference = json.load(fh)

    # set-up: a fresh interpreter's import, then the inputs of each operation
    import_times = [fresh_import_s(src) for _ in range(IMPORT_PROBES)]
    entries = pick_replicates(args.seed, reference, wl.trace_ops if traced else wl.n_inputs)
    inputs, build_times = [], []
    for entry in entries:
        t0 = time.perf_counter()
        inputs.append(wl.prepare(entry, work))
        build_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(build_times)

    ctx = host.context(root)
    span_cost = tracer.span_cost() if traced else 0.0
    counters0 = host.cpu_counters()
    cpu0 = cpu_s()
    t_start = time.perf_counter()
    walls, replicates, fails, fits = [], [], 0, 0
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        wall, ok, n_fits = run_op(wl, inp, work, str(i), reference)
        walls.append(wall)
        replicates.append(inp["entry"])
        fails += not ok
        fits += n_fits
        i += 1
        if traced:
            if i == wl.trace_ops:
                break
        elif time.perf_counter() - t_start >= args.seconds:
            break
    run_wall = time.perf_counter() - t_start
    cpu = cpu_s() - cpu0
    peak_mb = peak_rss_mb()
    ctx["steal_share"] = host.steal_share(counters0, host.cpu_counters())
    # after the loop, so that its arrays count in neither peak RSS nor CPU
    calib = host.calibration_s()
    ctx["calibration_s"] = calib
    ctx["import_probes_s"] = import_times
    ctx["replicates"] = replicates
    ctx["op_walls_s"] = walls

    if traced:
        tracer.write(os.environ[tracer.ENV])
        procs = tracer.load(os.environ[tracer.ENV])
        metrics = tracer.layer_metrics(
            procs, bench_pid=os.getpid(), t_start=t_start, n_ops=len(walls),
            workers=wl.workers, op_walls=walls, span_cost=span_cost,
        )
        metrics["cli.import_s"] = (statistics.median(import_times), "s")
        metrics["host.calibration_s"] = (calib, "s")
        metrics["host.steal_share"] = (ctx["steal_share"], "share")
    else:
        metrics = {
            "op_s": (statistics.median(walls), "s"),
            "fits_per_s": (fits / run_wall, "1/s"),
            "cpu_s_per_fit": (cpu / max(fits, 1), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "setup_s": (setup_s, "s"),
            "success_rate": (1.0 - fails / len(walls), "share"),
        }
        print(f"error_rate {fails / len(walls)} share")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print("host " + json.dumps(ctx))
    print(json.dumps({
        "correct": fails == 0,
        "attempted": len(walls),
        "failed": fails,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
