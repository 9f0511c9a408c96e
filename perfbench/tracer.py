"""Span tracing of gridcox, installed from outside the package.

Each wrapper replaces a name where the pipeline looks it up (a module global
or a class attribute), times every call and records a span: an id, the id of
the span that was open when it started, a layer name, start and end on the
system-wide monotonic clock, and a few counts read from the call's result.

Importing this module with ``PERFBENCH_TRACE_DIR`` set installs the
wrappers. ``run.py`` and ``cli_launch.py`` import it at top level, and a
spawn pool re-imports the launcher as ``__mp_main__`` in every worker, so
workers trace too. Each process writes ``spans-<pid>.json`` into that
directory when it exits. The span list is module state on purpose: it has to
live as long as the process and be reachable from the exit hook.
"""

from __future__ import annotations

import atexit
import functools
from collections import Counter, defaultdict
import json
import os
import statistics
import time

ENV = "PERFBENCH_TRACE_DIR"

_spans: list[list] = []  # [id, parent, name, start, end, info]
_open: list[int] = []


def wrap(name: str, fn, inspect=None):
    """``fn`` recording one span per call; ``inspect(result)`` adds counts."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = [len(_spans), _open[-1] if _open else None, name, time.perf_counter(), None, None]
        _spans.append(rec)
        _open.append(rec[0])
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec[5] = {"error": 1}
            raise
        finally:
            rec[4] = time.perf_counter()
            _open.pop()
        if inspect is not None:
            rec[5] = inspect(out)
        return out

    return traced


def _fit_info(post) -> dict:
    d = post.diagnostics
    return {k: int(d.get(k, 0)) for k in ("n_evals", "newton_iters", "grid_points")}


def _task_info(result) -> dict:
    return {"failed": int(result[-1] is not None)}


def install() -> None:
    """Wrap the public callables of each gridcox module where they are looked up."""
    from gridcox import _banded, cli, crossval, gmrf, inference

    def patch(owner, attr, name, inspect=None):
        setattr(owner, attr, wrap(name, getattr(owner, attr), inspect))

    patch(_banded.BandedChol, "__init__", "banded.chol")
    patch(_banded.BandedChol, "_solve_tri", "banded.tri_solve")
    patch(_banded, "matvec", "banded.matvec")
    patch(_banded.ArrowFactor, "__init__", "banded.arrow_factor")

    patch(inference, "build_precision", "gmrf.build_precision")
    cached = gmrf.LatticeMesh.__dict__["templates"]
    templates = functools.cached_property(wrap("gmrf.templates", cached.func))
    templates.__set_name__(gmrf.LatticeMesh, "templates")
    gmrf.LatticeMesh.templates = templates

    patch(inference, "build_design", "model.build_design")

    # posterior sampling: rebuilding the factor at a grid point, then drawing
    patch(inference._Explorer, "factor_at", "inference.sample")
    patch(_banded.ArrowFactor, "sample", "inference.sample")
    patch(inference._DenseFactor, "sample", "inference.sample")
    for mod in (inference, crossval):
        patch(mod, "fit", "inference.fit", _fit_info)
        patch(mod, "bin_points", "inference.bin_points")
        patch(mod, "compute_dic", "inference.dic")
        patch(mod, "summarize", "inference.summarize")

    patch(crossval, "run_study", "crossval.study")
    patch(cli, "run_study", "crossval.study")
    patch(crossval, "_full_fit_task", "crossval.task", _task_info)
    patch(crossval, "_fold_fit_task", "crossval.task", _task_info)
    patch(crossval, "validation_residuals", "crossval.residuals")
    patch(crossval, "aggregate_crps", "crossval.crps")
    patch(crossval, "crps_empirical", "crossval.crps_call")

    for reader in ("load_raster", "read_legend", "read_points", "read_campaign_domains"):
        patch(cli, reader, "geodata.io")
    patch(crossval, "build_partition", "geodata.partition")

    patch(cli, "main", "cli.main")


def write(directory: str) -> None:
    """Write this process's spans; a no-op once the directory is gone."""
    if os.path.isdir(directory):
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": _spans}, fh)


def span_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    traced = wrap("trace.calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    mark = len(_spans)
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    cost = (time.perf_counter() - t0 - bare) / calls
    del _spans[mark:]
    return max(cost, 0.0)


def load(directory: str) -> list[dict]:
    """Span files of every process that traced, one dict per process."""
    procs = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-"):
            with open(os.path.join(directory, name)) as fh:
                procs.append(json.load(fh))
    return procs


def layer_metrics(procs, bench_pid, t_start, n_ops, workers, op_walls, span_cost) -> dict:
    """Per-operation layer metrics, as {name: (value, unit)}.

    A layer's time sums its outermost spans, so a span nested in one of the
    same name is not counted twice; ``banded.arrow_factor_s`` is self time,
    net of the factorizations and solves it calls. ``trace.uncovered_s`` is
    the operation wall time that no top-level span of the bench or CLI
    process covers: interpreter start-up, the CLI's exit and the bench's own
    glue.
    """
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    self_time: defaultdict = defaultdict(float)
    info: Counter = Counter()
    covered = 0.0
    n_spans = 0
    entry_procs = 0
    for proc in procs:
        spans = [s for s in proc["spans"] if s[4] is not None and s[3] >= t_start]
        by_id = {s[0]: s for s in spans}
        child_time: defaultdict = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[4] - s[3]
        is_entry = proc["pid"] == bench_pid or any(s[2] == "cli.main" for s in spans)
        entry_procs += is_entry
        for sid, parent, name, start, end, extra in spans:
            dur = end - start
            n_spans += 1
            calls[name] += 1
            self_time[name] += dur - child_time[sid]
            p = parent
            while p in by_id and by_id[p][2] != name:
                p = by_id[p][1]
            if p not in by_id:
                total[name] += dur
            if is_entry and parent is None:
                covered += dur
            for k, v in (extra or {}).items():
                info[f"{name}.{k}"] += v

    def per_op(v):
        return v / n_ops

    def c(name):
        return (per_op(calls[name]), "count")

    def t(name):
        return (per_op(total[name]), "s")

    def n(key):
        return (per_op(info[key]), "count")

    study = total["crossval.study"]
    task = total["crossval.task"]
    evals = info["inference.fit.n_evals"]
    cli_main = total["cli.main"]
    return {
        "banded.chol_calls": c("banded.chol"),
        "banded.chol_s": t("banded.chol"),
        "banded.matvec_calls": c("banded.matvec"),
        "banded.matvec_s": t("banded.matvec"),
        "banded.tri_solve_calls": c("banded.tri_solve"),
        "banded.tri_solve_s": t("banded.tri_solve"),
        "banded.arrow_factor_s": (per_op(self_time["banded.arrow_factor"]), "s"),
        "gmrf.build_precision_calls": c("gmrf.build_precision"),
        "gmrf.build_precision_s": t("gmrf.build_precision"),
        "gmrf.templates_builds": c("gmrf.templates"),
        "gmrf.templates_s": t("gmrf.templates"),
        "model.build_design_calls": c("model.build_design"),
        "model.build_design_s": t("model.build_design"),
        "inference.fit_calls": c("inference.fit"),
        "inference.fit_s": t("inference.fit"),
        "inference.fit_errors": n("inference.fit.error"),
        "inference.theta_evals": n("inference.fit.n_evals"),
        "inference.theta_grid_share": (
            info["inference.fit.grid_points"] / evals if evals else 0.0, "share"),
        "inference.newton_iters": n("inference.fit.newton_iters"),
        "inference.bin_points_s": t("inference.bin_points"),
        "inference.sample_s": t("inference.sample"),
        "inference.dic_s": t("inference.dic"),
        "inference.summarize_s": t("inference.summarize"),
        "crossval.study_s": t("crossval.study"),
        "crossval.task_s": t("crossval.task"),
        "crossval.overhead_s": (per_op(study - task / workers) if workers else 0.0, "s"),
        "crossval.worker_busy_share": (
            task / (workers * study) if workers and study else 0.0, "share"),
        "crossval.processes_spawned": (per_op(len(procs) - entry_procs), "count"),
        "crossval.residuals_s": t("crossval.residuals"),
        "crossval.crps_s": t("crossval.crps"),
        "crossval.crps_calls": c("crossval.crps_call"),
        "crossval.task_failures": n("crossval.task.failed"),
        "geodata.io_s": t("geodata.io"),
        "geodata.partition_s": t("geodata.partition"),
        "cli.self_s": (
            per_op(cli_main - study - total["geodata.io"]) if cli_main else 0.0, "s"),
        "trace.op_s": (statistics.median(op_walls), "s"),
        "trace.uncovered_s": (per_op(sum(op_walls) - covered), "s"),
        "trace.spans": (per_op(n_spans), "count"),
        "trace.overhead_share": (n_spans * span_cost / sum(op_walls), "share"),
    }


if os.environ.get(ENV):
    install()
    atexit.register(write, os.environ[ENV])
