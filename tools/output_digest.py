"""SHA-256 digests of a benchmark workload's outputs, to show that two
checkouts compute the same bytes.

    python3 tools/output_digest.py --workload W --replicates 0,3,7 [--workers N]

Run it from the root of a source checkout: it imports gridcox from ``src``
and builds each replicate's inputs with ``perfbench/workloads.py``'s
``prepare`` (read-only). Running the same command in two checkouts and
diffing the output compares them. One line per output:

``field_fit_96``
    the fit's ``dense``, ``w`` and ``log_hyper`` draws, the summary, the DIC
    and the diagnostics. ``w`` is digested on the grid cells: draws kept on
    the whole mesh, halo included, are first read at ``mesh.grid_to_mesh``,
    so a checkout that keeps them mesh-wide and one that keeps them on the
    grid give the same digest when the values agree;
``glm_study_64``
    the ``run_study`` table's ``scores``, ``by_subset``, ``mean_residual``,
    DIC, posterior ``summaries`` of the full fits and ``failures``;
``cli_crossval_3c``
    every file that ``gridcox simulate`` (in set-up) and ``gridcox
    crossval`` write.

``--workers`` sets the study's or the CLI's worker count (default: the
workload's own); ``field_fit_96`` runs no study and takes none.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path("src").resolve()), str(Path("perfbench").resolve())]

from gridcox import cli, crossval, inference  # noqa: E402
from gridcox.crossval import derive_rng  # noqa: E402
from gridcox.gmrf import LatticeMesh  # noqa: E402
from workloads import all_workloads  # noqa: E402


def _feed(h, obj) -> None:
    """Hash ``obj`` with its structure: arrays by dtype, shape and bytes."""
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, bytes):
        h.update(f"bytes{len(obj)}:".encode())
        h.update(obj)
    elif isinstance(obj, (np.ndarray, float, np.floating)):
        arr = np.ascontiguousarray(obj)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    else:
        h.update(f"{type(obj).__name__}:{obj!r}".encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def field_fit(workload, inp: dict) -> dict:
    """The fit of ``FieldFit96.operate``, keeping the draws."""
    stack = inp["stack"]
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=workload.RHO)
    like = inference.bin_points(inp["spec"], stack, inp["domains"], inp["points"], mesh=mesh)
    post = inference.fit(like, n_draws=800, rng=derive_rng(7, "ac5-fit", inp["entry"]))
    summ = inference.summarize(post)
    w = post.w[:, mesh.grid_to_mesh] if post.w.shape[1] == mesh.n else post.w
    return {
        "dense": post.dense,
        "w": w,
        "log_hyper": post.log_hyper,
        "summary": vars(summ),
        "dic": vars(inference.compute_dic(like, post)),
        "diagnostics": post.diagnostics,
    }


def glm_study(inp: dict, workers: int) -> dict:
    """The study of ``GlmStudy64.operate``, keeping the whole table."""
    table = crossval.run_study(
        inp["stack"], inp["domains"], inp["points"], inp["specs"], n_folds=5,
        n_draws=500, partition_dims=(8, 8), seed=inp["entry"], workers=workers,
    )
    return {
        "scores": table.scores,
        "by_subset": table.by_subset,
        "mean_residual": table.mean_residual,
        "dic": {m: vars(r) for m, r in table.dic.items()},
        "summaries": {m: vars(s) for m, s in table.summaries.items()},
        "failures": table.failures,
    }


def cli_crossval(inp: dict, workers: int, workdir: Path) -> dict:
    """``gridcox crossval`` on the workspace set-up simulated; every file written."""
    ws = inp["config"].parent
    out = workdir / f"cv{inp['entry']}"
    argv = ["crossval", "--config", str(inp["config"]), "--workers", str(workers),
            "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"gridcox crossval exited {rc}")
    files = {f"simulate/{p.name}": p for p in sorted((ws / "out").iterdir())}
    files.update({f"crossval/{p.name}": p for p in sorted(out.iterdir())})
    return {name: p.read_bytes() for name, p in files.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["field_fit_96", "glm_study_64", "cli_crossval_3c"])
    parser.add_argument("--replicates", required=True, help="comma-separated, e.g. 0,3,7")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    workload = all_workloads()[args.workload]
    workers = workload.workers if args.workers is None else args.workers
    if args.workload == "field_fit_96" and args.workers is not None:
        parser.error("field_fit_96 runs no study; drop --workers")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for entry in (int(r) for r in args.replicates.split(",")):
            inp = workload.prepare(entry, workdir)
            if args.workload == "field_fit_96":
                outputs = field_fit(workload, inp)
            elif args.workload == "glm_study_64":
                outputs = glm_study(inp, workers)
            else:
                outputs = cli_crossval(inp, workers, workdir)
            for name, value in outputs.items():
                print(f"{args.workload} {entry} {name} {digest(value)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
