"""Check every replicate of a benchmark workload against its recorded outputs.

    python3 tools/check_references.py --workload W [--write FILE] [--against FILE]

Run it from the root of a source checkout: it imports gridcox from ``src``
and runs ``perfbench/workloads.py``'s ``prepare`` and ``operate`` (read-only)
for every replicate in the workload's pool, where ``perfbench/run.py``
checks only the replicates its seed picks. One line per replicate:

- ``pass`` or ``FAIL`` at the reference tolerance (``perfbench/check.py``);
- the largest relative deviation of any float output from the reference;
- each count the reference records in ``info`` (θ evaluations and Newton
  iterations of ``field_fit_96``), as ``got/reference``;
- a SHA-256 digest of the simulated points: the survey ``prepare`` draws,
  or the ``points.csv`` that ``gridcox simulate`` writes.

``--write`` saves the outputs, counts and digests as JSON. ``--against``
reads such a file, written in another checkout, and adds to each line the
largest relative deviation from it and whether the counts and the points
digest are the same.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [str(Path("src").resolve()), str(Path("perfbench").resolve())]

from check import mismatches  # noqa: E402
from workloads import all_workloads  # noqa: E402


def float_pairs(got, want):
    """Every (got, want) pair of floats at the same place in two outputs."""
    if isinstance(want, dict) and isinstance(got, dict):
        for k in want.keys() & got.keys():
            yield from float_pairs(got[k], want[k])
    elif isinstance(want, list) and isinstance(got, list):
        for g, w in zip(got, want):
            yield from float_pairs(g, w)
    elif isinstance(want, float) and isinstance(got, (int, float)):
        yield float(got), want


def max_rel_dev(got, want) -> float:
    return max((abs(g - w) / (abs(w) or 1.0) for g, w in float_pairs(got, want)), default=0.0)


def points_digest(inp: dict) -> str:
    h = hashlib.sha256()
    if "points" in inp:
        for arr in (inp["points"].x, inp["points"].y, inp["points"].campaign):
            h.update(arr.tobytes())
    else:
        h.update((inp["config"].parent / "out" / "points.csv").read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["field_fit_96", "glm_study_64", "cli_crossval_3c"])
    parser.add_argument("--write", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)
    workload = all_workloads()[args.workload]
    reference = json.loads(Path(f"perfbench/reference/{args.workload}.json").read_text())
    tol = reference["tolerance"]
    other = json.loads(args.against.read_text()) if args.against else None
    results, failed = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        for entry in range(workload.pool_size):
            ref = reference["entries"][str(entry)]
            inp = workload.prepare(entry, Path(tmp))
            outputs, info = workload.operate(inp, Path(tmp), f"r{entry}")
            bad = mismatches(outputs, ref["outputs"], tol["rtol"], tol["atol"])
            failed += bool(bad)
            res = {"outputs": outputs, "info": info, "points": points_digest(inp)}
            results[str(entry)] = res
            line = [args.workload, str(entry), "FAIL" if bad else "pass",
                    f"maxrel {max_rel_dev(outputs, ref['outputs']):.1e}"]
            line += [f"{k} {info.get(k)}/{v}" for k, v in ref["info"].items()]
            line.append(f"points {res['points']}")
            if other is not None:
                o = other[str(entry)]
                line += [f"| vs other: maxrel {max_rel_dev(outputs, o['outputs']):.1e}",
                         "info same" if info == o["info"] else "info DIFFERS",
                         "points same" if res["points"] == o["points"] else "points DIFFER"]
            print(" ".join(line), flush=True)
            for msg in bad[:5]:
                print(f"    {msg}", flush=True)
    if args.write:
        args.write.write_text(json.dumps(results, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
