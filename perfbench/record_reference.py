"""Record the reference outputs that every benchmark operation is checked against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the repository root. For each workload (all by default) this runs
the operation once on every replicate of its pool and writes
``perfbench/reference/<workload>.json``: the checked outputs, the tolerance
they are checked at, and, for information only, the fit counts at recording.

Outputs are checked at a relative 1e-6 (absolute 1e-9 near zero). A program
that does the same arithmetic in another order, or replaces a factorization
by a closed form that agrees to 1e-16, reproduces them far inside that; a
perturbed posterior, score or DIC does not.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
TOLERANCE = {"rtol": 1e-6, "atol": 1e-9}


def main(argv: list[str]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import host
    import workloads

    wls = workloads.all_workloads()
    names = argv or sorted(wls)
    for name in names:
        wl = wls[name]
        entries = {}
        with tempfile.TemporaryDirectory(dir=root) as tmp:
            for entry in range(wl.pool_size):
                inp = wl.prepare(entry, Path(tmp))
                outputs, info = wl.operate(inp, Path(tmp), f"ref{entry}")
                entries[str(entry)] = {"outputs": outputs, "info": info}
                print(name, entry, info, flush=True)
        doc = {
            "workload": name,
            "tolerance": TOLERANCE,
            "source": host.source_id(root),
            "entries": entries,
        }
        out = HERE / "reference" / f"{name}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
