"""Order-balanced A/B runs of the benchmark in two source checkouts.

    python3 tools/ab_pairs.py --base DIR --head DIR --workload NAME \
        --seeds 11-20 [--out BENCH_NAME.json]

Each seed is one pair of four runs of ``perfbench/run.py --trace 0`` with
that seed, in the order base, head, head, base (ABBA). A side's value for
the seed is the mean of its two runs: each side runs once before the other
and once after it, so an effect of run order, or a drift in host load that
is linear over the four runs, falls on both sides alike. Every run lasts
``run_seconds`` from the base checkout's ``BENCHMARK.json``.

The output JSON holds every run's position in its seed (1 to 4), end-to-end
metrics, correctness and host line (cores, affinity, BLAS threads,
versions); per side, the median and quartiles over the seeds of each
metric's two-run mean; and per metric, the seeds the head wins, its median
change, and whether that change exceeds the base's interquartile spread.
To show an order effect, each metric also counts the head's wins within the
inner pairs alone: runs 1 and 2, where the head runs second, and runs 3 and
4, where it runs first. A metric's direction ("lower" or "higher" is better)
comes from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ORDER = ("base", "head", "head", "base")  # the runs of one seed, positions 1 to 4


def parse_seeds(text: str) -> list[int]:
    """'11-15,21' -> [11, 12, 13, 14, 15, 21]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def revision(checkout: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its result line, host line and metric values."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((json.loads(ln[5:]) for ln in lines if ln.startswith("host ")), {})
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "host": host,
    }


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def by_position(runs: dict, name: str) -> dict:
    """Each position's values of one metric, in seed order."""
    return {pos: [r["metrics"][name] for r in runs[side] if r["position"] == pos]
            for pos, side in enumerate(ORDER, start=1)}


def summarize(runs: dict, directions: dict) -> dict:
    """Per side, the median and quartiles of its two-run means; per metric,
    the head's wins over the base, over the means and within the inner pairs."""
    out = {}
    for name, better in directions.items():
        at = by_position(runs, name)
        sides = {"base": [(a + d) / 2 for a, d in zip(at[1], at[4])],
                 "head": [(b + c) / 2 for b, c in zip(at[2], at[3])]}
        sign = 1.0 if better == "lower" else -1.0

        def wins(base, head):
            return sum(sign * (b - h) > 0 for b, h in zip(base, head))

        base, head = spread(sides["base"]), spread(sides["head"])
        change = head["median"] - base["median"]
        out[name] = {
            "better": better,
            "base": base,
            "head": head,
            "head_wins": wins(sides["base"], sides["head"]),
            "head_wins_running_second": wins(at[1], at[2]),
            "head_wins_running_first": wins(at[4], at[3]),
            "pairs": len(sides["base"]),
            "median_change": change / base["median"] if base["median"] else None,
            "beyond_base_iqr": abs(change) > base["q3"] - base["q1"],
        }
    return out


def dumps(report: dict) -> str:
    """Indented JSON with each list of plain values on one line."""
    text = json.dumps(report, indent=1)
    # JSON strings hold no raw newline, so only the indentation is joined
    return re.sub(r"\[\n\s+([^\[\]{}]*?)\n\s*\]",
                  lambda m: "[" + re.sub(r",\n\s*", ", ", m[1]) + "]", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the baseline")
    parser.add_argument("--head", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 11-20")
    parser.add_argument("--out", type=Path, help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    bench = json.loads((args.base / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"base": args.base.resolve(), "head": args.head.resolve()}
    runs = {"base": [], "head": []}
    for i, seed in enumerate(args.seeds):
        for position, side in enumerate(ORDER, start=1):
            run = run_once(checkouts[side], args.workload, seed, seconds)
            run["position"] = position
            runs[side].append(run)
            print(f"pair {i + 1}/{len(args.seeds)} seed {seed} run {position} {side}: "
                  f"op_s {run['metrics'].get('op_s', float('nan')):.3f} "
                  f"correct {run['correct']}", flush=True)

    report = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": args.seeds,
        "revisions": {side: revision(path) for side, path in checkouts.items()},
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "summary": summarize(runs, directions),
        "runs": runs,
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(dumps(report) + "\n")
    for name, s in report["summary"].items():
        print(f"{name}: base {s['base']['median']:.4g} [{s['base']['q1']:.4g}, "
              f"{s['base']['q3']:.4g}] -> head {s['head']['median']:.4g} "
              f"[{s['head']['q1']:.4g}, {s['head']['q3']:.4g}]; head better in "
              f"{s['head_wins']}/{s['pairs']} (inner pairs: running second "
              f"{s['head_wins_running_second']}, running first "
              f"{s['head_wins_running_first']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
