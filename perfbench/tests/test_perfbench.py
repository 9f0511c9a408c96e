"""Self-tests of the benchmark: the output check, traced counts and a bare checkout.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests

The traced-count test runs each workload's traced operations twice, so the
file takes a few minutes on 2 cores.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from check import mismatches  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# any seed: every field_fit_96 replicate a seed can draw takes 35 to 37
# theta evaluations
TRACE_SEED = 11


def reference(name):
    return json.loads((BENCH / "reference" / f"{name}.json").read_text())


def run_bench(workload, trace, seed=TRACE_SEED, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def float_paths(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from float_paths(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from float_paths(v, path + (i,))
    elif isinstance(obj, float):
        yield path


def perturbed(obj, path, rel):
    out = copy.deepcopy(obj)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = target[path[-1]] * (1.0 + rel) or rel
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_accepts_rounding_and_rejects_perturbation(name):
    ref = reference(name)
    tol = ref["tolerance"]
    for entry in ref["entries"].values():
        want = entry["outputs"]
        paths = list(float_paths(want))
        assert paths
        for path in paths:
            assert mismatches(perturbed(want, path, 1e-12), want, **tol) == []
            assert mismatches(perturbed(want, path, 1e-4), want, **tol), path
        if "ranking" in want:
            swapped = copy.deepcopy(want)
            swapped["ranking"][:2] = swapped["ranking"][1::-1]
            assert mismatches(swapped, want, **tol)


def test_closed_form_logdet_equivalent_program_passes(monkeypatch, tmp_path):
    """A log determinant one ulp away from the Cholesky one (as a closed form
    agreeing to 1.2e-16 would be) still reproduces the recorded field fit."""
    import workloads
    from gridcox import _banded

    orig = _banded.BandedChol.logdet.fget
    monkeypatch.setattr(_banded.BandedChol, "logdet",
                        property(lambda self: orig(self) * (1.0 + 1.2e-16)))
    wl = workloads.FieldFit96()
    ref = reference(wl.name)
    inp = wl.prepare(0, tmp_path)
    outputs, _ = wl.operate(inp, tmp_path, "t")
    assert mismatches(outputs, ref["entries"]["0"]["outputs"], **ref["tolerance"]) == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    results = []
    for _ in range(2):
        proc = run_bench(name, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    if name == "field_fit_96":
        assert first["metrics"]["inference.theta_evals"]["value"] >= 33
        assert first["metrics"]["banded.chol_calls"]["value"] > 100


def test_untraced_result_has_every_end_to_end_metric():
    proc = run_bench("glm_study_64", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
