"""The three benchmark workloads: their inputs, their operation and their outputs.

Each workload draws its inputs from a fixed pool of recorded replicates.
The benchmark seed picks which replicates a run uses and in what order, so
the same seed gives the same inputs, and every operation can be checked
against the outputs recorded for its replicate in ``reference/``.

Why each workload was chosen, and which layers it exercises or bypasses:

``field_fit_96``
    One field fit on the 96 x 96 mesh of the interval-coverage acceptance
    test (n = 9216 latent cells, bandwidth 192). The banded algebra and the
    theta search do almost all the work: a sizing trace found 167
    ``BandedChol`` factorizations (7.4 s) and 347 ``dsbmv`` calls (3.4 s)
    out of 13.7 s. No process pool and no CLI are involved. It exercises the
    matrix-free prior and the leaner theta search (ROADMAP items 3 and 5)
    and bypasses the process-model fix (item 2).

``glm_study_64``
    One ``run_study`` of the ranking-power acceptance test: habitat-truth
    and null field-free models, K = 5, 500 draws, an 8 x 8 partition and
    2 workers. Its 12 fits hold about 0.5 s of compute, yet a study takes
    4-5 s: two spawn pools re-import gridcox/numpy/scipy and re-pickle the
    payload, and the ``compute_dic`` and ``aggregate_crps`` loops hold the
    rest. No banded algebra runs. It exercises items 2 and 4 and bypasses
    item 3, and it is the only workload that runs the pool with 2 workers.

``cli_crossval_3c``
    ``python -m gridcox.cli crossval --workers 1`` on a workspace shaped like
    ``tests/test_cli.py::build_workspace``: 20 x 20 grid, 3 campaigns on
    D2/D1/D, sweep m_null/m_depth/m_field, 5 folds, 200 draws, 5 x 5
    partition. This is what users run. It is the only multi-campaign
    workload, so it runs the per-campaign dict loops and the h = 3 theta
    grid, whose field model spends 100 of its 150-evaluation budget. It also
    pays for CLI start-up, raster I/O and atomic writes, while its 30 x 30
    mesh keeps the banded algebra minor. Its pool has 1 worker, the other
    side of ``glm_study_64``.

Left out: ``cli_crossval_3c`` at ``--workers 2`` (the shipped config's
default). Five sizing runs took 16.9, 22.3, 28.1, 36.7 and 155.6 s; the two
workers each run a multi-threaded OpenBLAS on 2 cores (ROADMAP item 2).
Steadying it by pinning BLAS threads in the environment would hide that
defect, so it is not a workload until the program fixes it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gridcox import cli, crossval, inference
from gridcox.crossval import derive_rng
from gridcox.geodata import CovariateStack, RasterGrid, habitat_domains, write_raster
from gridcox.gmrf import LatticeMesh, MaternHyper, PcPriorSpec
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp


class OperationFailed(RuntimeError):
    """An operation ended without output (for example a non-zero CLI exit)."""


def meadow_stack() -> CovariateStack:
    """64 x 64 grid of 10 m cells: Sandy with a 200 m meadow disc in the NE."""
    legend = {1: "Sandy", 2: "P. oceanica"}
    codes = np.ones((64, 64))
    base = RasterGrid(0.0, 0.0, 10.0, 10.0, codes)
    xc, yc = base.cell_centers()
    codes[(xc - 430.0) ** 2 + (yc - 430.0) ** 2 < 200.0**2] = 2.0
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    return CovariateStack(
        grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
    )


def _floats(d: dict) -> dict:
    return {k: float(v) for k, v in d.items()}


# ---------------------------------------------------------------------------
# field_fit_96
# ---------------------------------------------------------------------------


class FieldFit96:
    """bin_points -> fit(800 draws) -> summarize -> compute_dic on a fresh mesh.

    Replicate r is the r-th survey of ``test_credible_intervals_cover_truth``
    (sigma = 1, rho = 160, about 1500 points) with that test's fit seed.
    """

    name = "field_fit_96"
    pool_size = 20
    n_inputs = 3
    trace_ops = 2
    fits_per_op = 1
    workers = 0
    RHO = 160.0

    def prepare(self, entry: int, workdir: Path) -> dict:
        stack = meadow_stack()
        d, _, _ = habitat_domains(stack.habitat, "P. oceanica")
        pc = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=1.0, p_sigma=0.05)
        spec = ModelSpec(
            covariates=(), include_poceanica=True, include_field=True,
            n_campaigns=1, model_id="m_field", pc_prior=pc,
        )
        sigma = 1.0
        z = (stack.habitat.values == 2.0).ravel()
        mass = stack.grid.cell_area * np.exp(-0.4 * z).sum()
        mu0 = math.log(1500.0 / mass) - sigma**2 / 2.0
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0,
            gamma=-0.4, hyper=MaternHyper(sigma=sigma, rho=self.RHO),
        )
        survey = simulate_lgcp(scn, derive_rng(7, "ac5-sim", entry))
        return {"entry": entry, "stack": stack, "domains": {1: d}, "spec": spec,
                "points": survey.points}

    def operate(self, inp: dict, workdir: Path, tag: str) -> tuple[dict, dict]:
        stack = inp["stack"]
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=self.RHO)
        like = inference.bin_points(inp["spec"], stack, inp["domains"], inp["points"], mesh=mesh)
        post = inference.fit(like, n_draws=800, rng=derive_rng(7, "ac5-fit", inp["entry"]))
        summ = inference.summarize(post)
        dic = inference.compute_dic(like, post)
        outputs = {
            "summary": {name: _floats(summ.row(name)) for name in ("mu0", "gamma", "sigma", "rho")},
            "dic": _floats(vars(dic)),
        }
        info = {k: int(post.diagnostics[k]) for k in ("n_evals", "newton_iters", "grid_points")}
        return outputs, info


# ---------------------------------------------------------------------------
# glm_study_64
# ---------------------------------------------------------------------------


class GlmStudy64:
    """run_study(workers=2) of habitat-truth vs null, K = 5, 500 draws, 8 x 8.

    Replicate r is the r-th survey and study seed of
    ``test_crossval_ranks_true_model_above_null``.
    """

    name = "glm_study_64"
    pool_size = 20
    n_inputs = 6
    trace_ops = 2
    fits_per_op = 12
    workers = 2

    def prepare(self, entry: int, workdir: Path) -> dict:
        stack = meadow_stack()
        d, _, _ = habitat_domains(stack.habitat, "P. oceanica")
        spec_true = ModelSpec(
            covariates=(), include_poceanica=True, include_field=False,
            n_campaigns=1, model_id="m_true",
        )
        spec_null = ModelSpec(
            covariates=(), include_poceanica=False, include_field=False,
            n_campaigns=1, model_id="m_null",
        )
        z = (stack.habitat.values == 2.0).ravel()
        mu0 = math.log(1500.0 / (stack.grid.cell_area * np.exp(-0.4 * z).sum()))
        scn = Scenario(stack=stack, campaign_domains={1: d}, spec=spec_true, mu0=mu0, gamma=-0.4)
        survey = simulate_lgcp(scn, derive_rng(0, "ac4-sim", entry))
        return {"entry": entry, "stack": stack, "domains": {1: d},
                "specs": [spec_true, spec_null], "points": survey.points}

    def operate(self, inp: dict, workdir: Path, tag: str) -> tuple[dict, dict]:
        table = crossval.run_study(
            inp["stack"], inp["domains"], inp["points"], inp["specs"], n_folds=5,
            n_draws=500, partition_dims=(8, 8), seed=inp["entry"], workers=self.workers,
        )
        if table.failures:
            raise OperationFailed(f"failed fits: {table.failures}")
        outputs = {
            "ranking": table.ranking(),
            "scores": _floats(table.scores),
            "dic": {m: float(r.dic) for m, r in table.dic.items()},
        }
        return outputs, {}


# ---------------------------------------------------------------------------
# cli_crossval_3c
# ---------------------------------------------------------------------------

CLI_CONFIG = """\
[data]
habitat = habitat.asc
legend = legend.csv
poceanica = P. oceanica
reference = Sandy
covariate.depth = depth.asc
campaigns = campaigns.csv
points = out/points.csv

[models]
sweep = models.csv

[crossval]
folds = 5
draws = 200
partition_rows = 5
partition_cols = 5

[fit]
model = m_field
draws = 200

[simulate]
model = m_field
mu0 = -5.6
beta.depth = 0.05
gamma = -0.5
sigma = 0.8
rho = 60
tau = 4.0

[run]
seed = {seed}
workers = 2
out = out
"""


class CliCrossval3c:
    """``gridcox crossval --workers 1`` as a subprocess on a 3-campaign workspace.

    Replicate r draws its rasters from ``default_rng(11 + r)`` and runs with
    seed ``42 + r``; replicate 0 is exactly the ``tests/test_cli.py``
    workspace. Set-up writes the workspace and runs ``gridcox simulate``.
    """

    name = "cli_crossval_3c"
    pool_size = 12
    n_inputs = 3
    trace_ops = 1
    fits_per_op = 18
    workers = 1

    def __init__(self, traced_launcher: Path | None = None):
        self.traced_launcher = traced_launcher

    def prepare(self, entry: int, workdir: Path) -> dict:
        ws = workdir / f"ws{entry}"
        ws.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(11 + entry)
        codes = np.ones((20, 20))
        codes[12:, 10:] = 5.0
        codes[:6, :8] = 2.0
        codes[rng.random((20, 20)) < 0.08] = 3.0
        legend = {1: "Sandy", 2: "Hard Bottom", 3: "Dead Matte", 5: "P. oceanica"}
        habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
        write_raster(habitat, ws / "habitat.asc")
        xc, yc = habitat.cell_centers()
        depth = 5.0 + 0.02 * xc + 0.01 * yc + rng.normal(0, 0.3, codes.shape)
        write_raster(RasterGrid(0.0, 0.0, 10.0, 10.0, depth), ws / "depth.asc")
        (ws / "legend.csv").write_text(
            "code,label\n" + "".join(f"{c},{l}\n" for c, l in legend.items())
        )
        (ws / "campaigns.csv").write_text("campaign,domain\n1,D2\n2,D1\n3,D\n")
        (ws / "models.csv").write_text(
            "model_id,covariates,poceanica,field\n"
            "m_null,,1,0\n"
            "m_depth,depth,1,0\n"
            "m_field,depth,1,1\n"
        )
        (ws / "run.ini").write_text(CLI_CONFIG.format(seed=42 + entry))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["simulate", "--config", str(ws / "run.ini")])
        if rc != 0:
            raise OperationFailed(f"gridcox simulate exited {rc}")
        return {"entry": entry, "config": ws / "run.ini"}

    def operate(self, inp: dict, workdir: Path, tag: str) -> tuple[dict, dict]:
        out = workdir / f"cv_{tag}"
        if self.traced_launcher is None:
            cmd = [sys.executable, "-m", "gridcox.cli"]
        else:
            cmd = [sys.executable, str(self.traced_launcher)]
        cmd += ["crossval", "--config", str(inp["config"]), "--workers", "1", "--out", str(out)]
        src = str(Path("src").resolve())
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise OperationFailed(
                f"gridcox crossval exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
            )
        with open(out / "crps_by_model.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        ranking = [line.split()[1] for line in proc.stdout.splitlines() if "CRPS" in line]
        outputs = {
            "ranking": ranking,
            "status": {r["model_id"]: r["status"] for r in rows},
            "crps": {r["model_id"]: float(r["crps"]) for r in rows},
            "dic": {r["model_id"]: float(r["dic"]) for r in rows},
            "p_d": {r["model_id"]: float(r["p_d"]) for r in rows},
        }
        return outputs, {}


def all_workloads(traced_launcher: Path | None = None) -> dict:
    return {
        w.name: w for w in (FieldFit96(), GlmStudy64(), CliCrossval3c(traced_launcher))
    }
