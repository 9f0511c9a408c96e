"""Command line workflow tests: simulate -> fit -> crossval -> rank."""

import csv
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridcox.cli import RunConfig, UsageError, main
from gridcox.geodata import (
    PointPattern,
    RasterGrid,
    load_raster,
    read_points,
    write_points,
    write_raster,
)

CONFIG = """\
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
seed = 42
workers = 2
out = out
"""


def build_workspace(ws: Path) -> Path:
    """A small three-campaign survey workspace; returns the config path."""
    rng = np.random.default_rng(11)
    codes = np.ones((20, 20))
    codes[12:, 10:] = 5.0  # meadow block in the north-east
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
    (ws / "run.ini").write_text(CONFIG)
    return ws / "run.ini"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli_ws")
    return build_workspace(ws)


@pytest.fixture(scope="module")
def sim_out(workspace):
    assert main(["simulate", "--config", str(workspace)]) == 0
    return workspace.parent / "out"


@pytest.fixture(scope="module")
def cv_out(workspace, sim_out):
    assert main(["crossval", "--config", str(workspace)]) == 0
    return sim_out


@pytest.fixture(scope="module")
def fit_out(workspace, sim_out):
    assert main(["fit", "--config", str(workspace)]) == 0
    return sim_out


class TestConfig:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "nope.ini" in capsys.readouterr().err

    def test_missing_raster_names_the_path(self, tmp_path, capsys):
        build_workspace(tmp_path)
        (tmp_path / "habitat.asc").unlink()
        rc = main(["simulate", "--config", str(tmp_path / "run.ini")])
        assert rc == 2
        assert str(tmp_path / "habitat.asc") in capsys.readouterr().err

    def test_bad_fold_count(self, tmp_path, capsys):
        build_workspace(tmp_path)
        cfg = (tmp_path / "run.ini").read_text().replace("folds = 5", "folds = 1")
        (tmp_path / "run.ini").write_text(cfg)
        assert main(["crossval", "--config", str(tmp_path / "run.ini")]) == 2
        assert "folds" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        build_workspace(tmp_path)
        cfg = RunConfig.from_file(tmp_path / "run.ini", seed=7, workers=3, out="elsewhere")
        assert cfg.seed == 7
        assert cfg.workers == 3
        assert cfg.out_dir == Path("elsewhere")
        cfg = RunConfig.from_file(tmp_path / "run.ini")
        assert (cfg.seed, cfg.workers) == (42, 2)
        assert cfg.out_dir == tmp_path / "out"
        assert cfg.partition_dims == (5, 5)

    def test_unknown_covariate_in_sweep(self, tmp_path, capsys):
        build_workspace(tmp_path)
        (tmp_path / "models.csv").write_text(
            "model_id,covariates,poceanica,field\nm_x,salinity,1,0\n"
        )
        assert main(["fit", "--config", str(tmp_path / "run.ini")]) == 2
        assert "salinity" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "crossval"])
    def test_covariate_named_like_an_effect(self, tmp_path, capsys, command):
        # a raster declared as covariate.gamma would share its row with the meadow effect
        build_workspace(tmp_path)
        cfg = (tmp_path / "run.ini").read_text()
        cfg = cfg.replace("covariate.depth = depth.asc", "covariate.gamma = depth.asc")
        (tmp_path / "run.ini").write_text(cfg.replace("model = m_field", "model = m_g"))
        (tmp_path / "models.csv").write_text(
            "model_id,covariates,poceanica,field\nm_g,gamma,1,0\n"
        )
        (tmp_path / "out").mkdir()
        write_points(PointPattern(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int)),
                     tmp_path / "out" / "points.csv")
        assert main([command, "--config", str(tmp_path / "run.ini")]) == 2
        assert "effect names repeat: gamma" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestSimulate:
    def test_outputs(self, sim_out):
        points = read_points(sim_out / "points.csv")
        assert points.n > 200
        assert set(np.unique(points.campaign)) == {1, 2, 3}
        truth = {r["name"]: float(r["value"]) for r in read_csv(sim_out / "truth.csv")}
        assert truth["mu0"] == -5.6
        assert truth["beta.depth"] == 0.05
        assert truth["gamma"] == -0.5
        assert truth["sigma"] == 0.8
        assert {"mu[1]", "mu[2]", "mu[3]"} <= set(truth)
        field = load_raster(sim_out / "truth_field.asc")
        assert field.values.shape == (20, 20)
        assert np.isfinite(field.values).all()

    def test_rerun_is_byte_identical(self, workspace, sim_out, tmp_path):
        assert main(["simulate", "--config", str(workspace), "--out", str(tmp_path)]) == 0
        for name in ["points.csv", "truth.csv", "truth_field.asc"]:
            assert (tmp_path / name).read_bytes() == (sim_out / name).read_bytes()

    def test_seed_changes_the_draw(self, workspace, sim_out, tmp_path):
        rc = main(
            ["simulate", "--config", str(workspace), "--out", str(tmp_path), "--seed", "43"]
        )
        assert rc == 0
        assert (tmp_path / "points.csv").read_bytes() != (sim_out / "points.csv").read_bytes()


class TestFit:
    def test_summary_schema(self, fit_out):
        rows = read_csv(fit_out / "posterior_summary.csv")
        names = [r["name"] for r in rows]
        assert names == [
            "mu0", "depth", "gamma", "mu[1]", "mu[2]", "mu[3]", "sigma", "rho", "tau",
        ]
        for r in rows:
            for col in ["mean", "sd", "q05", "q50", "q95"]:
                float(r[col])
            assert float(r["q05"]) <= float(r["q50"]) <= float(r["q95"])

    def test_field_raster(self, fit_out):
        field = load_raster(fit_out / "field_posterior_mean.asc")
        assert field.values.shape == (20, 20)
        assert np.isfinite(field.values).all()

    def test_rerun_is_byte_identical(self, workspace, fit_out, tmp_path):
        assert main(["fit", "--config", str(workspace), "--out", str(tmp_path)]) == 0
        a = (tmp_path / "posterior_summary.csv").read_bytes()
        assert a == (fit_out / "posterior_summary.csv").read_bytes()

    def test_missing_points_file(self, tmp_path, capsys):
        build_workspace(tmp_path)
        assert main(["fit", "--config", str(tmp_path / "run.ini")]) == 2
        assert "points.csv" in capsys.readouterr().err

    def test_non_finite_point_names_its_line(self, tmp_path, capsys):
        build_workspace(tmp_path)
        (tmp_path / "out").mkdir(exist_ok=True)
        (tmp_path / "out" / "points.csv").write_text("x,y,campaign\n10,10,1\nnan,10,1\n")
        assert main(["fit", "--config", str(tmp_path / "run.ini")]) == 2
        err = capsys.readouterr().err
        assert "line 3: bad point record" in err and "outside" not in err

    def test_intercept_only_recovers_density(self, tmp_path):
        # single campaign over D, constant intensity: mu0 ~ log(n / |D|)
        build_workspace(tmp_path)
        (tmp_path / "campaigns.csv").write_text("campaign,domain\n1,D\n")
        (tmp_path / "models.csv").write_text(
            "model_id,covariates,poceanica,field\nm0,,0,0\n"
        )
        cfg = (tmp_path / "run.ini").read_text()
        cfg = cfg.replace("model = m_field", "model = m0")
        cfg = cfg.replace("mu0 = -5.6", "mu0 = -4.6")
        (tmp_path / "run.ini").write_text(cfg)
        assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == 0
        assert main(["fit", "--config", str(tmp_path / "run.ini")]) == 0
        n = read_points(tmp_path / "out" / "points.csv").n
        rows = read_csv(tmp_path / "out" / "posterior_summary.csv")
        assert [r["name"] for r in rows] == ["mu0"]
        mu0 = float(rows[0]["mean"])
        assert abs(mu0 - math.log(n / 40000.0)) < 0.15


class TestCrossval:
    def test_score_table(self, cv_out):
        rows = read_csv(cv_out / "crps_by_model.csv")
        assert [r["model_id"] for r in rows] == ["m_null", "m_depth", "m_field"]
        for r in rows:
            assert r["status"] == "ok"
            assert float(r["crps"]) > 0
            float(r["dic"]), float(r["p_d"])
        flags = {r["model_id"]: (r["covariates"], r["poceanica"], r["field"]) for r in rows}
        assert flags["m_null"] == ("", "1", "0")
        assert flags["m_field"] == ("depth", "1", "1")

    def test_residual_maps(self, cv_out):
        for model_id in ["m_null", "m_depth", "m_field"]:
            rows = read_csv(cv_out / f"residual_map_{model_id}.csv")
            assert rows, model_id
            assert set(int(r["campaign"]) for r in rows) == {1, 2, 3}
            for r in rows:
                assert float(r["x_max"]) > float(r["x_min"])
                assert float(r["y_max"]) > float(r["y_min"])
                assert float(r["crps"]) >= 0
                float(r["mean_residual"])

    def test_worker_count_does_not_change_bytes(self, workspace, cv_out, tmp_path):
        rc = main(
            ["crossval", "--config", str(workspace), "--out", str(tmp_path), "--workers", "1"]
        )
        assert rc == 0
        a = (tmp_path / "crps_by_model.csv").read_bytes()
        assert a == (cv_out / "crps_by_model.csv").read_bytes()
        b = (tmp_path / "residual_map_m_field.csv").read_bytes()
        assert b == (cv_out / "residual_map_m_field.csv").read_bytes()

    def test_partial_failure_continues(self, tmp_path, capsys):
        build_workspace(tmp_path)
        # a covariate with a hole inside the domain sinks every m_bad fit
        holey = 5.0 * np.ones((20, 20))
        holey[3, 3] = np.nan
        write_raster(RasterGrid(0.0, 0.0, 10.0, 10.0, holey), tmp_path / "holey.asc")
        (tmp_path / "models.csv").write_text(
            "model_id,covariates,poceanica,field\nm_ok,,1,0\nm_bad,holey,1,0\n"
        )
        cfg = (tmp_path / "run.ini").read_text()
        cfg = cfg.replace("covariate.depth = depth.asc",
                          "covariate.depth = depth.asc\ncovariate.holey = holey.asc")
        cfg = cfg.replace("folds = 5", "folds = 2").replace("draws = 200", "draws = 50")
        cfg = cfg.replace("model = m_field", "model = m_ok")
        (tmp_path / "run.ini").write_text(cfg)
        assert main(["simulate", "--config", str(tmp_path / "run.ini")]) == 0
        assert main(["crossval", "--config", str(tmp_path / "run.ini")]) == 1
        rows = {r["model_id"]: r for r in read_csv(tmp_path / "out" / "crps_by_model.csv")}
        assert rows["m_ok"]["status"] == "ok"
        assert rows["m_bad"]["status"] == "failed"
        assert "holey" in rows["m_bad"]["detail"]
        assert rows["m_bad"]["crps"] == ""
        assert "m_bad" in capsys.readouterr().err
        # rank skips the failed model but still succeeds
        assert main(["rank", "--config", str(tmp_path / "run.ini")]) == 0
        ranked = read_csv(tmp_path / "out" / "ranking.csv")
        assert [r["model_id"] for r in ranked] == ["m_ok"]


class TestRank:
    def test_missing_score_table(self, tmp_path, capsys):
        build_workspace(tmp_path)
        assert main(["rank", "--config", str(tmp_path / "run.ini")]) == 2
        assert "crps_by_model.csv" in capsys.readouterr().err

    def test_ranked_table(self, workspace, cv_out, tmp_path_factory):
        assert main(["rank", "--config", str(workspace)]) == 0
        rows = read_csv(cv_out / "ranking.csv")
        assert [r["rank"] for r in rows] == ["1", "2", "3"]
        scores = [float(r["crps"]) for r in rows]
        assert scores == sorted(scores)
        by_id = {r["model_id"]: r for r in rows}
        assert by_id["m_field"]["depth"] == "1"
        assert by_id["m_field"]["field"] == "1"
        assert by_id["m_null"]["depth"] == "0"

    def test_ties_break_by_model_id(self, tmp_path):
        build_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        header = "model_id,covariates,poceanica,field,crps,dic,p_d,status,detail\n"
        (out / "crps_by_model.csv").write_text(
            header
            + "m_b,,1,0,2.5,100,3,ok,\n"
            + "m_a,,1,0,2.5,101,3,ok,\n"
            + "m_c,,1,0,1.5,102,3,ok,\n"
        )
        assert main(["rank", "--config", str(tmp_path / "run.ini")]) == 0
        ranked = read_csv(out / "ranking.csv")
        assert [r["model_id"] for r in ranked] == ["m_c", "m_a", "m_b"]

    def test_repeated_model_id_is_usage_error(self, tmp_path, capsys):
        build_workspace(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        header = "model_id,covariates,poceanica,field,crps,dic,p_d,status,detail\n"
        (out / "crps_by_model.csv").write_text(
            header + "m_a,,1,0,2.5,100,3,ok,\n" + "m_a,,1,0,1.5,101,3,ok,\n"
        )
        assert main(["rank", "--config", str(tmp_path / "run.ini")]) == 2
        assert "more than once" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    # python -m gridcox.cli mirrors the installed console script
    proc = subprocess.run(
        [sys.executable, "-m", "gridcox.cli", "rank", "--config", str(tmp_path / "no.ini")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "no.ini" in proc.stderr
