"""Command line front end for survey simulation, fitting and model ranking.

All four subcommands read the same config file, a flat key-value text file
with one section per concern::

    [data]
    habitat = habitat.asc
    legend = legend.csv
    poceanica = P. oceanica
    reference = Sandy
    covariate.depth = depth.asc
    campaigns = campaigns.csv
    points = points.csv

    [models]
    sweep = models.csv

    [crossval]
    folds = 5
    draws = 1000
    partition_rows = 18
    partition_cols = 18

    [fit]
    model = m_full

    [simulate]
    model = m_full
    mu0 = -4.7
    beta.depth = 0.1
    gamma = -0.43
    sigma = 2.05
    rho = 56.7

Relative paths are resolved against the config file's directory. The model
sweep CSV has columns ``model_id,covariates,poceanica,field`` with covariate
names joined by ``;``. ``--seed``, ``--workers`` and ``--out`` override the
optional ``[run]`` section.

Exit codes: 0 on success, 1 when some fits failed but the run produced
output, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .crossval import derive_rng, rank_models, run_study
from .geodata import (
    CovariateStack,
    DomainMask,
    RasterGrid,
    campaign_masks,
    habitat_domains,
    load_raster,
    read_campaign_domains,
    read_legend,
    read_points,
    write_points,
    write_raster,
)
from .gmrf import MaternHyper, PcPriorSpec
from .inference import FitError, bin_points, compute_dic, fit, summarize
from .model import ModelSpec
from .simulate import Scenario, simulate_lgcp

__all__ = ["RunConfig", "UsageError", "main"]


class UsageError(Exception):
    """Bad command line usage, config contents or missing input files."""


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------


def _parse_flag(raw: str, where: str) -> bool:
    val = raw.strip().lower()
    if val in ("1", "true", "yes"):
        return True
    if val in ("0", "false", "no"):
        return False
    raise UsageError(f"{where}: expected a boolean flag, got {raw!r}")


@dataclass
class RunConfig:
    """Validated settings for one run, shared by all subcommands."""

    base_dir: Path
    out_dir: Path
    seed: int
    workers: int
    habitat_path: Path
    legend_path: Path
    campaigns_path: Path
    covariate_paths: dict[str, Path]
    poceanica_label: str
    reference_class: str | None
    points_path: Path | None
    sweep_path: Path | None
    pc_prior: PcPriorSpec
    fixed_prec: float
    tau_shape: float
    tau_rate: float
    n_folds: int
    n_draws: int
    partition_dims: tuple[int, int]
    fit_model: str | None
    fit_draws: int
    simulate_opts: dict[str, str] = field(default_factory=dict)
    rank_input: Path | None = None

    @classmethod
    def from_file(
        cls,
        path,
        seed: int | None = None,
        workers: int | None = None,
        out: str | None = None,
    ) -> "RunConfig":
        path = Path(path)
        cp = configparser.ConfigParser(interpolation=None)
        cp.optionxform = str  # covariate names are case sensitive
        if not cp.read(path):
            raise UsageError(f"config file not found: {path}")
        base = path.parent

        def get(section, key, default=None, cast=str, required=False):
            if not cp.has_option(section, key):
                if required:
                    raise UsageError(f"{path}: missing required key [{section}] {key}")
                return default
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except (TypeError, ValueError):
                raise UsageError(f"{path}: bad value for [{section}] {key}: {raw!r}") from None

        def get_path(section, key, required=False):
            raw = get(section, key, required=required)
            return None if raw is None else base / raw

        habitat = get_path("data", "habitat", required=True)
        legend = get_path("data", "legend", required=True)
        campaigns = get_path("data", "campaigns", required=True)
        covariates: dict[str, Path] = {}
        if cp.has_section("data"):
            for key in cp.options("data"):
                if key.startswith("covariate."):
                    covariates[key[len("covariate."):]] = base / cp.get("data", key)
        points = get_path("data", "points")
        sweep = get_path("models", "sweep")

        pc = PcPriorSpec(
            rho0=get("priors", "rho0", 50.0, float),
            p_rho=get("priors", "p_rho", 0.5, float),
            sigma0=get("priors", "sigma0", 0.5, float),
            p_sigma=get("priors", "p_sigma", 0.01, float),
        )
        n_folds = get("crossval", "folds", 5, int)
        n_draws = get("crossval", "draws", 1000, int)
        if n_folds < 2:
            raise UsageError(f"{path}: [crossval] folds must be at least 2")
        if n_draws < 1:
            raise UsageError(f"{path}: [crossval] draws must be at least 1")
        part = (
            get("crossval", "partition_rows", 18, int),
            get("crossval", "partition_cols", 18, int),
        )
        if min(part) < 1:
            raise UsageError(f"{path}: partition dimensions must be positive")
        fit_draws = get("fit", "draws", 1000, int)
        if fit_draws < 1:
            raise UsageError(f"{path}: [fit] draws must be at least 1")

        simulate_opts = dict(cp.items("simulate")) if cp.has_section("simulate") else {}

        cfg = cls(
            base_dir=base,
            out_dir=Path(out) if out is not None else base / get("run", "out", "."),
            seed=seed if seed is not None else get("run", "seed", 0, int),
            workers=workers if workers is not None else get("run", "workers", 1, int),
            habitat_path=habitat,
            legend_path=legend,
            campaigns_path=campaigns,
            covariate_paths=covariates,
            poceanica_label=get("data", "poceanica", "P. oceanica"),
            reference_class=get("data", "reference"),
            points_path=points,
            sweep_path=sweep,
            pc_prior=pc,
            fixed_prec=get("priors", "fixed_prec", 0.001, float),
            tau_shape=get("priors", "tau_shape", 1.0, float),
            tau_rate=get("priors", "tau_rate", 0.01, float),
            n_folds=n_folds,
            n_draws=n_draws,
            partition_dims=part,
            fit_model=get("fit", "model"),
            fit_draws=fit_draws,
            simulate_opts=simulate_opts,
            rank_input=get_path("rank", "input"),
        )
        if cfg.seed < 0 or cfg.seed >= 2**64:
            raise UsageError(f"{path}: seed must fit in an unsigned 64-bit integer")
        if cfg.workers < 1:
            raise UsageError(f"{path}: workers must be at least 1")
        for p in [habitat, legend, campaigns, sweep, *covariates.values()]:
            if p is not None and not p.is_file():
                raise UsageError(f"missing input file: {p}")
        return cfg

    def require_points(self) -> Path:
        if self.points_path is None:
            raise UsageError("config declares no [data] points file")
        if not self.points_path.is_file():
            raise UsageError(f"missing input file: {self.points_path}")
        return self.points_path

    def require_sweep(self) -> Path:
        if self.sweep_path is None:
            raise UsageError("config declares no [models] sweep file")
        return self.sweep_path


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def load_inputs(cfg: RunConfig) -> tuple[CovariateStack, dict[int, DomainMask]]:
    """Load rasters and the campaign map into model-ready structures."""
    legend = read_legend(cfg.legend_path)
    habitat = load_raster(cfg.habitat_path, kind="categorical", legend=legend)
    continuous = {
        name: load_raster(p, kind="continuous") for name, p in cfg.covariate_paths.items()
    }
    stack = CovariateStack(
        grid=habitat,
        continuous=continuous,
        habitat=habitat,
        poceanica_label=cfg.poceanica_label,
        reference_class=cfg.reference_class,
    )
    d, d1, d2 = habitat_domains(habitat, cfg.poceanica_label)
    domain_of = read_campaign_domains(cfg.campaigns_path)
    if set(domain_of) != set(range(1, len(domain_of) + 1)):
        raise UsageError(f"{cfg.campaigns_path}: campaigns must be numbered 1..T")
    return stack, campaign_masks(domain_of, d, d1, d2)


def load_sweep(cfg: RunConfig, stack: CovariateStack, n_campaigns: int) -> list[ModelSpec]:
    """Parse the model sweep CSV into one ModelSpec per row."""
    path = cfg.require_sweep()
    specs: list[ModelSpec] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"model_id", "covariates", "poceanica", "field"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise UsageError(f"{path}: sweep must have header model_id,covariates,poceanica,field")
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}: line {lineno}"
            model_id = (row["model_id"] or "").strip()
            if not model_id:
                raise UsageError(f"{where}: empty model_id")
            names = tuple(c.strip() for c in (row["covariates"] or "").split(";") if c.strip())
            for name in names:
                if name not in stack.column_names:
                    raise UsageError(f"{where}: unknown covariate {name!r}")
            specs.append(
                ModelSpec(
                    covariates=names,
                    include_poceanica=_parse_flag(row["poceanica"], where),
                    include_field=_parse_flag(row["field"], where),
                    n_campaigns=n_campaigns,
                    pc_prior=cfg.pc_prior,
                    fixed_prec=cfg.fixed_prec,
                    tau_shape=cfg.tau_shape,
                    tau_rate=cfg.tau_rate,
                    model_id=model_id,
                )
            )
    if not specs:
        raise UsageError(f"{path}: empty model sweep")
    ids = [s.model_id for s in specs]
    if len(set(ids)) != len(ids):
        raise UsageError(f"{path}: duplicate model ids")
    return specs


def _spec_by_id(specs: list[ModelSpec], model_id: str, where: str) -> ModelSpec:
    for spec in specs:
        if spec.model_id == model_id:
            return spec
    raise UsageError(f"{where}: model {model_id!r} not in the sweep")


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _atomic_write(path: Path, writer, *args) -> None:
    """Run ``writer(*args, tmp)`` on a temp file, then rename it to ``path``,
    so a crash never leaves a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    writer(*args, tmp)
    os.replace(tmp, path)


def _write_csv(header: list[str], rows, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _field_raster(grid: RasterGrid, w: np.ndarray) -> RasterGrid:
    values = w.reshape(grid.n_rows, grid.n_cols)
    return RasterGrid(
        origin_x=grid.origin_x,
        origin_y=grid.origin_y,
        cell_dx=grid.cell_dx,
        cell_dy=grid.cell_dy,
        values=values,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(cfg: RunConfig) -> int:
    """Draw one synthetic survey and write points.csv plus the truth."""
    stack, domains = load_inputs(cfg)
    specs = load_sweep(cfg, stack, n_campaigns=len(domains))
    opts = cfg.simulate_opts
    if "model" not in opts:
        raise UsageError("config declares no [simulate] model")
    spec = _spec_by_id(specs, opts["model"], "[simulate] model")

    def num(key, required=False, default=0.0):
        if key not in opts:
            if required:
                raise UsageError(f"config declares no [simulate] {key}")
            return default
        try:
            return float(opts[key])
        except ValueError:
            raise UsageError(f"bad value for [simulate] {key}: {opts[key]!r}") from None

    hyper = None
    if spec.include_field:
        hyper = MaternHyper(sigma=num("sigma", required=True), rho=num("rho", required=True))
    mu_t = None
    tau = None
    if spec.has_campaign_effects:
        if any(f"mu.{t}" in opts for t in range(1, spec.n_campaigns + 1)):
            mu_t = tuple(num(f"mu.{t}", required=True) for t in range(1, spec.n_campaigns + 1))
        else:
            tau = num("tau", required=True)
    scn = Scenario(
        stack=stack,
        campaign_domains=domains,
        spec=spec,
        mu0=num("mu0", required=True),
        beta=tuple(num(f"beta.{name}", required=True) for name in spec.covariates),
        gamma=num("gamma", required=spec.include_poceanica),
        hyper=hyper,
        tau=tau,
        mu_t=mu_t,
    )
    survey = simulate_lgcp(scn, derive_rng(cfg.seed, "simulate"))

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(cfg.out_dir / "points.csv", write_points, survey.points)
    eff = survey.effects
    # a covariate's coefficient is named as its [simulate] key, beta.<name>
    truth = [
        (f"beta.{name}" if kind == "covariate" else name, _fmt(value))
        for (name, kind), value in zip(spec.dense_columns, eff.dense)
    ]
    if spec.include_field:
        truth += [("sigma", _fmt(hyper.sigma)), ("rho", _fmt(hyper.rho))]
    _atomic_write(cfg.out_dir / "truth.csv", _write_csv, ["name", "value"], truth)
    if spec.include_field:
        raster = _field_raster(stack.grid, eff.w)
        _atomic_write(cfg.out_dir / "truth_field.asc", write_raster, raster)

    for t in sorted(domains):
        print(f"campaign {t}: {survey.campaign_total(t)} points")
    print(f"wrote {survey.points.n} points to {cfg.out_dir / 'points.csv'}")
    return 0


def cmd_fit(cfg: RunConfig) -> int:
    """Fit one model to the observed points and write posterior summaries."""
    stack, domains = load_inputs(cfg)
    specs = load_sweep(cfg, stack, n_campaigns=len(domains))
    if cfg.fit_model is None:
        raise UsageError("config declares no [fit] model")
    spec = _spec_by_id(specs, cfg.fit_model, "[fit] model")
    points = read_points(cfg.require_points())

    like = bin_points(spec, stack, domains, points)
    try:
        post = fit(like, n_draws=cfg.fit_draws, rng=derive_rng(cfg.seed, spec.model_id, "full"))
    except FitError as e:
        print(f"fit failed for model {spec.model_id!r}: {e}", file=sys.stderr)
        return 1
    summary = summarize(post)
    dic = compute_dic(like, post)

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    rows = [
        (name, _fmt(summary.mean[i]), _fmt(summary.sd[i]),
         _fmt(summary.q05[i]), _fmt(summary.q50[i]), _fmt(summary.q95[i]))
        for i, name in enumerate(summary.names)
    ]
    _atomic_write(
        cfg.out_dir / "posterior_summary.csv",
        _write_csv,
        ["name", "mean", "sd", "q05", "q50", "q95"],
        rows,
    )
    if spec.include_field:
        raster = _field_raster(stack.grid, post.field_mean)
        _atomic_write(cfg.out_dir / "field_posterior_mean.asc", write_raster, raster)

    print(summary)
    print(f"DIC {dic.dic:.2f} (p_D {dic.p_d:.2f}) over {post.n_draws} draws")
    return 0


def cmd_crossval(cfg: RunConfig) -> int:
    """Cross-validate the whole sweep and write scores plus residual maps."""
    stack, domains = load_inputs(cfg)
    specs = load_sweep(cfg, stack, n_campaigns=len(domains))
    points = read_points(cfg.require_points())
    table = run_study(
        stack,
        domains,
        points,
        specs,
        n_folds=cfg.n_folds,
        n_draws=cfg.n_draws,
        partition_dims=cfg.partition_dims,
        seed=cfg.seed,
        workers=cfg.workers,
        fail_fast=False,
    )

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    by_id = {s.model_id: s for s in specs}
    rows = []
    for model_id in table.model_ids:
        spec = by_id[model_id]
        if model_id in table.failures:
            status, detail = "failed", "; ".join(table.failures[model_id])
            crps = dic = p_d = ""
        else:
            status, detail = "ok", ""
            crps = _fmt(table.scores[model_id])
            dic = _fmt(table.dic[model_id].dic)
            p_d = _fmt(table.dic[model_id].p_d)
        rows.append(
            (model_id, ";".join(spec.covariates), int(spec.include_poceanica),
             int(spec.include_field), crps, dic, p_d, status, detail)
        )
    _atomic_write(
        cfg.out_dir / "crps_by_model.csv",
        _write_csv,
        ["model_id", "covariates", "poceanica", "field", "crps", "dic", "p_d", "status", "detail"],
        rows,
    )

    for model_id in table.model_ids:
        if model_id in table.failures:
            continue
        map_rows = []
        for t in sorted(table.partitions):
            boxes = table.partitions[t].subset_boxes
            resid = table.mean_residual[model_id][t]
            crps_g = table.by_subset[model_id][t]
            for g, (x0, y0, x1, y1) in enumerate(boxes):
                map_rows.append(
                    (t, g, _fmt(x0), _fmt(y0), _fmt(x1), _fmt(y1),
                     _fmt(resid[g]), _fmt(crps_g[g]))
                )
        _atomic_write(
            cfg.out_dir / f"residual_map_{model_id}.csv",
            _write_csv,
            ["campaign", "subset", "x_min", "y_min", "x_max", "y_max", "mean_residual", "crps"],
            map_rows,
        )

    for rank, model_id in enumerate(table.ranking(), start=1):
        print(f"{rank:>3}  {model_id:<24}  CRPS {table.scores[model_id]:.6f}")
    for model_id, msgs in sorted(table.failures.items()):
        print(f"failed: {model_id}: {msgs[0]}", file=sys.stderr)
    return 1 if table.failures else 0


def cmd_rank(cfg: RunConfig) -> int:
    """Rank a finished sweep by pooled CRPS and write the comparison table."""
    path = cfg.rank_input if cfg.rank_input is not None else cfg.out_dir / "crps_by_model.csv"
    if not path.is_file():
        raise UsageError(f"missing input file: {path}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        need = {"model_id", "covariates", "poceanica", "field", "crps", "dic", "status"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise UsageError(f"{path}: not a crossval score table")
        records = list(reader)
    ids = [r["model_id"] for r in records]
    if len(set(ids)) != len(ids):
        raise UsageError(f"{path}: a model id appears more than once")

    ok = {r["model_id"]: r for r in records if r["status"] == "ok"}
    scored = [ok[m] for m in rank_models({m: float(r["crps"]) for m, r in ok.items()})]
    all_covs = sorted({c for r in records for c in r["covariates"].split(";") if c})

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    header = ["rank", "model_id", *all_covs, "poceanica", "field", "crps", "dic"]
    rows = []
    for rank, r in enumerate(scored, start=1):
        present = set(r["covariates"].split(";"))
        flags = [int(c in present) for c in all_covs]
        rows.append((rank, r["model_id"], *flags, r["poceanica"], r["field"], r["crps"], r["dic"]))
    _atomic_write(cfg.out_dir / "ranking.csv", _write_csv, header, rows)

    width = max([len("model"), *(len(r["model_id"]) for r in records)])
    cols = "  ".join(f"{c:>{max(3, len(c))}}" for c in [*all_covs, "poceanica", "field"])
    print(f"{'rank':>4}  {'model':<{width}}  {cols}  {'crps':>12}  {'dic':>12}")
    for rank, r in enumerate(scored, start=1):
        present = set(r["covariates"].split(";"))
        flags = "  ".join(
            f"{'x' if c in present else '.':>{max(3, len(c))}}" for c in all_covs
        )
        pz = f"{'x' if r['poceanica'] == '1' else '.':>9}"
        fz = f"{'x' if r['field'] == '1' else '.':>5}"
        print(
            f"{rank:>4}  {r['model_id']:<{width}}  {flags}  {pz}  {fz}"
            f"  {float(r['crps']):>12.6f}  {float(r['dic']):>12.2f}"
        )
    for r in records:
        if r["status"] != "ok":
            print(f"unranked (failed): {r['model_id']}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": (cmd_simulate, "draw a synthetic survey from a config scenario"),
    "fit": (cmd_fit, "fit one model and write posterior summaries"),
    "crossval": (cmd_crossval, "score every sweep model by K-fold CRPS"),
    "rank": (cmd_rank, "rank a finished sweep into a comparison table"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridcox",
        description="Gridded Cox process surveys: simulate, fit, cross-validate, rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the run config file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--workers", type=int, default=None, help="override [run] workers")
        p.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    handler = _COMMANDS[args.command][0]
    try:
        cfg = RunConfig.from_file(args.config, seed=args.seed, workers=args.workers, out=args.out)
        return handler(cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
