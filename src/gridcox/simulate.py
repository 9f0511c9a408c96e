"""Draw synthetic surveys from a fully specified intensity model.

Simulation is cell-based: the latent field and campaign effects are drawn
once, the intensity is evaluated at every cell of each campaign's domain,
cell counts are Poisson with mean intensity times cell area, and points land
uniformly inside their cell. All randomness flows through one generator in a
fixed order (field, campaign effects, then campaigns in index order), so a
seeded generator reproduces the survey exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geodata import CovariateStack, DomainMask, PointPattern
from .gmrf import LatticeMesh, MaternHyper, build_precision, sample_field
from .model import CellDesign, EffectVector, ModelSpec, build_design

__all__ = ["Scenario", "SimulatedSurvey", "simulate_lgcp", "expected_count"]


@dataclass(frozen=True)
class Scenario:
    """True data-generating process for a synthetic survey.

    ``spec`` fixes the model structure. ``mu0``, ``beta`` and ``gamma`` are
    the true fixed effects (beta in ``spec.covariates`` order). For field
    models ``hyper`` gives the true (sigma, rho); for multi-campaign models
    either ``tau`` (effects drawn as N(0, 1/tau)) or explicit ``mu_t``.
    """

    stack: CovariateStack
    campaign_domains: dict[int, DomainMask]
    spec: ModelSpec
    mu0: float
    beta: tuple[float, ...] = ()
    gamma: float = 0.0
    hyper: MaternHyper | None = None
    tau: float | None = None
    mu_t: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.beta) != len(self.spec.covariates):
            raise ValueError("beta length must match spec.covariates")
        if set(self.campaign_domains) != set(range(1, self.spec.n_campaigns + 1)):
            raise ValueError("campaign domains must cover campaigns 1..T")
        if self.spec.include_field and self.hyper is None:
            raise ValueError("field scenarios need hyper")
        if self.spec.has_campaign_effects and self.tau is None and self.mu_t is None:
            raise ValueError("multi-campaign scenarios need tau or explicit mu_t")
        if self.mu_t is not None and len(self.mu_t) != self.spec.n_campaigns:
            raise ValueError("mu_t length must match the campaign count")

    def build_mesh(self) -> LatticeMesh | None:
        if not self.spec.include_field:
            return None
        return LatticeMesh.for_grid(self.stack.grid, rho_ref=self.hyper.rho)


@dataclass
class SimulatedSurvey:
    """A drawn survey plus the truth that generated it.

    ``design`` is the stacked cell design of all campaigns and
    ``log_lambda`` (N,) the true log-intensity of each of its rows;
    ``design.rows[t]`` slices campaign t out of both.
    """

    points: PointPattern
    effects: EffectVector
    design: CellDesign
    log_lambda: np.ndarray = field(repr=False)

    def campaign_total(self, t: int) -> int:
        return int(np.sum(self.points.campaign == t))


def _draw_effects(scn: Scenario, mesh: LatticeMesh | None, rng: np.random.Generator) -> EffectVector:
    spec = scn.spec
    if spec.include_field:
        prec = build_precision(mesh, scn.hyper)
        w = sample_field(prec, 1, rng)[0]
    else:
        w = np.zeros(0)
    if spec.has_campaign_effects:
        if scn.mu_t is not None:
            mu_t = np.asarray(scn.mu_t, dtype=float)
        else:
            mu_t = rng.normal(0.0, 1.0 / math.sqrt(scn.tau), size=spec.n_campaigns)
    else:
        mu_t = np.zeros(0)
    return EffectVector(
        mu0=scn.mu0, beta=np.asarray(scn.beta, dtype=float), gamma=scn.gamma, mu_t=mu_t, w=w
    )


def simulate_lgcp(scn: Scenario, rng: np.random.Generator) -> SimulatedSurvey:
    """Draw one survey: latent effects, then Poisson counts, then locations."""
    mesh = scn.build_mesh()
    eff = _draw_effects(scn, mesh, rng)
    grid = scn.stack.grid
    design = build_design(scn.spec, scn.stack, scn.campaign_domains, mesh)
    log_lam = design.eta(eff.pack_dense(scn.spec), eff.w)
    mean = np.exp(log_lam) * design.weight
    xs, ys, ts = [], [], []
    for t, rows in design.rows.items():
        counts = rng.poisson(mean[rows])
        n = int(counts.sum())
        if n == 0:
            continue
        cells = np.repeat(design.cell_ids[rows], counts)
        r, c = np.divmod(cells, grid.n_cols)
        xs.append(grid.origin_x + (c + rng.random(n)) * grid.cell_dx)
        ys.append(grid.origin_y + (r + rng.random(n)) * grid.cell_dy)
        ts.append(np.full(n, t))
    if xs:
        points = PointPattern(np.concatenate(xs), np.concatenate(ys), np.concatenate(ts))
    else:
        points = PointPattern(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
    return SimulatedSurvey(points=points, effects=eff, design=design, log_lambda=log_lam)


def expected_count(scn: Scenario, effects: EffectVector | None = None) -> dict[int, float]:
    """Expected points per campaign.

    With ``effects`` given, the exact conditional mean (integrated intensity).
    Without, the marginal mean over the random field and campaign effects via
    the log-normal corrections exp(sigma^2 / 2) and exp(1 / (2 tau)).
    """
    spec = scn.spec
    mesh = scn.build_mesh()
    design = build_design(spec, scn.stack, scn.campaign_domains, mesh)
    if effects is not None:
        lam = np.exp(design.eta(effects.pack_dense(spec), effects.w))
        return {t: float(lam[rows].sum() * design.weight) for t, rows in design.rows.items()}

    field_corr = math.exp(scn.hyper.sigma**2 / 2.0) if spec.include_field else 1.0
    if spec.has_campaign_effects and scn.mu_t is None:
        campaign_corr = [math.exp(0.5 / scn.tau)] * spec.n_campaigns
    elif spec.has_campaign_effects:
        campaign_corr = [math.exp(m) for m in scn.mu_t]
    else:
        campaign_corr = [1.0]
    base = replace(
        EffectVector.zeros(spec, mesh.n if mesh is not None else 0),
        mu0=scn.mu0, beta=np.asarray(scn.beta, dtype=float), gamma=scn.gamma,
    )
    lam = np.exp(design.eta(base.pack_dense(spec), base.w))
    return {
        t: float(lam[rows].sum() * design.weight) * field_corr * campaign_corr[t - 1]
        for t, rows in design.rows.items()
    }
