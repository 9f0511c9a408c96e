"""Model structure: which terms enter the log-intensity, and their priors.

The log-intensity for campaign t at location s is

    log lambda_t(s) = mu0 + x(s)' beta + gamma z(s) + w(s) + mu_t

with z the meadow indicator (an effort/detectability correction), w a Matern
GMRF shared by all campaigns, and mu_t exchangeable Gaussian campaign effects
(present only when the model spans two or more campaigns). Every term except
the intercept is optional, which is what makes model sweeps possible.

Priors: independent N(0, 1/fixed_prec) on mu0, beta and gamma; a PC prior on
the field's (sigma, rho); mu_t ~ N(0, 1/tau) with a Gamma(tau_shape,
tau_rate) prior on the precision tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .geodata import CovariateStack, DomainMask
from .gmrf import LatticeMesh, PcPriorSpec, SparsePrecision, pc_prior_logdensity

__all__ = [
    "ModelSpec",
    "EffectVector",
    "CellDesign",
    "build_design",
    "log_intensity",
    "decompose_intensity",
    "log_prior",
]

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ModelSpec:
    """Which effects a model includes, plus its prior settings."""

    covariates: tuple[str, ...] = ()
    include_poceanica: bool = True
    include_field: bool = True
    n_campaigns: int = 1
    pc_prior: PcPriorSpec = field(
        default_factory=lambda: PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=0.5, p_sigma=0.01)
    )
    fixed_prec: float = 0.001
    tau_shape: float = 1.0
    tau_rate: float = 0.01
    model_id: str = "model"

    def __post_init__(self):
        if self.n_campaigns < 1:
            raise ValueError("a model needs at least one campaign")
        if len(set(self.covariates)) != len(self.covariates):
            raise ValueError("duplicate covariate names")

    @property
    def has_campaign_effects(self) -> bool:
        return self.n_campaigns >= 2

    @property
    def dense_names(self) -> list[str]:
        """Order of the densely coupled effects: intercept, betas, gamma, mu_t."""
        names = ["mu0"] + list(self.covariates)
        if self.include_poceanica:
            names.append("gamma")
        if self.has_campaign_effects:
            names += [f"mu[{t}]" for t in range(1, self.n_campaigns + 1)]
        return names

    @property
    def n_dense(self) -> int:
        return len(self.dense_names)

    @property
    def hyper_names(self) -> list[str]:
        """Hyperparameters explored on the log scale, in order."""
        names = []
        if self.include_field:
            names += ["log_sigma", "log_rho"]
        if self.has_campaign_effects:
            names.append("log_tau")
        return names


@dataclass
class EffectVector:
    """One realization of all model effects.

    ``w`` lives on the mesh (length mesh.n, or 0 for field-free models);
    ``mu_t`` has length n_campaigns when campaign effects are present, else 0.
    """

    mu0: float
    beta: np.ndarray
    gamma: float
    mu_t: np.ndarray
    w: np.ndarray

    @classmethod
    def zeros(cls, spec: ModelSpec, n_mesh: int = 0) -> "EffectVector":
        n_w = n_mesh if spec.include_field else 0
        n_t = spec.n_campaigns if spec.has_campaign_effects else 0
        return cls(
            mu0=0.0,
            beta=np.zeros(len(spec.covariates)),
            gamma=0.0,
            mu_t=np.zeros(n_t),
            w=np.zeros(n_w),
        )

    def pack_dense(self, spec: ModelSpec) -> np.ndarray:
        parts = [np.atleast_1d(self.mu0), self.beta]
        if spec.include_poceanica:
            parts.append(np.atleast_1d(self.gamma))
        if spec.has_campaign_effects:
            parts.append(self.mu_t)
        return np.concatenate(parts)

    @classmethod
    def from_dense(cls, spec: ModelSpec, dense: np.ndarray, w: np.ndarray) -> "EffectVector":
        p = len(spec.covariates)
        mu0 = float(dense[0])
        beta = dense[1 : 1 + p].copy()
        pos = 1 + p
        gamma = 0.0
        if spec.include_poceanica:
            gamma = float(dense[pos])
            pos += 1
        mu_t = dense[pos:].copy() if spec.has_campaign_effects else np.zeros(0)
        return cls(mu0=mu0, beta=beta, gamma=gamma, mu_t=mu_t, w=w)


@dataclass(frozen=True)
class CellDesign:
    """Per-cell design pieces for one campaign domain.

    ``x`` holds the covariate columns in ``spec.covariates`` order, ``z`` the
    meadow indicator, ``mesh_index`` each cell's mesh node (empty when the
    model has no field). ``weight`` is the cell area, the quadrature weight.
    """

    cell_ids: np.ndarray
    x: np.ndarray
    z: np.ndarray
    mesh_index: np.ndarray
    weight: float

    @property
    def n_cells(self) -> int:
        return self.cell_ids.size


def build_design(
    spec: ModelSpec,
    stack: CovariateStack,
    domain: DomainMask,
    mesh: LatticeMesh | None,
) -> CellDesign:
    """Assemble the design pieces for a campaign observed on ``domain``."""
    cell_ids = domain.cell_ids
    cols = [stack.values_at(name, cell_ids) for name in spec.covariates]
    x = np.column_stack(cols) if cols else np.zeros((cell_ids.size, 0))
    z = stack.z_at(cell_ids) if spec.include_poceanica else np.zeros(cell_ids.size)
    if spec.include_field:
        if mesh is None:
            raise ValueError("field models need a mesh")
        mesh_index = mesh.grid_to_mesh[cell_ids]
    else:
        mesh_index = np.zeros(0, dtype=int)
    return CellDesign(
        cell_ids=cell_ids, x=x, z=z, mesh_index=mesh_index, weight=domain.grid.cell_area
    )


def log_intensity(
    spec: ModelSpec, eff: EffectVector, design: CellDesign, campaign: int
) -> np.ndarray:
    """log lambda_t at the design's cells for 1-based campaign ``campaign``."""
    out = np.full(design.n_cells, eff.mu0)
    if design.x.shape[1]:
        out += design.x @ eff.beta
    if spec.include_poceanica:
        out += eff.gamma * design.z
    if spec.include_field:
        out += eff.w[design.mesh_index]
    if spec.has_campaign_effects:
        if not 1 <= campaign <= spec.n_campaigns:
            raise ValueError(f"campaign {campaign} out of range")
        out += eff.mu_t[campaign - 1]
    return out


def decompose_intensity(
    spec: ModelSpec, eff: EffectVector, design: CellDesign, campaign: int
) -> dict[str, np.ndarray]:
    """Multiplicative factors of the intensity at the design's cells.

    Returns "spatial" exp(mu0 + x'beta + w), "campaign" exp(mu_t) and
    "effort" exp(gamma z); "intensity" is their product.
    """
    spatial = np.full(design.n_cells, eff.mu0)
    if design.x.shape[1]:
        spatial += design.x @ eff.beta
    if spec.include_field:
        spatial += eff.w[design.mesh_index]
    spatial = np.exp(spatial)
    campaign_factor = (
        math.exp(eff.mu_t[campaign - 1]) if spec.has_campaign_effects else 1.0
    )
    effort = np.exp(eff.gamma * design.z) if spec.include_poceanica else np.ones(design.n_cells)
    return {
        "spatial": spatial,
        "campaign": np.full(design.n_cells, campaign_factor),
        "effort": effort,
        "intensity": spatial * campaign_factor * effort,
    }


def _gamma_logpdf(x: float, shape: float, rate: float) -> float:
    return shape * math.log(rate) - gammaln(shape) + (shape - 1.0) * math.log(x) - rate * x


def log_prior(
    spec: ModelSpec,
    eff: EffectVector,
    field_prec: SparsePrecision | None = None,
    tau: float | None = None,
) -> float:
    """Joint log prior of effects and hyperparameters on their natural scales.

    ``field_prec`` must be the precision built from the hyper setting being
    evaluated; its (sigma, rho) get the PC prior. ``tau`` is the campaign
    precision. Terms for absent effects are simply omitted.
    """
    total = 0.0
    dense = eff.pack_dense(spec)
    n_fixed = 1 + len(spec.covariates) + (1 if spec.include_poceanica else 0)
    fixed = dense[:n_fixed]
    total += 0.5 * n_fixed * (math.log(spec.fixed_prec) - LOG_2PI)
    total -= 0.5 * spec.fixed_prec * float(fixed @ fixed)

    if spec.has_campaign_effects:
        if tau is None:
            raise ValueError("campaign models need the precision tau")
        t = spec.n_campaigns
        total += 0.5 * t * (math.log(tau) - LOG_2PI)
        total -= 0.5 * tau * float(eff.mu_t @ eff.mu_t)
        total += _gamma_logpdf(tau, spec.tau_shape, spec.tau_rate)

    if spec.include_field:
        if field_prec is None:
            raise ValueError("field models need the field precision")
        factor = field_prec.chol()
        total += 0.5 * (factor.logdet - field_prec.n * LOG_2PI)
        total -= 0.5 * field_prec.quadform(eff.w)
        total += pc_prior_logdensity(field_prec.hyper, spec.pc_prior)
    return total
