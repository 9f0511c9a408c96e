"""Model structure: which terms enter the log-intensity, their prior
settings, and the stacked cell design that evaluates it.

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

from dataclasses import dataclass, field

import numpy as np

from .geodata import CovariateStack, DomainMask
from .gmrf import LatticeMesh, PcPriorSpec

__all__ = [
    "ModelSpec",
    "EffectVector",
    "CellDesign",
    "build_design",
    "decompose_intensity",
]


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
    """The cells of every campaign domain, stacked, and the one linear predictor.

    The N rows are the cells of each campaign's domain, campaign by campaign
    in 1..T order; ``rows[t]`` is campaign t's slice of them. ``cell_ids``
    holds each row's flat grid cell id and ``mesh_index`` its mesh node
    (empty when the model has no field). ``weight`` is the cell area, the
    quadrature weight of every row. ``x`` (N x n_dense) holds the columns
    multiplying the dense effects, in ``spec.dense_names`` order: intercept,
    covariates, meadow indicator z, campaign one-hot.
    """

    cell_ids: np.ndarray
    mesh_index: np.ndarray
    weight: float
    rows: dict[int, slice]
    x: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.cell_ids.size

    def eta(self, dense: np.ndarray, w: np.ndarray) -> np.ndarray:
        """log lambda of every row: (N,) for one effect vector, (A, N) for
        draws stacked along the first axis."""
        out = dense @ self.x.T
        if self.mesh_index.size:
            out += w[..., self.mesh_index]
        return out


def build_design(
    spec: ModelSpec,
    stack: CovariateStack,
    campaign_domains: dict[int, DomainMask],
    mesh: LatticeMesh | None,
) -> CellDesign:
    """Stack the cells of campaigns 1..T, each observed on its own domain."""
    campaigns = range(1, spec.n_campaigns + 1)
    if set(campaign_domains) != set(campaigns):
        raise ValueError("campaign domains must cover campaigns 1..T")
    if spec.include_field and mesh is None:
        raise ValueError("field models need a mesh")
    ids = [campaign_domains[t].cell_ids for t in campaigns]
    ends = np.cumsum([c.size for c in ids])
    rows = {t: slice(end - c.size, end) for t, c, end in zip(campaigns, ids, ends)}
    cell_ids = np.concatenate(ids)

    x = np.zeros((cell_ids.size, spec.n_dense))
    x[:, 0] = 1.0
    for j, name in enumerate(spec.covariates, start=1):
        x[:, j] = stack.values_at(name, cell_ids)
    pos = 1 + len(spec.covariates)
    if spec.include_poceanica:
        x[:, pos] = stack.z_at(cell_ids)
        pos += 1
    if spec.has_campaign_effects:
        for t, r in rows.items():
            x[r, pos + t - 1] = 1.0

    mesh_index = mesh.grid_to_mesh[cell_ids] if spec.include_field else np.zeros(0, dtype=int)
    return CellDesign(
        cell_ids=cell_ids,
        mesh_index=mesh_index,
        weight=stack.grid.cell_area,
        rows=rows,
        x=x,
    )


def decompose_intensity(
    spec: ModelSpec, eff: EffectVector, design: CellDesign
) -> dict[str, np.ndarray]:
    """Multiplicative factors of the intensity at every row of the design.

    Returns "spatial" exp(mu0 + x'beta + w), "campaign" exp(mu_t) and
    "effort" exp(gamma z); "intensity" is their product.
    """
    dense = eff.pack_dense(spec)
    names = spec.dense_names
    effort = np.array([name == "gamma" for name in names])
    campaign = np.array([name.startswith("mu[") for name in names])
    spatial = ~(effort | campaign)
    no_field = np.zeros_like(eff.w)
    parts = {
        "spatial": np.exp(design.eta(dense * spatial, eff.w)),
        "campaign": np.exp(design.eta(dense * campaign, no_field)),
        "effort": np.exp(design.eta(dense * effort, no_field)),
    }
    parts["intensity"] = parts["spatial"] * parts["campaign"] * parts["effort"]
    return parts
