"""Model structure: which terms enter the log-intensity, their prior
settings, and the stacked cell design that evaluates it.

The log-intensity for campaign t at location s is

    log lambda_t(s) = mu0 + x(s)' beta + gamma z(s) + w(s) + mu_t

with z the meadow indicator (an effort/detectability correction), w a Matern
GMRF shared by all campaigns, and mu_t exchangeable Gaussian campaign effects
(present only when the model spans two or more campaigns). Every term except
the intercept is optional, which is what makes model sweeps possible.

Every term but w is a dense effect: one column of the cell design times one
coefficient. ``ModelSpec.dense_columns`` is the only place that decides their
order and meaning, a table of (name, kind) pairs in design order: "mu0"
(kind "intercept"), one column per covariate named after it ("covariate"),
"gamma" ("effort") and "mu[1]".."mu[T]" ("campaign"). The design, the prior,
the intensity decomposition, the simulated truth and every output read the
layout from that table.

Priors: independent N(0, 1/fixed_prec) on mu0, beta and gamma; a PC prior on
the field's (sigma, rho); mu_t ~ N(0, 1/tau) with a Gamma(tau_shape,
tau_rate) prior on the precision tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geodata import CovariateStack, DomainMask, PointPattern, RasterGrid
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
        # a covariate named like another effect or a hyperparameter would
        # make its summary row, its draws and its kind ambiguous
        names = self.row_names
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(
                f"model {self.model_id!r}: effect names repeat: {', '.join(repeated)}"
            )

    @property
    def has_campaign_effects(self) -> bool:
        return self.n_campaigns >= 2

    @property
    def dense_columns(self) -> tuple[tuple[str, str], ...]:
        """(name, kind) of each dense effect, in design order.

        Kinds: "intercept" (mu0), "covariate" (one beta per covariate, named
        after it, in ``covariates`` order), "effort" (gamma, on the meadow
        indicator) and "campaign" (mu[1]..mu[T], with two or more campaigns).
        """
        cols = [("mu0", "intercept")] + [(name, "covariate") for name in self.covariates]
        if self.include_poceanica:
            cols.append(("gamma", "effort"))
        if self.has_campaign_effects:
            cols += [(f"mu[{t}]", "campaign") for t in range(1, self.n_campaigns + 1)]
        return tuple(cols)

    @property
    def dense_names(self) -> list[str]:
        return [name for name, _ in self.dense_columns]

    @property
    def n_dense(self) -> int:
        return len(self.dense_columns)

    def dense_mask(self, *kinds: str) -> np.ndarray:
        """Boolean mask of the dense columns whose kind is one of ``kinds``."""
        return np.array([kind in kinds for _, kind in self.dense_columns])

    @property
    def hyper_names(self) -> list[str]:
        """Hyperparameters explored on the log scale, in order."""
        names = []
        if self.include_field:
            names += ["log_sigma", "log_rho"]
        if self.has_campaign_effects:
            names.append("log_tau")
        return names

    @property
    def row_names(self) -> list[str]:
        """Summary rows: the dense effects, then the hyperparameters on their
        natural scales (sigma, rho, tau)."""
        return self.dense_names + [name.removeprefix("log_") for name in self.hyper_names]


@dataclass
class EffectVector:
    """One realization of all model effects.

    ``dense`` holds the dense effects in ``spec.dense_names`` order; ``w``
    the field on the raster grid's cells, indexed by flat cell id (length
    grid.n_cells, or 0 for field-free models). The mesh halo around the grid
    is a boundary device of the prior and is not kept.
    """

    dense: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class CellDesign:
    """The cells of every campaign domain, stacked, and the one linear predictor.

    The N rows are the cells of each campaign's domain, campaign by campaign
    in 1..T order; ``rows[t]`` is campaign t's slice of them. ``cell_ids``
    holds each row's flat grid cell id, where the linear predictor reads the
    field, and ``mesh_index`` its mesh node (empty when the model has no
    field), where Newton reads its latent vector on the mesh. ``weight`` is
    the cell area, the quadrature weight of every row. ``x`` (N x n_dense) has one column per
    entry of ``spec.dense_columns``, filled by its kind: ones (intercept),
    the covariate's values (covariate), the meadow indicator z (effort), or
    the campaign's one-hot rows (campaign).

    The likelihood also keeps a design of one row per group of cells that
    share a design row and a mesh node (``GriddedLikelihood.groups``). Its
    rows are the groups, in order of their first cell, and its ``cell_ids``
    are those first cells; ``rows[t]`` slices campaign t's groups. Only a
    field-free group spans several cells, so reading the field at the first
    cell reads it at every cell of the group.
    """

    cell_ids: np.ndarray
    mesh_index: np.ndarray
    weight: float
    rows: dict[int, slice]
    x: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.cell_ids.size

    def rows_of_points(self, grid: RasterGrid, points: PointPattern) -> np.ndarray:
        """The design row of each point: the row of its cell among its
        campaign's rows.

        Every point must fall in a cell of its campaign's domain; stray points
        (campaign label outside 1..T, outside the grid, on an unclassified
        cell, or in the wrong sub-domain) are a hard error rather than
        silently dropped.
        """
        n_t = len(self.rows)
        unlabelled = int(np.sum((points.campaign < 1) | (points.campaign > n_t)))
        if unlabelled:
            raise ValueError(f"{unlabelled} points have a campaign label outside 1..{n_t}")
        out = np.empty(points.n, dtype=int)
        for t, rows in self.rows.items():
            mine = points.campaign == t
            cells = grid.cell_of_points(points.x[mine], points.y[mine])
            row_of = np.full(grid.n_cells, -1, dtype=int)
            row_of[self.cell_ids[rows]] = np.arange(rows.start, rows.stop)
            row = np.where(cells >= 0, row_of[cells], -1)
            stray = int(np.sum(row < 0))
            if stray:
                raise ValueError(
                    f"campaign {t}: {stray} points fall outside the campaign domain"
                )
            out[mine] = row
        return out

    def eta(self, dense: np.ndarray, w: np.ndarray) -> np.ndarray:
        """log lambda of every row: (N,) for one effect vector, (A, N) for
        draws stacked along the first axis. ``w`` is the field on the grid
        cells (``EffectVector``), read at ``cell_ids``; a field-free design
        reads none of it."""
        out = dense @ self.x.T
        if self.mesh_index.size:
            out += w[..., self.cell_ids]
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
    campaign_rows = iter(rows.values())  # campaign columns and rows are both in 1..T order
    for j, (name, kind) in enumerate(spec.dense_columns):
        if kind == "intercept":
            x[:, j] = 1.0
        elif kind == "covariate":
            x[:, j] = stack.values_at(name, cell_ids)
        elif kind == "effort":
            x[:, j] = stack.z_at(cell_ids)
        else:
            x[next(campaign_rows), j] = 1.0

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
    spatial = spec.dense_mask("intercept", "covariate")
    no_field = np.zeros_like(eff.w)
    parts = {
        "spatial": np.exp(design.eta(eff.dense * spatial, eff.w)),
        "campaign": np.exp(design.eta(eff.dense * spec.dense_mask("campaign"), no_field)),
        "effort": np.exp(design.eta(eff.dense * spec.dense_mask("effort"), no_field)),
    }
    parts["intensity"] = parts["spatial"] * parts["campaign"] * parts["effort"]
    return parts
