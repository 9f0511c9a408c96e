"""The posterior field kept on the raster grid alone: every output that reads
it against dense per-cell formulas on the mesh-wide draws it came from, and
the memory a fit saves by not keeping the mesh halo, nor a copy of the grid
block, nor a fresh array of normals per group."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

from gridcox._banded import ArrowFactor
from gridcox.crossval import (
    ResidualPairing,
    assign_folds,
    build_partitions,
    split,
    subset_columns,
    validation_residuals,
)
from gridcox.geodata import CovariateStack, RasterGrid, habitat_domains
from gridcox.gmrf import LatticeMesh, MaternHyper
from gridcox.inference import PosteriorDraws, bin_points, compute_dic, fit
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp
from test_inference import PC, cell_counts

K_FOLDS = 4


@pytest.fixture(scope="module")
def small_survey():
    """A 12 x 12 grid of 10 m cells, Sandy with a meadow disc in the NE, and a
    two-campaign field survey on it: campaign 1 on D, campaign 2 on D2."""
    codes = np.ones((12, 12))
    xc, yc = RasterGrid(0.0, 0.0, 10.0, 10.0, codes).cell_centers()
    codes[(xc - 85.0) ** 2 + (yc - 85.0) ** 2 < 40.0**2] = 2.0
    legend = {1: "Sandy", 2: "P. oceanica"}
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    stack = CovariateStack(grid=habitat, habitat=habitat, poceanica_label="P. oceanica",
                           reference_class="Sandy")
    d, _, d2 = habitat_domains(habitat, "P. oceanica")
    doms = {1: d, 2: d2}
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=2, pc_prior=PC)
    scn = Scenario(stack=stack, campaign_domains=doms, spec=spec, mu0=math.log(0.02),
                   gamma=-0.4, hyper=MaternHyper(sigma=0.8, rho=30.0), mu_t=(0.0, 0.3))
    return stack, doms, spec, simulate_lgcp(scn, np.random.default_rng(5)).points


def test_grid_draws_read_as_the_mesh_draws_they_came_from(small_survey):
    stack, doms, spec, points = small_survey
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=4)
    g2m = mesh.grid_to_mesh
    partitions = build_partitions(doms, 3, 3)
    train, val = split(points, assign_folds(points, K_FOLDS, np.random.default_rng(1)), 1)
    like = bin_points(spec, stack, doms, train, mesh=mesh)
    design = like.design

    rng = np.random.default_rng(2)
    n_draws, h = 7, len(spec.hyper_names)
    dense = rng.normal(0.0, 0.3, (n_draws, spec.n_dense))
    dense[:, 0] += math.log(0.02)
    # mesh-wide draws: the field about 0 on the grid nodes and noise of sd 50
    # on the halo, which would swamp any output that read it
    w_mesh = rng.normal(0.0, 50.0, (n_draws, mesh.n))
    w_mesh[:, g2m] = rng.normal(0.0, 0.5, (n_draws, g2m.size))
    draws = PosteriorDraws(spec=spec, dense=dense, w=w_mesh[:, g2m],
                           log_hyper=np.zeros((n_draws, h)), theta_mode=np.zeros(h))

    # the linear predictor: x d + w at each cell's mesh node
    eta = dense @ design.x.T + w_mesh[:, design.mesh_index]
    np.testing.assert_allclose(design.eta(dense, draws.w), eta, rtol=1e-12)
    np.testing.assert_allclose(design.eta(dense[3], draws.w[3]), eta[3], rtol=1e-12)

    # DIC: the mean per-cell Poisson deviance of the draws, and the deviance
    # at the mean effects
    y = cell_counts(design, stack.grid, train)
    lam = design.weight * np.exp(eta)
    dbar = -2.0 * poisson.logpmf(y, lam).sum(axis=1).mean()
    eta_mean = dense.mean(axis=0) @ design.x.T + w_mesh.mean(axis=0)[design.mesh_index]
    d_hat = -2.0 * poisson.logpmf(y, design.weight * np.exp(eta_mean)).sum()
    res = compute_dic(like, draws)
    assert res.dbar == pytest.approx(dbar, rel=1e-12)
    assert res.d_hat == pytest.approx(d_hat, rel=1e-12)
    assert res.p_d == pytest.approx(dbar - d_hat, abs=1e-12 * abs(dbar))

    # validation residuals: each subset's held-out count minus the training
    # intensity integrated over its cells, per fold, campaign by campaign
    expect = []
    for t in sorted(partitions):
        rows, part = design.rows[t], partitions[t]
        subset = part.cell_subset.ravel()[design.cell_ids[rows]]
        pts = val.for_campaign(t)
        counts = np.bincount(part.subset_of_points(pts.x, pts.y), minlength=part.n_subsets)
        integral = np.column_stack(
            [lam[:, rows][:, subset == g].sum(axis=1) for g in range(part.n_subsets)]
        )
        expect.append(counts - integral / (K_FOLDS - 1))
    pairing = ResidualPairing.build(like, partitions)
    resid = validation_residuals(draws, pairing, subset_columns(partitions, val), K_FOLDS)
    np.testing.assert_allclose(resid, np.hstack(expect), rtol=1e-12, atol=1e-12)


def test_fit_keeps_no_mesh_wide_draws(small_survey):
    # a one-campaign field model (9 theta grid points) with a wide halo: the
    # 36 x 36 mesh has 1296 nodes around the 144 grid cells
    stack, doms, _, points = small_survey
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=1, pc_prior=PC)
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=12)
    like = bin_points(spec, stack, {1: doms[1]}, points.for_campaign(1), mesh=mesh)
    n_draws, n_grid = 4000, stack.grid.n_cells
    tracemalloc.start()
    try:
        draws = fit(like, n_draws=n_draws, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Bound: one (A, mesh.n) float64 array plus the (A, grid) draws, 46.1 MB.
    # Draws kept on the whole mesh take 41.5 MB alone; with the normals and
    # the solved block of the largest sampling group (about 1700 draws) such
    # a fit peaks at 76.9 MB, 67% above the bound. Kept on the grid (4.6 MB),
    # the fit peaks at 25.1 MB, 46% below it.
    bound = 8 * n_draws * (mesh.n + n_grid)
    assert peak < bound
    assert draws.w.shape == (n_draws, n_grid)


def test_fit_samples_through_one_normals_buffer(small_survey, monkeypatch):
    # a one-campaign field model whose 2-cell halo is small against the grid:
    # the 16 x 16 mesh has 256 nodes around the 144 grid cells, so a (grid
    # cells, n_g) copy of a group's solved block would be 56% of its normals
    stack, doms, _, points = small_survey
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=1, pc_prior=PC)
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=2)
    like = bin_points(spec, stack, {1: doms[1]}, points.for_campaign(1), mesh=mesh)
    n_draws, n_grid = 4000, stack.grid.n_cells

    normals, in_place = [], []
    sample = ArrowFactor.sample

    def recording(self, z_w, z_d):
        x_w, x_d = sample(self, z_w, z_d)
        normals.append(z_w)
        in_place.append(np.shares_memory(x_w, z_w))
        return x_w, x_d

    monkeypatch.setattr(ArrowFactor, "sample", recording)
    tracemalloc.start()
    try:
        draws = fit(like, n_draws=n_draws, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    # each group solves inside its normals, and every group's normals are
    # views of the first group's buffer
    assert len(normals) == draws.diagnostics["grid_points"] == 9
    assert all(in_place)
    assert all(np.shares_memory(z, normals[0]) for z in normals)

    # the theta grid point each draw came from: its jitter is under half a
    # grid step on every axis
    offsets = np.round((draws.log_hyper - draws.theta_mode) / draws.diagnostics["grid_delta"])
    n_g = np.unique(offsets, axis=0, return_counts=True)[1].max()
    # Bound: the (A, grid) draws, one full-lattice band of the factor and the
    # largest group's (mesh.n, n_g) normals, 8.0 MB, plus a slack of
    # (bandwidth + 64) doubles per draw of that group, 1.3 MB: the
    # back-substitution's (n_g, bandwidth) block product and the small
    # per-draw arrays (theta jitter, dense normals and solves, dense and
    # theta draws). A (grid cells, n_g) copy of the solved block adds 1.9 MB
    # (n_g 1639) and took the peak to 10.4 MB, 0.9 MB over the bound; the
    # fit peaks at 8.8 MB.
    bound = 8 * (n_draws * n_grid + (mesh.bandwidth + 1) * mesh.n + mesh.n * n_g)
    slack = 8 * n_g * (mesh.bandwidth + 64)
    assert peak < bound + slack
