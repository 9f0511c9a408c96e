"""The field draws reduced as a fit makes them: every output read from the
reductions (the field's mean on the raster grid, each draw's
log-likelihood and a fold's subset integrals) against dense per-cell
formulas on the mesh-wide draws they came from; the draws a fit makes in
column blocks against those it makes a grid point at a time; and the memory
a fit saves by keeping none of its field draws, nor a fresh array of
normals per group, nor more than a block's normals."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import poisson

from gridcox import crossval, inference
from gridcox._banded import ArrowFactor
from gridcox.crossval import (
    ResidualPairing,
    aggregate_crps,
    assign_folds,
    build_partitions,
    split,
    subset_columns,
    validation_residuals,
)
from gridcox.geodata import CovariateStack, RasterGrid, habitat_domains
from gridcox.gmrf import LatticeMesh, MaternHyper
from gridcox.inference import bin_points, compute_dic, fit
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp
from test_crossval import membership_residuals
from test_inference import PC, cell_counts, reduced_draws

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
    n_draws = 7
    dense = rng.normal(0.0, 0.3, (n_draws, spec.n_dense))
    dense[:, 0] += math.log(0.02)
    # mesh-wide draws, one column per draw as a fit solves them: the field
    # about 0 on the grid nodes and noise of sd 50 on the halo, which would
    # swamp any output that read it
    w_mesh = rng.normal(0.0, 50.0, (mesh.n, n_draws))
    w_mesh[g2m] = rng.normal(0.0, 0.5, (g2m.size, n_draws))
    draws = reduced_draws(like, dense, w_mesh)

    # the field's mean on the grid cells, and the linear predictor of the
    # mean effects: x d + w at each cell's mesh node
    np.testing.assert_allclose(draws.field_mean, w_mesh[g2m].mean(axis=1), rtol=1e-12,
                               atol=1e-15)
    eta = dense @ design.x.T + w_mesh[design.mesh_index].T
    eta_mean = dense.mean(axis=0) @ design.x.T + w_mesh.mean(axis=1)[design.mesh_index]
    mean = draws.mean_effects()
    np.testing.assert_allclose(design.eta(mean.dense, mean.w), eta_mean, rtol=1e-12)

    # DIC: the mean per-cell Poisson deviance of the draws, and the deviance
    # at the mean effects
    y = cell_counts(design, stack.grid, train)
    lam = design.weight * np.exp(eta)
    dbar = -2.0 * poisson.logpmf(y, lam).sum(axis=1).mean()
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
    integrals = np.zeros((n_draws, pairing.filled.size))
    reduce = functools.partial(pairing.integrate, integrals)
    fold_draws = reduced_draws(like, dense, w_mesh, reduce)
    assert fold_draws.loglik is None
    np.testing.assert_array_equal(fold_draws.field_mean, draws.field_mean)
    resid = validation_residuals(integrals, pairing, subset_columns(partitions, val), K_FOLDS)
    np.testing.assert_allclose(resid, np.hstack(expect), rtol=1e-12, atol=1e-12)


def test_fold_scores_reduced_in_the_fit_match_its_draws(small_survey, monkeypatch):
    # oracle: every fold fit's intensity draws, collected by a test-only
    # reduction beside the fold's own and scored by the whole-array formula
    # (a 0/1 subset-membership matrix per campaign), then by aggregate_crps
    stack, doms, spec, points = small_survey
    partitions = build_partitions(doms, 3, 3)
    folds = assign_folds(points, K_FOLDS, np.random.default_rng(1))
    study, failures = crossval._Study.set_up(
        stack, doms, points, [spec], folds, n_draws=120, seed=3, partitions=partitions
    )
    assert failures == {}
    monkeypatch.setattr(crossval, "_study", study)
    fold_fit, collected = crossval.fit, []

    def collecting_fit(like, *, reduce, **kwargs):
        lam_draws = np.full((kwargs["n_draws"], like.groups.n_cells), np.nan)
        collected.append(lam_draws)

        def collect_then_reduce(draws, lam):
            lam_draws[draws] = lam.T
            reduce(draws, lam)

        return fold_fit(like, reduce=collect_then_reduce, **kwargs)

    theta = crossval._full_fit_task(0)[3]
    monkeypatch.setattr(crossval, "fit", collecting_fit)
    for k in range(1, K_FOLDS + 1):
        collected.clear()
        _, _, crps_g, mean_g, err = crossval._fold_fit_task(0, k, theta)
        assert err is None and len(collected) == 1
        like = study.fold_likelihood(0, k)
        # a field model's groups are its cells, in design order
        np.testing.assert_array_equal(like.group_of, np.arange(like.design.n_cells))
        lam = collected[0]
        assert lam.shape == (120, like.design.n_cells) and not np.isnan(lam).any()
        _, val = split(points, folds, k)
        resid = membership_residuals(lam, like, partitions, val, K_FOLDS)
        np.testing.assert_allclose(crps_g, aggregate_crps(resid[:, None, :])[0], rtol=1e-12)
        np.testing.assert_allclose(mean_g, resid.mean(axis=0), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("width", [1, 7, None], ids=["1", "7", "default"])
def test_sampling_in_blocks_keeps_the_draws(small_survey, monkeypatch, width):
    # oracle: the same fit with every grid point sampled in one block, the
    # way a fit sampled before it capped its blocks at bandwidth + 1 draws
    stack, doms, _, points = small_survey
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=1, pc_prior=PC)
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=2)
    like = bin_points(spec, stack, {1: doms[1]}, points.for_campaign(1), mesh=mesh)
    pairing = ResidualPairing.build(like, build_partitions({1: doms[1]}, 3, 3))
    n_draws = 1000

    def sampled(block_width):
        monkeypatch.setattr(inference, "_block_width", block_width)
        out = []
        for fold in (False, True):
            rng = np.random.default_rng(3)
            integrals = np.zeros((n_draws, pairing.filled.size))
            reduce = functools.partial(pairing.integrate, integrals) if fold else None
            draws = fit(like, n_draws=n_draws, rng=rng, reduce=reduce)
            out.append((draws, integrals, rng.random()))
        return out

    default = inference._block_width
    whole = sampled(lambda like, n: n)
    blocked = sampled(default if width is None else (lambda like, n: width))
    counts = whole[0][0].diagnostics["grid_counts"]
    size = mesh.bandwidth + 1 if width is None else width
    assert whole[0][0].diagnostics["normal_passes"] == np.count_nonzero(counts) == 9
    assert counts.max() > size  # the largest grid point splits
    for (ref, ref_integrals, ref_next), (got, integrals, after) in zip(whole, blocked):
        np.testing.assert_array_equal(got.diagnostics["grid_counts"], counts)
        assert got.diagnostics["normal_passes"] == sum(math.ceil(n / size) for n in counts)
        np.testing.assert_array_equal(got.log_hyper, ref.log_hyper)
        np.testing.assert_array_equal(got.dense, ref.dense)
        # the reductions sum the same field draws in other blocks
        np.testing.assert_allclose(got.field_mean, ref.field_mean, rtol=1e-13, atol=1e-15)
        if ref.loglik is None:
            assert got.loglik is None
        else:
            np.testing.assert_allclose(got.loglik, ref.loglik, rtol=1e-13)
        np.testing.assert_allclose(integrals, ref_integrals, rtol=1e-13)
        # the generator leaves the fit where it would after one block per point
        assert after == ref_next


def test_fit_keeps_no_mesh_wide_draws(small_survey):
    # a one-campaign field model (9 theta grid points) with a wide halo: the
    # 36 x 36 mesh has 1296 nodes around the 144 grid cells
    stack, doms, _, points = small_survey
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=1, pc_prior=PC)
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=12)
    like = bin_points(spec, stack, {1: doms[1]}, points.for_campaign(1), mesh=mesh)
    n_draws = 4000
    tracemalloc.start()
    try:
        draws = fit(like, n_draws=n_draws, rng=np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_g = int(draws.diagnostics["grid_counts"].max())
    # Bound: one block's (mesh.n, min(n_g, bandwidth + 1)) normals, one
    # full-lattice band of the factor and the latent mode cached at each of
    # the 33 theta evaluations, 1.9 MB, plus the slack of
    # test_fit_samples_through_one_normals_buffer, 1.8 MB: 3.6 MB in all.
    # The largest group's (mesh.n, n_g) normals (n_g = 1631, 16.9 MB) are
    # not in it: a fit that samples a grid point in one block peaks at 19.4
    # MB; one that also kept the (A, grid) draws (4.6 MB) at 24.0 MB; draws
    # kept on the whole mesh take 41.5 MB alone. Sampling in blocks of
    # bandwidth + 1 draws, the fit peaks at 2.4 MB.
    n_block = min(n_g, mesh.bandwidth + 1)
    bound = 8 * mesh.n * (n_block + mesh.bandwidth + 1 + draws.diagnostics["n_evals"])
    slack = 8 * n_g * (mesh.bandwidth + 64)
    assert peak < bound + slack
    assert draws.field_mean.shape == (stack.grid.n_cells,)
    assert draws.loglik.shape == (n_draws,)


def test_fit_samples_through_one_normals_buffer(small_survey, monkeypatch):
    # a one-campaign field model whose 2-cell halo is small against the grid:
    # the 16 x 16 mesh has 256 nodes around the 144 grid cells, so a (grid
    # cells, n_g) copy of a group's solved block would be 56% of its normals
    stack, doms, _, points = small_survey
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=1, pc_prior=PC)
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=2)
    like = bin_points(spec, stack, {1: doms[1]}, points.for_campaign(1), mesh=mesh)
    n_draws = 4000

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

    # each block solves inside its normals, and every block's normals are
    # views of the first block's buffer: the grid points' draws in blocks of
    # at most bandwidth + 1 = 33
    diag = draws.diagnostics
    counts = diag["grid_counts"]
    assert counts.size == diag["grid_points"] == 9 and counts.sum() == n_draws
    assert len(normals) == diag["normal_passes"] == sum(math.ceil(n / 33) for n in counts)
    assert max(z.shape[1] for z in normals) == 33
    assert all(in_place)
    assert all(np.shares_memory(z, normals[0]) for z in normals)

    n_g = int(counts.max())
    # Bound: one full-lattice band of the factor and one block's (mesh.n,
    # min(n_g, bandwidth + 1)) normals, 0.14 MB, plus a slack of (bandwidth
    # + 64) doubles per draw of the largest group, 1.3 MB: the
    # back-substitution's (block, bandwidth) product and the small arrays
    # of the fit (theta jitter, dense normals and solves, dense, theta and
    # log-likelihood draws, cached theta modes, the row scratch of a split
    # grid point). A fit that samples a grid point in one block peaks at
    # 4.2 MB, 2.7 MB over the bound; one that also keeps the (A, grid) draws
    # (4.6 MB) at 8.8 MB. Sampling in blocks, the fit peaks at 0.57 MB.
    bound = 8 * mesh.n * (mesh.bandwidth + 1 + min(n_g, mesh.bandwidth + 1))
    slack = 8 * n_g * (mesh.bandwidth + 64)
    assert peak < bound + slack
