"""The grouped likelihood (cells grouped by design row and mesh node) against
per-cell formulas built from the cell design and its brute-force counts."""

import math

import numpy as np
import pytest
from scipy.stats import poisson

from gridcox import inference
from gridcox.crossval import assign_folds, build_partitions, split
from gridcox.geodata import CovariateStack, PointPattern, RasterGrid, habitat_domains
from gridcox.gmrf import LatticeMesh, MaternHyper
from gridcox.inference import ETA_BLOCK_DRAWS, bin_points, compute_dic
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp
from test_banded import band_to_dense
from test_crossval import membership_residuals, reduced_residuals
from test_inference import PC, cell_counts, cell_eta, mesh_draws, reduced_draws, whole_array_dic

K_FOLDS = 5


def meadow_stack():
    """64 x 64 grid of 10 m cells: Sandy with a 200 m meadow disc in the NE."""
    codes = np.ones((64, 64))
    xc, yc = RasterGrid(0.0, 0.0, 10.0, 10.0, codes).cell_centers()
    codes[(xc - 430.0) ** 2 + (yc - 430.0) ** 2 < 200.0**2] = 2.0
    legend = {1: "Sandy", 2: "P. oceanica"}
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    return CovariateStack(grid=habitat, habitat=habitat, poceanica_label="P. oceanica",
                          reference_class="Sandy")


def relabel(points, campaigns):
    """The points of the given campaigns, relabelled 1..len(campaigns)."""
    pts = points.take(np.isin(points.campaign, campaigns))
    labels = np.select([pts.campaign == t for t in campaigns], range(1, len(campaigns) + 1))
    return PointPattern(pts.x, pts.y, labels)


@pytest.fixture(scope="module")
def meadow_survey():
    stack = meadow_stack()
    d, _, _ = habitat_domains(stack.habitat, "P. oceanica")
    spec = ModelSpec(include_poceanica=True, include_field=False, pc_prior=PC)
    z = (stack.habitat.values == 2.0).ravel()
    mu0 = math.log(1500.0 / (stack.grid.cell_area * np.exp(-0.4 * z).sum()))
    scn = Scenario(stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0, gamma=-0.4)
    return stack, {1: d}, simulate_lgcp(scn, np.random.default_rng(3)).points


@pytest.fixture(params=["m_null_64", "m_true_64", "m_null_3c", "field_3c"])
def grouped(request, meadow_survey, stack, campaign_domains, survey):
    """(likelihood of fold 2's training points, their per-cell counts,
    partitions, validation points) of one model."""
    name = request.param
    if name.endswith("_64"):
        stack, doms, pts = meadow_survey
        partitions = build_partitions(doms, 8, 8)
        spec = ModelSpec(include_poceanica=name == "m_true_64", include_field=False,
                         pc_prior=PC)
    else:
        # campaigns on D2, D1 and D: meadow indicator 0, 1 and both
        doms = {1: campaign_domains[1], 2: campaign_domains[6], 3: campaign_domains[8]}
        pts = relabel(survey, [1, 6, 8])
        partitions = build_partitions(doms, 3, 4)
        spec = ModelSpec(include_poceanica=True, include_field=name == "field_3c",
                         n_campaigns=3, pc_prior=PC)
    mesh = None
    if spec.include_field:
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=2)
    train, val = split(pts, assign_folds(pts, K_FOLDS, np.random.default_rng(1)), 2)
    like = bin_points(spec, stack, doms, train, mesh=mesh)
    n_groups = {"m_null_64": 1, "m_true_64": 2, "m_null_3c": 4}.get(name, like.design.n_cells)
    assert like.groups.n_cells == n_groups
    return like, cell_counts(like.design, stack.grid, train), partitions, val


class TestGroupedAgainstCells:
    """rtol 1e-12: the grouped sums regroup the per-cell ones, so they differ
    by rounding alone."""

    def state(self, like, seed=0):
        """An inner problem and a latent point away from its mode."""
        rng = np.random.default_rng(seed)
        spec = like.spec
        u_d = rng.normal(0.0, 0.3, spec.n_dense)
        u_d[0] += math.log(0.002)
        u_w = rng.normal(0.0, 0.3, like.n_mesh)
        hyper = MaternHyper(sigma=0.8, rho=60.0) if spec.include_field else None
        tau = 4.0 if spec.has_campaign_effects else None
        return inference._inner_at(like, hyper, tau), u_w, u_d

    @staticmethod
    def cell_eta(like, u_w, u_d):
        """Every cell's log-intensity, the mesh vector ``u_w`` read on the grid."""
        w = u_w[like.mesh.grid_to_mesh] if like.n_mesh else u_w
        return like.design.eta(u_d, w)

    def test_loglik(self, grouped):
        like, y, *_ = grouped
        inner, u_w, u_d = self.state(like)
        design = like.design
        expect = poisson.logpmf(y, design.weight * np.exp(self.cell_eta(like, u_w, u_d))).sum()
        got = like.loglik(inner.eta(u_w, u_d), with_const=True)
        assert got == pytest.approx(expect, rel=1e-12)

    def test_gradient(self, grouped):
        like, y, *_ = grouped
        inner, u_w, u_d = self.state(like)
        design = like.design
        resid = y - design.weight * np.exp(self.cell_eta(like, u_w, u_d))
        g_d = design.x.T @ resid - inner.dense_prior * u_d
        g_w, got_d = inner.gradient(inner.at(u_w, u_d))
        np.testing.assert_allclose(got_d, g_d, rtol=1e-12)
        if like.n_mesh:
            expect_w = np.bincount(design.mesh_index, weights=resid, minlength=like.n_mesh)
            np.testing.assert_allclose(g_w, expect_w - inner.prec.matvec(u_w), rtol=1e-12)

    def test_negated_hessian(self, grouped):
        like, _, *_ = grouped
        inner, u_w, u_d = self.state(like)
        design, n = like.design, like.n_mesh
        mu = design.weight * np.exp(self.cell_eta(like, u_w, u_d))
        # the latent vector's loadings on every cell: its mesh node, then x
        onto = np.zeros((design.n_cells, n))
        if n:
            onto[np.arange(design.n_cells), design.mesh_index] = 1.0
        a = np.column_stack([onto, design.x])
        expect = a.T @ (mu[:, None] * a)
        expect[n:, n:] += np.diag(inner.dense_prior)
        ab, b, s = inner._hessian(inner.at(u_w, u_d).mean, slice(0, n))
        got = np.zeros_like(expect)
        got[n:, n:] = s
        if n:
            expect[:n, :n] += band_to_dense(inner.prec.ab)
            got[:n, :n] = band_to_dense(ab)
            got[:n, n:], got[n:, :n] = b, b.T
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12 * np.abs(expect).max())

    @pytest.mark.parametrize("n_draws", [3, ETA_BLOCK_DRAWS + 3])
    def test_dic(self, grouped, n_draws):
        like, y, *_ = grouped
        dense, w = mesh_draws(like.spec, like.mesh, n_draws, seed=n_draws)
        res = compute_dic(like, reduced_draws(like, dense, w))
        dbar, d_hat = whole_array_dic(like.design, y, cell_eta(like.design, dense, w))
        assert res.dbar == pytest.approx(dbar, rel=1e-12)
        assert res.d_hat == pytest.approx(d_hat, rel=1e-12)
        assert res.dic == pytest.approx(2.0 * dbar - d_hat, rel=1e-12)

    @pytest.mark.parametrize("n_draws", [3, ETA_BLOCK_DRAWS + 3])
    def test_validation_residuals(self, grouped, n_draws):
        like, _, partitions, val = grouped
        dense, w = mesh_draws(like.spec, like.mesh, n_draws, seed=n_draws)
        resid = reduced_residuals(like, partitions, val, K_FOLDS, dense, w)
        expect = membership_residuals(
            np.exp(cell_eta(like.design, dense, w)), like, partitions, val, K_FOLDS
        )
        np.testing.assert_allclose(resid, expect, rtol=1e-12, atol=1e-12)


def test_field_designs_group_to_the_identity(stack, campaign_domains, survey):
    # three campaigns whose domains share cells: the campaign columns keep a
    # cell's rows apart, and the mesh node keeps the cells of one campaign
    # apart, so every group is one cell, in the design's row order, and the
    # grouped arrays are the per-cell ones bit for bit
    doms = {1: campaign_domains[1], 2: campaign_domains[6], 3: campaign_domains[8]}
    pts = relabel(survey, [1, 6, 8])
    spec = ModelSpec(covariates=("depth",), include_poceanica=True, include_field=True,
                     n_campaigns=3, pc_prior=PC)
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0)
    like = bin_points(spec, stack, doms, pts, mesh=mesh)
    design, groups = like.design, like.groups
    n = design.n_cells
    np.testing.assert_array_equal(like.group_of, np.arange(n))
    for name in ("cell_ids", "mesh_index", "x"):
        np.testing.assert_array_equal(getattr(groups, name), getattr(design, name))
    assert groups.rows == design.rows and groups.weight == design.weight
    np.testing.assert_array_equal(like.exposure, np.full(n, design.weight))
    np.testing.assert_array_equal(like.y, cell_counts(design, stack.grid, pts))
