import math

import numpy as np
import pytest

from gridcox.geodata import PointPattern
from gridcox.gmrf import LatticeMesh, PcPriorSpec
from gridcox.inference import _Inner, bin_points
from gridcox.model import EffectVector, ModelSpec, build_design, decompose_intensity

PC = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=0.5, p_sigma=0.01)


def full_spec():
    return ModelSpec(
        covariates=("depth", "Dead Matte"),
        include_poceanica=True,
        include_field=True,
        n_campaigns=9,
        pc_prior=PC,
    )


class TestModelSpec:
    def test_dense_layout(self):
        spec = full_spec()
        names = spec.dense_names
        assert names[0] == "mu0"
        assert names[1:3] == ["depth", "Dead Matte"]
        assert names[3] == "gamma"
        assert names[4:] == [f"mu[{t}]" for t in range(1, 10)]
        assert spec.n_dense == 13
        kinds = [kind for _, kind in spec.dense_columns]
        assert kinds == ["intercept", "covariate", "covariate", "effort"] + ["campaign"] * 9
        assert [name for name, _ in spec.dense_columns] == names
        np.testing.assert_array_equal(spec.dense_mask("campaign"), [False] * 4 + [True] * 9)

    def test_single_campaign_has_no_campaign_effects(self):
        spec = ModelSpec(covariates=(), n_campaigns=1, include_field=False)
        assert not spec.has_campaign_effects
        assert spec.dense_names == ["mu0", "gamma"]
        assert spec.hyper_names == []

    def test_hyper_names(self):
        assert full_spec().hyper_names == ["log_sigma", "log_rho", "log_tau"]
        glm = ModelSpec(include_field=False, n_campaigns=3)
        assert glm.hyper_names == ["log_tau"]
        assert full_spec().row_names[-3:] == ["sigma", "rho", "tau"]

    def test_duplicate_covariates_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(covariates=("depth", "depth"))

    @pytest.mark.parametrize(
        "covariate, kwargs",
        [
            ("gamma", dict(include_poceanica=True)),
            ("mu0", dict()),
            ("mu[2]", dict(n_campaigns=3)),
            ("sigma", dict(include_field=True)),
            ("tau", dict(include_field=False, n_campaigns=2)),
        ],
        ids=["gamma", "mu0", "mu-t", "sigma", "tau"],
    )
    def test_covariate_named_like_another_row_rejected(self, covariate, kwargs):
        with pytest.raises(ValueError, match="names repeat"):
            ModelSpec(covariates=(covariate,), **kwargs)

    def test_covariate_may_take_a_name_the_model_does_not_use(self):
        spec = ModelSpec(covariates=("gamma", "sigma"), include_poceanica=False,
                         include_field=False)
        assert spec.dense_names == ["mu0", "gamma", "sigma"]


class TestDensePrior:
    def test_tau_on_campaign_columns_only(self, stack, domains):
        d, _, _ = domains
        spec = ModelSpec(covariates=("depth",), include_field=False, n_campaigns=3)
        no_points = PointPattern(np.zeros(0), np.zeros(0), np.zeros(0, dtype=int))
        like = bin_points(spec, stack, {1: d, 2: d, 3: d}, no_points)
        prior = _Inner(like, None, tau=7.0).dense_prior
        campaign = [name.startswith("mu[") for name in spec.dense_names]
        assert sum(campaign) == 3
        np.testing.assert_array_equal(prior, np.where(campaign, 7.0, spec.fixed_prec))


class TestDesignAndIntensity:
    def test_log_intensity_terms(self, stack, domains):
        d, d1, d2 = domains
        spec = full_spec()
        doms = {t: (d, d1, d2)[t % 3] for t in range(1, 10)}
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, doms, mesh)
        rng = np.random.default_rng(1)
        dense, w = rng.standard_normal(spec.n_dense), rng.standard_normal(stack.grid.n_cells)
        got = design.eta(dense, w)
        assert got.shape == (sum(doms[t].cell_ids.size for t in doms),)
        eff = dict(zip(spec.dense_names, dense))
        beta = np.array([eff[n] for n in spec.covariates])
        for t in (1, 3, 8):
            cells = doms[t].cell_ids
            manual = (
                eff["mu0"]
                + np.column_stack([stack.values_at(n, cells) for n in spec.covariates]) @ beta
                + eff["gamma"] * stack.z_at(cells)
                + w[cells]
                + eff[f"mu[{t}]"]
            )
            np.testing.assert_array_equal(design.cell_ids[design.rows[t]], cells)
            np.testing.assert_allclose(got[design.rows[t]], manual, rtol=1e-12)

    def test_eta_of_draws_matches_each_draw(self, stack, domains):
        d, d1, _ = domains
        spec = ModelSpec(covariates=("depth",), include_field=True, n_campaigns=2, pc_prior=PC)
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, {1: d, 2: d1}, mesh)
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((4, spec.n_dense))
        w = rng.standard_normal((4, stack.grid.n_cells))
        stacked = design.eta(dense, w)
        assert stacked.shape == (4, design.n_cells)
        for a in range(4):
            np.testing.assert_allclose(stacked[a], design.eta(dense[a], w[a]), rtol=1e-12)

    def test_z_is_meadow_indicator(self, stack, domains):
        d, d1, d2 = domains
        spec = full_spec()
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, {t: d for t in range(1, 10)}, mesh)
        z = design.x[:, spec.dense_names.index("gamma")]
        in_d1 = d1.included.ravel()[design.cell_ids]
        np.testing.assert_array_equal(z.astype(bool), in_d1)

    def test_campaign_out_of_range(self, stack, domains):
        d, _, _ = domains
        spec = full_spec()
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        doms = {t: d for t in range(1, 11)}
        with pytest.raises(ValueError, match="campaign"):
            build_design(spec, stack, doms, mesh)

    def test_decomposition_multiplies_back(self, stack, domains):
        d, d1, _ = domains
        spec = full_spec()
        doms = {t: (d, d1)[t % 2] for t in range(1, 10)}
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, doms, mesh)
        rng = np.random.default_rng(2)
        eff = EffectVector(
            dense=0.1 * rng.standard_normal(spec.n_dense),
            w=0.1 * rng.standard_normal(stack.grid.n_cells),
        )
        parts = decompose_intensity(spec, eff, design)
        np.testing.assert_allclose(
            parts["spatial"] * parts["campaign"] * parts["effort"],
            parts["intensity"],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            np.log(parts["intensity"]), design.eta(eff.dense, eff.w), rtol=1e-10
        )
        mu_7 = eff.dense[spec.dense_names.index("mu[7]")]
        np.testing.assert_allclose(parts["campaign"][design.rows[7]], math.exp(mu_7))

    def test_effort_factor_only_inside_meadow(self, stack, domains):
        d, d1, _ = domains
        spec = full_spec()
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, {t: d for t in range(1, 10)}, mesh)
        eff = EffectVector(dense=np.zeros(spec.n_dense), w=np.zeros(stack.grid.n_cells))
        eff.dense[spec.dense_names.index("gamma")] = -0.4
        parts = decompose_intensity(spec, eff, design)
        in_d1 = d1.included.ravel()[design.cell_ids]
        np.testing.assert_allclose(parts["effort"][in_d1], math.exp(-0.4))
        np.testing.assert_allclose(parts["effort"][~in_d1], 1.0)

    def test_field_free_model_needs_no_mesh(self, stack, domains):
        d, _, _ = domains
        spec = ModelSpec(covariates=("depth",), include_field=False, n_campaigns=2)
        design = build_design(spec, stack, {1: d, 2: d}, mesh=None)
        assert design.mesh_index.size == 0
        out = design.eta(np.zeros(spec.n_dense), np.zeros(0))
        np.testing.assert_allclose(out, 0.0)
