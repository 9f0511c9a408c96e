import math

import numpy as np
import pytest

from gridcox.gmrf import LatticeMesh, PcPriorSpec
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

    def test_single_campaign_has_no_campaign_effects(self):
        spec = ModelSpec(covariates=(), n_campaigns=1, include_field=False)
        assert not spec.has_campaign_effects
        assert spec.dense_names == ["mu0", "gamma"]
        assert spec.hyper_names == []

    def test_hyper_names(self):
        assert full_spec().hyper_names == ["log_sigma", "log_rho", "log_tau"]
        glm = ModelSpec(include_field=False, n_campaigns=3)
        assert glm.hyper_names == ["log_tau"]

    def test_duplicate_covariates_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(covariates=("depth", "depth"))


class TestEffectVector:
    def test_pack_unpack_round_trip(self):
        spec = full_spec()
        rng = np.random.default_rng(0)
        dense = rng.standard_normal(spec.n_dense)
        w = rng.standard_normal(25)
        eff = EffectVector.from_dense(spec, dense, w)
        assert eff.mu0 == dense[0]
        assert eff.gamma == dense[3]
        np.testing.assert_array_equal(eff.beta, dense[1:3])
        np.testing.assert_array_equal(eff.mu_t, dense[4:])
        np.testing.assert_array_equal(eff.pack_dense(spec), dense)

    def test_zeros_shapes(self):
        spec = full_spec()
        eff = EffectVector.zeros(spec, n_mesh=40)
        assert eff.w.shape == (40,)
        assert eff.mu_t.shape == (9,)
        glm = ModelSpec(include_field=False, n_campaigns=1)
        eff2 = EffectVector.zeros(glm, n_mesh=40)
        assert eff2.w.shape == (0,)
        assert eff2.mu_t.shape == (0,)


class TestDesignAndIntensity:
    def test_log_intensity_terms(self, stack, domains):
        d, d1, d2 = domains
        spec = full_spec()
        doms = {t: (d, d1, d2)[t % 3] for t in range(1, 10)}
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, doms, mesh)
        rng = np.random.default_rng(1)
        eff = EffectVector.from_dense(
            spec, rng.standard_normal(spec.n_dense), rng.standard_normal(mesh.n)
        )
        got = design.eta(eff.pack_dense(spec), eff.w)
        assert got.shape == (sum(doms[t].cell_ids.size for t in doms),)
        for t in (1, 3, 8):
            cells = doms[t].cell_ids
            manual = (
                eff.mu0
                + np.column_stack([stack.values_at(n, cells) for n in spec.covariates]) @ eff.beta
                + eff.gamma * stack.z_at(cells)
                + eff.w[mesh.grid_to_mesh[cells]]
                + eff.mu_t[t - 1]
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
        w = rng.standard_normal((4, mesh.n))
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
        eff = EffectVector.from_dense(
            spec, 0.1 * rng.standard_normal(spec.n_dense), 0.1 * rng.standard_normal(mesh.n)
        )
        parts = decompose_intensity(spec, eff, design)
        np.testing.assert_allclose(
            parts["spatial"] * parts["campaign"] * parts["effort"],
            parts["intensity"],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            np.log(parts["intensity"]), design.eta(eff.pack_dense(spec), eff.w), rtol=1e-10
        )
        np.testing.assert_allclose(parts["campaign"][design.rows[7]], math.exp(eff.mu_t[6]))

    def test_effort_factor_only_inside_meadow(self, stack, domains):
        d, d1, _ = domains
        spec = full_spec()
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        design = build_design(spec, stack, {t: d for t in range(1, 10)}, mesh)
        eff = EffectVector.zeros(spec, mesh.n)
        eff.gamma = -0.4
        parts = decompose_intensity(spec, eff, design)
        in_d1 = d1.included.ravel()[design.cell_ids]
        np.testing.assert_allclose(parts["effort"][in_d1], math.exp(-0.4))
        np.testing.assert_allclose(parts["effort"][~in_d1], 1.0)

    def test_field_free_model_needs_no_mesh(self, stack, domains):
        d, _, _ = domains
        spec = ModelSpec(covariates=("depth",), include_field=False, n_campaigns=2)
        design = build_design(spec, stack, {1: d, 2: d}, mesh=None)
        assert design.mesh_index.size == 0
        eff = EffectVector.zeros(spec)
        out = design.eta(eff.pack_dense(spec), eff.w)
        np.testing.assert_allclose(out, 0.0)
