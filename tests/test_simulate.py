import math

import numpy as np
import pytest

from gridcox import _banded, inference
from gridcox.geodata import DomainMask, RasterGrid
from gridcox.gmrf import MaternHyper
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, expected_count, simulate_lgcp
from test_geodata import contains_points


def flat_scenario(stack, campaign_domains, mu0=-4.0, **kw):
    """Single-campaign, field-free scenario on the full domain."""
    d = campaign_domains[8]  # campaign 8 observes the full domain
    spec = ModelSpec(covariates=(), include_poceanica=False, include_field=False, n_campaigns=1)
    return Scenario(
        stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0, **kw
    )


class TestScenarioValidation:
    def test_beta_length(self, stack, campaign_domains):
        spec = ModelSpec(covariates=("depth",), include_field=False, n_campaigns=1)
        with pytest.raises(ValueError, match="beta"):
            Scenario(stack=stack, campaign_domains={1: campaign_domains[8]}, spec=spec, mu0=0.0)

    def test_missing_campaign_domain(self, stack, campaign_domains):
        spec = ModelSpec(include_field=False, n_campaigns=2)
        with pytest.raises(ValueError, match="campaign domains"):
            Scenario(
                stack=stack, campaign_domains={1: campaign_domains[8]}, spec=spec,
                mu0=0.0, tau=1.0,
            )

    def test_field_needs_hyper(self, stack, campaign_domains):
        spec = ModelSpec(include_field=True, n_campaigns=1, include_poceanica=False)
        with pytest.raises(ValueError, match="hyper"):
            Scenario(stack=stack, campaign_domains={1: campaign_domains[8]}, spec=spec, mu0=0.0)


class TestHomogeneous:
    def test_count_matches_poisson_mean(self, stack, campaign_domains):
        # mu0 = log(400 / area): 400 expected points
        area = campaign_domains[8].area
        scn = flat_scenario(stack, campaign_domains, mu0=math.log(400.0 / area))
        assert expected_count(scn)[1] == pytest.approx(400.0, rel=1e-9)
        rng = np.random.default_rng(11)
        totals = [simulate_lgcp(scn, rng).points.n for _ in range(40)]
        mean = np.mean(totals)
        # 40 reps of Poisson(400): SE = sqrt(400/40) ~ 3.2
        assert abs(mean - 400.0) < 4 * math.sqrt(400.0 / 40)

    def test_points_fall_inside_domain(self, stack, campaign_domains):
        scn = flat_scenario(stack, campaign_domains, mu0=-6.0)
        rng = np.random.default_rng(5)
        survey = simulate_lgcp(scn, rng)
        mask = campaign_domains[8]
        assert np.all(contains_points(mask, survey.points.x, survey.points.y))

    def test_seed_reproducibility(self, stack, campaign_domains):
        scn = flat_scenario(stack, campaign_domains, mu0=-5.0)
        a = simulate_lgcp(scn, np.random.default_rng(3))
        b = simulate_lgcp(scn, np.random.default_rng(3))
        np.testing.assert_array_equal(a.points.x, b.points.x)
        np.testing.assert_array_equal(a.points.y, b.points.y)


class TestEffects:
    def test_gamma_thins_meadow(self, stack, domains):
        d, d1, d2 = domains
        spec = ModelSpec(covariates=(), include_poceanica=True, include_field=False, n_campaigns=1)
        mu0 = math.log(3000.0 / d.area)
        scn = Scenario(stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0, gamma=-1.0)
        expected = expected_count(scn)[1]
        # expected = |D2| e^mu0 + |D1| e^(mu0 + gamma)
        manual = d2.area * math.exp(mu0) + d1.area * math.exp(mu0 - 1.0)
        assert expected == pytest.approx(manual, rel=1e-9)
        rng = np.random.default_rng(17)
        survey = simulate_lgcp(scn, rng)
        in_d1 = contains_points(d1, survey.points.x, survey.points.y)
        rate_d1 = in_d1.sum() / d1.area
        rate_d2 = (~in_d1).sum() / d2.area
        assert rate_d1 / rate_d2 == pytest.approx(math.exp(-1.0), rel=0.25)

    def test_covariate_effect(self, stack, campaign_domains):
        d = campaign_domains[8]
        spec = ModelSpec(covariates=("depth",), include_poceanica=False, include_field=False)
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec, mu0=-8.0, beta=(0.12,)
        )
        design_cells = d.cell_ids
        depth = stack.values_at("depth", design_cells)
        manual = float(np.sum(np.exp(-8.0 + 0.12 * depth)) * d.grid.cell_area)
        assert expected_count(scn)[1] == pytest.approx(manual, rel=1e-9)

    def test_explicit_campaign_effects(self, stack, campaign_domains):
        spec = ModelSpec(include_poceanica=False, include_field=False, n_campaigns=2)
        d = campaign_domains[8]
        scn = Scenario(
            stack=stack, campaign_domains={1: d, 2: d}, spec=spec, mu0=-6.0,
            mu_t=(0.0, 1.0),
        )
        ec = expected_count(scn)
        assert ec[2] / ec[1] == pytest.approx(math.e, rel=1e-9)

    def test_campaign_effects_drawn_with_tau(self, stack, campaign_domains):
        spec = ModelSpec(include_poceanica=False, include_field=False, n_campaigns=5)
        d = campaign_domains[8]
        scn = Scenario(
            stack=stack, campaign_domains={t: d for t in range(1, 6)}, spec=spec,
            mu0=-6.0, tau=4.0,
        )
        rng = np.random.default_rng(23)
        survey = simulate_lgcp(scn, rng)
        assert survey.effects.dense[spec.dense_mask("campaign")].shape == (5,)
        # lognormal correction: E[N] = |D| e^mu0 e^(1/(2 tau))
        ec = expected_count(scn)
        assert ec[1] == pytest.approx(d.area * math.exp(-6.0) * math.exp(1 / 8.0), rel=1e-9)


class TestFieldScenario:
    def test_marginal_mean_tracks_lognormal_correction(self, stack, campaign_domains):
        d = campaign_domains[8]
        spec = ModelSpec(covariates=(), include_poceanica=False, include_field=True, n_campaigns=1)
        mu0 = math.log(500.0 / d.area)
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0,
            hyper=MaternHyper(sigma=0.8, rho=60.0),
        )
        assert expected_count(scn)[1] == pytest.approx(
            500.0 * math.exp(0.8**2 / 2), rel=1e-6
        )
        rng = np.random.default_rng(29)
        totals = [simulate_lgcp(scn, rng).points.n for _ in range(30)]
        # heavy-tailed over field draws; just check the right order of magnitude
        assert 200 < np.mean(totals) < 2500

    def test_truth_is_returned(self, stack, campaign_domains):
        d = campaign_domains[8]
        spec = ModelSpec(covariates=(), include_poceanica=False, include_field=True, n_campaigns=1)
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec, mu0=-6.0,
            hyper=MaternHyper(sigma=0.5, rho=40.0),
        )
        survey = simulate_lgcp(scn, np.random.default_rng(31))
        assert survey.effects.w.shape == (stack.grid.n_cells,)
        assert survey.log_lambda.shape == (d.cell_ids.size,)
        np.testing.assert_array_equal(survey.design.cell_ids[survey.design.rows[1]], d.cell_ids)
        # conditional expected count from the returned truth matches log_lambda
        ec = expected_count(scn, effects=survey.effects)[1]
        manual = float(np.exp(survey.log_lambda).sum() * d.grid.cell_area)
        assert ec == pytest.approx(manual, rel=1e-9)

    def test_simulation_runs_with_one_openblas_thread(self, stack, campaign_domains, monkeypatch):
        # oracle: OpenBLAS's own thread-count getter, read inside the banded
        # Cholesky of the field draw and again after the simulation returns
        controls = inference._openblas_threads()
        if not controls:
            pytest.skip("no OpenBLAS loaded")
        d = campaign_domains[8]
        spec = ModelSpec(covariates=(), include_poceanica=False, include_field=True, n_campaigns=1)
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec, mu0=-6.0,
            hyper=MaternHyper(sigma=0.5, rho=40.0),
        )
        seen = []
        chol_init = _banded.BandedChol.__init__

        def recording_init(self, ab):
            seen.append([get() for _, get in controls])
            chol_init(self, ab)

        monkeypatch.setattr(_banded.BandedChol, "__init__", recording_init)
        saved = [get() for _, get in controls]
        for setter, _ in controls:
            setter(2)
        try:
            simulate_lgcp(scn, np.random.default_rng(31))
            after = [get() for _, get in controls]
        finally:
            for (setter, _), n in zip(controls, saved):
                setter(n)
        assert seen and all(n == 1 for counts in seen for n in counts)
        assert after == [2] * len(controls)
