import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from gridcox.geodata import PointPattern
from gridcox.gmrf import LatticeMesh, MaternHyper, PcPriorSpec
from gridcox import _banded, inference
from gridcox.inference import (
    FitError,
    _gamma_logpdf,
    bin_points,
    compute_dic,
    fit,
    inner_objective_grad,
    summarize,
)
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp

PC = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=0.5, p_sigma=0.01)


def glm_spec(covariates=(), poceanica=False, campaigns=1):
    return ModelSpec(
        covariates=covariates,
        include_poceanica=poceanica,
        include_field=False,
        n_campaigns=campaigns,
        pc_prior=PC,
    )


class TestBinPoints:
    def test_counts_match_brute_force(self, stack, campaign_domains, survey):
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        assert like.y.sum() == survey.n
        grid = stack.grid
        for t, rows in like.design.rows.items():
            pts = survey.for_campaign(t)
            cells = grid.cell_of_points(pts.x, pts.y)
            brute = np.bincount(cells, minlength=grid.n_cells)[campaign_domains[t].cell_ids]
            np.testing.assert_array_equal(like.y[rows], brute)
            assert like.y[rows].sum() == pts.n
        assert like.y.size == sum(d.cell_ids.size for d in campaign_domains.values())

    def test_stray_point_is_error(self, stack, campaign_domains):
        spec = glm_spec(campaigns=1)
        # campaign 1 observes D2; drop a point inside the meadow (D1)
        d1_mask = campaign_domains[6]
        r, c = np.nonzero(d1_mask.included)
        x = stack.grid.origin_x + (c[0] + 0.5) * 10.0
        y = stack.grid.origin_y + (r[0] + 0.5) * 10.0
        pts = PointPattern(np.array([x]), np.array([y]), np.array([1]))
        with pytest.raises(ValueError, match="outside the campaign domain"):
            bin_points(spec, stack, {1: campaign_domains[1]}, pts)

    def test_campaign_label_out_of_range_is_error(self, stack, campaign_domains, survey):
        # five points labelled campaign 2 in a one-campaign survey
        pts = survey.for_campaign(1)
        labels = np.ones(pts.n, dtype=int)
        labels[:5] = 2
        pts = PointPattern(pts.x, pts.y, labels)
        with pytest.raises(ValueError, match="5 points have a campaign label outside 1..1"):
            bin_points(glm_spec(campaigns=1), stack, {1: campaign_domains[1]}, pts)

    def test_point_on_upper_grid_edge_is_error(self, stack, campaign_domains):
        # cells are half-open: x == origin_x + n_cols * dx lies off the grid
        grid = stack.grid
        x = grid.origin_x + grid.n_cols * grid.cell_dx
        y = grid.origin_y + 0.5 * grid.cell_dy
        pts = PointPattern(np.array([x]), np.array([y]), np.array([1]))
        with pytest.raises(ValueError, match="1 points fall outside the campaign domain"):
            bin_points(glm_spec(campaigns=1), stack, {1: campaign_domains[8]}, pts)

    def test_exposure_is_cell_area(self, stack, campaign_domains, survey):
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        assert like.design.weight == 100

    def test_dense_design_matches_model_layout(self, stack, campaign_domains, survey):
        spec = ModelSpec(
            covariates=("depth", "Dead Matte"),
            include_poceanica=True,
            include_field=True,
            n_campaigns=9,
            pc_prior=PC,
        )
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        like = bin_points(spec, stack, campaign_domains, survey, mesh=mesh)
        design = like.design
        assert design.x.shape == (like.y.size, spec.n_dense)
        for t in (1, 6, 9):
            rows = design.rows[t]
            cells = campaign_domains[t].cell_ids
            onehot = np.zeros((cells.size, 9))
            onehot[:, t - 1] = 1.0
            expect = np.column_stack(
                [np.ones(cells.size)]
                + [stack.values_at(name, cells) for name in spec.covariates]
                + [stack.z_at(cells), onehot]
            )
            np.testing.assert_array_equal(design.x[rows], expect)
            np.testing.assert_array_equal(design.mesh_index[rows], mesh.grid_to_mesh[cells])


class TestGradient:
    def test_glm_gradient_matches_central_differences(self, stack, campaign_domains, survey):
        spec = glm_spec(covariates=("depth",), poceanica=True, campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        rng = np.random.default_rng(1)
        for _ in range(4):
            u_d = rng.normal(scale=0.3, size=spec.n_dense)
            u_d[0] = -6.0  # keep intensities sane
            obj, grad = inner_objective_grad(like, np.zeros(0), u_d, tau=2.0)
            for i in range(spec.n_dense):
                h = 1e-5 * max(1.0, abs(u_d[i]))
                up, dn = u_d.copy(), u_d.copy()
                up[i] += h
                dn[i] -= h
                f_up, _ = inner_objective_grad(like, np.zeros(0), up, tau=2.0)
                f_dn, _ = inner_objective_grad(like, np.zeros(0), dn, tau=2.0)
                fd = (f_up - f_dn) / (2 * h)
                assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-6)

    def test_field_gradient_matches_central_differences(self, stack, campaign_domains, survey):
        spec = ModelSpec(
            covariates=(), include_poceanica=True, include_field=True,
            n_campaigns=2, pc_prior=PC,
        )
        doms = {1: campaign_domains[1], 2: campaign_domains[8]}
        pts = survey.take(np.isin(survey.campaign, [1, 8]))
        camp = np.where(pts.campaign == 8, 2, 1)
        pts = PointPattern(pts.x, pts.y, camp)
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=50.0)
        like = bin_points(spec, stack, doms, pts, mesh=mesh)
        hyper = MaternHyper(sigma=0.8, rho=60.0)
        rng = np.random.default_rng(2)
        u_w = rng.normal(scale=0.2, size=mesh.n)
        u_d = rng.normal(scale=0.2, size=spec.n_dense)
        u_d[0] = -6.0
        obj, grad = inner_objective_grad(like, u_w, u_d, hyper=hyper, tau=4.0)
        picks = rng.choice(mesh.n + spec.n_dense, size=12, replace=False)
        for i in picks:
            h = 1e-5
            uw_up, ud_up = u_w.copy(), u_d.copy()
            uw_dn, ud_dn = u_w.copy(), u_d.copy()
            if i < mesh.n:
                uw_up[i] += h
                uw_dn[i] -= h
            else:
                ud_up[i - mesh.n] += h
                ud_dn[i - mesh.n] -= h
            f_up, _ = inner_objective_grad(like, uw_up, ud_up, hyper=hyper, tau=4.0)
            f_dn, _ = inner_objective_grad(like, uw_dn, ud_dn, hyper=hyper, tau=4.0)
            fd = (f_up - f_dn) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-6)


class TestGlmFits:
    def test_homogeneous_intercept_recovers_log_rate(self, stack, campaign_domains):
        d = campaign_domains[8]
        spec = glm_spec()
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec,
            mu0=math.log(400.0 / d.area),
        )
        survey = simulate_lgcp(scn, np.random.default_rng(42))
        like = bin_points(spec, stack, {1: d}, survey.points)
        draws = fit(like, n_draws=2000, rng=np.random.default_rng(0))
        target = math.log(survey.points.n / d.area)
        assert draws.effect_draws("mu0").mean() == pytest.approx(target, abs=0.05)

    def test_no_hyperparameters_sample_the_mode_point(self, stack, campaign_domains):
        # h = 0: the theta grid is the single mode point, and the intercept
        # draws come from the Gaussian at the latent mode, whose precision is
        # weight * sum exp(eta_hat) + fixed_prec
        from scipy.optimize import brentq

        d = campaign_domains[8]
        spec = glm_spec()
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec,
            mu0=math.log(400.0 / d.area),
        )
        survey = simulate_lgcp(scn, np.random.default_rng(42))
        like = bin_points(spec, stack, {1: d}, survey.points)
        n_draws = 4000
        draws = fit(like, n_draws=n_draws, rng=np.random.default_rng(0))
        assert draws.diagnostics["grid_points"] == 1
        assert draws.diagnostics["n_evals"] == 1
        assert draws.theta_mode.shape == (0,)
        assert draws.w.shape == (n_draws, 0) and draws.log_hyper.shape == (n_draws, 0)

        alpha, n_cells, y_total = like.design.weight, like.y.size, like.y.sum()
        mode = brentq(
            lambda m: y_total - alpha * n_cells * math.exp(m) - spec.fixed_prec * m, -20.0, 0.0
        )
        sd = 1.0 / math.sqrt(alpha * n_cells * math.exp(mode) + spec.fixed_prec)
        mu0 = draws.effect_draws("mu0")
        # Monte Carlo error of a 4000-draw sd is about 1.1%; of the mean, sd / 63
        assert mu0.std(ddof=1) == pytest.approx(sd, rel=0.05)
        assert mu0.mean() == pytest.approx(mode, abs=4.0 * sd / math.sqrt(n_draws))

    def test_mode_matches_generic_optimizer(self, stack, campaign_domains, survey):
        # dual route: same penalized likelihood through scipy's BFGS
        spec = glm_spec(covariates=("depth",), poceanica=True, campaigns=1)
        d = campaign_domains[8]
        pts = survey.for_campaign(8)
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
        like = bin_points(spec, stack, {1: d}, pts)

        def neg_obj(u):
            val, _ = inner_objective_grad(like, np.zeros(0), u)
            return -val

        def neg_grad(u):
            _, g = inner_objective_grad(like, np.zeros(0), u)
            return -g

        ref = minimize(neg_obj, np.array([-6.0, 0.0, 0.0]), jac=neg_grad, method="BFGS")
        assert ref.success
        draws = fit(like, n_draws=4000, rng=np.random.default_rng(1))
        fitted = np.array(
            [
                draws.effect_draws("mu0").mean(),
                draws.effect_draws("depth").mean(),
                draws.effect_draws("gamma").mean(),
            ]
        )
        # posterior mean of a Gaussian equals its mode
        np.testing.assert_allclose(fitted, ref.x, atol=0.02)

    def test_campaign_effects_shrink_and_sum(self, stack, campaign_domains, survey):
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        draws = fit(like, n_draws=500, rng=np.random.default_rng(2))
        summary = summarize(draws)
        assert "tau" in summary.names
        # exchangeable prior keeps the campaign effects near zero mean
        mu_t = np.array([summary.row(f"mu[{t}]")["mean"] for t in range(1, 10)])
        assert abs(mu_t.mean()) < 0.5
        # campaigns 6-7 observe the small meadow with few points: negative
        # effects relative to the busy campaigns 1-2
        assert mu_t[5] < mu_t[1]

    def test_draw_determinism(self, stack, campaign_domains, survey):
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        a = fit(like, n_draws=200, rng=np.random.default_rng(7))
        b = fit(like, n_draws=200, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.log_hyper, b.log_hyper)


@pytest.fixture(scope="module")
def field_fit(stack, campaign_domains):
    d = campaign_domains[8]
    spec = ModelSpec(
        covariates=(), include_poceanica=True, include_field=True,
        n_campaigns=1, pc_prior=PC,
    )
    scn = Scenario(
        stack=stack, campaign_domains={1: d}, spec=spec,
        mu0=math.log(1500.0 / d.area), gamma=-0.5,
        hyper=MaternHyper(sigma=0.8, rho=70.0),
    )
    survey = simulate_lgcp(scn, np.random.default_rng(123))
    mesh = scn.build_mesh()
    like = bin_points(spec, stack, {1: d}, survey.points, mesh=mesh)
    draws = fit(like, n_draws=800, rng=np.random.default_rng(3))
    return scn, survey, like, draws


class TestFieldFit:
    def test_hyper_posterior_in_ballpark(self, field_fit):
        scn, survey, like, draws = field_fit
        sigma = draws.effect_draws("sigma")
        rho = draws.effect_draws("rho")
        assert 0.3 < sigma.mean() < 2.0
        assert 15.0 < rho.mean() < 250.0

    def test_field_mean_tracks_truth(self, field_fit):
        scn, survey, like, draws = field_fit
        idx = like.design.mesh_index
        truth = survey.effects.w[idx]
        post = draws.w.mean(axis=0)[idx]
        corr = np.corrcoef(truth, post)[0, 1]
        assert corr > 0.5

    def test_gamma_sign_recovered(self, field_fit):
        _, _, _, draws = field_fit
        assert draws.effect_draws("gamma").mean() < 0.0

    def test_summary_quantiles_ordered(self, field_fit):
        *_, draws = field_fit
        summary = summarize(draws)
        assert np.all(summary.q05 <= summary.q50)
        assert np.all(summary.q50 <= summary.q95)
        lo, hi = summary.interval("sigma")
        assert lo < hi

    def test_diagnostics_recorded(self, field_fit):
        *_, draws = field_fit
        diag = draws.diagnostics
        assert diag["grid_points"] == 9  # two hyperparameters -> 3 x 3
        assert diag["n_evals"] <= 150


class TestAxisClip:
    def glm_like(self, stack, campaign_domains, survey):
        # two campaigns on one domain: one hyperparameter, log tau
        spec = glm_spec(campaigns=2)
        d = campaign_domains[8]
        pts = survey.for_campaign(8)
        pts = PointPattern(pts.x, pts.y, 1 + np.arange(pts.n) % 2)
        return bin_points(spec, stack, {1: d, 2: d}, pts)

    @pytest.mark.parametrize("raw, clipped", [(0.05, 0.1), (3.0, 1.2)])
    def test_clipped_axis_is_recorded(
        self, stack, campaign_domains, survey, monkeypatch, raw, clipped
    ):
        like = self.glm_like(stack, campaign_domains, survey)
        monkeypatch.setattr(inference._Explorer, "axis_scales", lambda self, mode: np.array([raw]))
        draws = fit(like, n_draws=50, rng=np.random.default_rng(0))
        monkeypatch.setattr(
            inference._Explorer, "axis_scales", lambda self, mode: np.array([clipped])
        )
        at_bound = fit(like, n_draws=50, rng=np.random.default_rng(0))
        diag = draws.diagnostics
        assert diag["axis_sd_raw"].tolist() == [raw]
        assert diag["axis_sd"].tolist() == [clipped]
        assert diag["axis_clipped"] == ["log_tau"]
        # the grid uses the clipped sd: draws equal a fit whose raw sd is the bound
        assert at_bound.diagnostics["axis_clipped"] == []
        np.testing.assert_array_equal(draws.dense, at_bound.dense)
        np.testing.assert_array_equal(draws.log_hyper, at_bound.log_hyper)

    def test_field_fit_records_its_clip(self, field_fit):
        *_, draws = field_fit
        diag = draws.diagnostics
        raw, sd = diag["axis_sd_raw"], diag["axis_sd"]
        np.testing.assert_array_equal(sd, np.clip(raw, *inference.AXIS_SD_CLIP))
        names = draws.spec.hyper_names
        assert diag["axis_clipped"] == [n for n, r, c in zip(names, raw, sd) if r != c]


def test_newton_rejects_overflowing_trials(stack, campaign_domains, survey):
    # oracle: the mode Newton reaches from the usual start at 0. From an
    # intercept of -800 the first steps overshoot until exp(eta) overflows;
    # the line search must score those trials -inf and halve them away, and
    # no overflow warning may escape. Both solves stop at a gradient below
    # NEWTON_GRAD_TOL, and the curvature at the mode is at least the count
    spec = glm_spec()
    pts = survey.for_campaign(8)
    pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
    like = bin_points(spec, stack, {1: campaign_domains[8]}, pts)
    inner = inference._inner_at(like, None, None)
    _, ref, _, _ = inner.newton(np.zeros(0), np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, u_d, _, iters = inner.newton(np.zeros(0), np.array([-800.0]))
    assert iters > 1
    atol = 2.0 * inference.NEWTON_GRAD_TOL / like.y.sum()
    np.testing.assert_allclose(u_d, ref, rtol=0.0, atol=atol)


class TestOneBlasThread:
    @pytest.fixture
    def libs(self, monkeypatch):
        """Two fake libraries at 1 and 2 threads; returns their counts and setter calls."""
        counts, calls = [1, 2], []

        def control(i):
            def setter(n):
                calls.append((i, n))
                counts[i] = n

            return setter, lambda: counts[i]

        monkeypatch.setattr(inference, "_openblas_threads", lambda: (control(0), control(1)))
        return counts, calls

    def test_pins_and_restores_only_libraries_above_one(self, libs):
        counts, calls = libs
        with inference._one_blas_thread():
            assert counts == [1, 1]
            assert calls == [(1, 1)]  # library 0 already reads 1: no setter call
        assert counts == [1, 2]
        assert calls == [(1, 1), (1, 2)]

    def test_set_leaves_libraries_at_one_thread(self, libs):
        counts, calls = libs
        pins = inference._set_one_blas_thread()
        assert counts == [1, 1]
        assert calls == [(1, 1)]
        assert [n for _, n in pins] == [2]

    def test_restores_when_the_body_raises(self, libs):
        counts, calls = libs
        with pytest.raises(RuntimeError, match="boom"):
            with inference._one_blas_thread():
                raise RuntimeError("boom")
        assert counts == [1, 2]
        assert calls == [(1, 1), (1, 2)]

    def test_library_lookup_is_cached(self):
        first = inference._openblas_threads()
        info = inference._openblas_threads.cache_info()
        with inference._one_blas_thread():
            assert inference._openblas_threads() is first
        after = inference._openblas_threads.cache_info()
        assert (after.hits, after.misses) == (info.hits + 2, info.misses)


def small_field_like(stack, campaign_domains):
    """A field model's likelihood on the fixture grid's mesh with a 2-cell halo."""
    d = campaign_domains[8]
    spec = ModelSpec(
        covariates=(), include_poceanica=False, include_field=True, n_campaigns=1, pc_prior=PC
    )
    scn = Scenario(
        stack=stack, campaign_domains={1: d}, spec=spec, mu0=math.log(800.0 / d.area),
        hyper=MaternHyper(sigma=0.8, rho=70.0),
    )
    survey = simulate_lgcp(scn, np.random.default_rng(5))
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=2)
    return bin_points(spec, stack, {1: d}, survey.points, mesh=mesh)


def test_fit_records_every_banded_factorization(stack, campaign_domains, monkeypatch):
    # oracle: the BandedChol constructions during the fit, counted from outside
    like = small_field_like(stack, campaign_domains)
    calls = []
    chol_init = _banded.BandedChol.__init__

    def counting_init(self, ab):
        calls.append(1)
        chol_init(self, ab)

    monkeypatch.setattr(_banded.BandedChol, "__init__", counting_init)
    draws = fit(like, n_draws=20, rng=np.random.default_rng(0))
    diag = draws.diagnostics
    assert diag["factorizations"] == len(calls)
    # a factor per Newton step, plus at least one per grid point drawn from
    assert diag["factorizations"] > diag["newton_iters"]


def test_fit_runs_with_one_openblas_thread(stack, campaign_domains, monkeypatch):
    # oracle: OpenBLAS's own thread-count getter, read inside every banded
    # Cholesky of a small-mesh field fit and again after the fit returns
    controls = inference._openblas_threads()
    if not controls:
        pytest.skip("no OpenBLAS loaded")
    like = small_field_like(stack, campaign_domains)
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
        fit(like, n_draws=20, rng=np.random.default_rng(0))
        after = [get() for _, get in controls]
    finally:
        for (setter, _), n in zip(controls, saved):
            setter(n)
    assert seen and all(n == 1 for counts in seen for n in counts)
    assert after == [2] * len(controls)


class TestDic:
    def test_pd_close_to_parameter_count(self, stack, campaign_domains):
        d = campaign_domains[8]
        spec = glm_spec(covariates=("depth",))
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=spec,
            mu0=math.log(2000.0 / d.area), beta=(0.0,),
        )
        survey = simulate_lgcp(scn, np.random.default_rng(9))
        like = bin_points(spec, stack, {1: d}, survey.points)
        draws = fit(like, n_draws=4000, rng=np.random.default_rng(4))
        res = compute_dic(like, draws)
        assert res.p_d == pytest.approx(2.0, abs=0.6)
        assert res.dic == pytest.approx(res.dbar + res.p_d, rel=1e-12)
        assert res.dbar > res.d_hat

    def test_better_model_gets_lower_dic(self, stack, campaign_domains):
        d = campaign_domains[8]
        true_spec = glm_spec(covariates=("depth",))
        scn = Scenario(
            stack=stack, campaign_domains={1: d}, spec=true_spec,
            mu0=-7.0, beta=(0.15,),
        )
        survey = simulate_lgcp(scn, np.random.default_rng(10))
        like_true = bin_points(true_spec, stack, {1: d}, survey.points)
        like_null = bin_points(glm_spec(), stack, {1: d}, survey.points)
        dic_true = compute_dic(
            like_true, fit(like_true, n_draws=1500, rng=np.random.default_rng(5))
        )
        dic_null = compute_dic(
            like_null, fit(like_null, n_draws=1500, rng=np.random.default_rng(6))
        )
        assert dic_true.dic < dic_null.dic

    def test_matches_per_draw_poisson_deviance(self, stack, campaign_domains, survey):
        from scipy.stats import poisson

        spec = glm_spec(covariates=("depth",), poceanica=True, campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        draws = fit(like, n_draws=40, rng=np.random.default_rng(12))
        res = compute_dic(like, draws)

        def deviance(dense):
            eff = dict(zip(spec.dense_names, dense))
            total = 0.0
            for t in range(1, 10):
                cells = campaign_domains[t].cell_ids
                eta = (
                    eff["mu0"]
                    + eff["depth"] * stack.values_at("depth", cells)
                    + eff["gamma"] * stack.z_at(cells)
                    + eff[f"mu[{t}]"]
                )
                y = like.y[like.design.rows[t]]
                total += poisson.logpmf(y, stack.grid.cell_area * np.exp(eta)).sum()
            return -2.0 * total

        dbar = np.mean([deviance(draws.dense[a]) for a in range(draws.n_draws)])
        d_hat = deviance(draws.mean_effects().dense)
        assert res.dbar == pytest.approx(dbar, rel=1e-10)
        assert res.d_hat == pytest.approx(d_hat, rel=1e-10)
        assert res.p_d == pytest.approx(dbar - d_hat, abs=1e-6)
        assert res.dic == pytest.approx(2.0 * dbar - d_hat, rel=1e-10)


class TestCountLoglik:
    def test_matches_scipy_poisson(self, stack, campaign_domains, survey):
        from scipy.stats import poisson

        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        rng = np.random.default_rng(11)
        eta = rng.normal(-6.0, 0.3, like.y.size)
        manual = sum(
            poisson.logpmf(like.y[rows], like.design.weight * np.exp(eta[rows])).sum()
            for rows in like.design.rows.values()
        )
        assert like.loglik(eta, with_const=True) == pytest.approx(manual, rel=1e-10)
        assert like.loglik(eta) + like.loglik_const == pytest.approx(manual, rel=1e-10)


class TestHyperPrior:
    def test_gamma_logpdf_matches_scipy(self):
        from scipy.stats import gamma as gamma_dist

        for x, shape, rate in ((2.5, 1.0, 0.01), (0.3, 2.0, 4.0), (40.0, 0.5, 0.1)):
            expect = gamma_dist.logpdf(x, a=shape, scale=1.0 / rate)
            assert _gamma_logpdf(x, shape, rate) == pytest.approx(expect, rel=1e-12)


class TestFailureModes:
    def two_campaign_survey(self, survey, t1, t2):
        pts = survey.take(np.isin(survey.campaign, [t1, t2]))
        return PointPattern(pts.x, pts.y, np.where(pts.campaign == t2, 2, 1))

    def test_theta_budget_exhaustion_is_fit_error(
        self, stack, campaign_domains, survey, monkeypatch
    ):
        spec = glm_spec(campaigns=2)
        doms = {1: campaign_domains[1], 2: campaign_domains[8]}
        like = bin_points(spec, stack, doms, self.two_campaign_survey(survey, 1, 8))
        monkeypatch.setattr(inference, "MAX_EXPLORE_EVALS", 2)
        with pytest.raises(FitError, match="evaluation budget"):
            fit(like, n_draws=50, rng=np.random.default_rng(0))

    def test_campaign_with_no_points(self, stack, campaign_domains, survey):
        # campaign 2 watches the same domain as campaign 1 but sees nothing
        spec = glm_spec(campaigns=2)
        d = campaign_domains[1]
        pts = survey.for_campaign(1)
        like = bin_points(spec, stack, {1: d, 2: d}, pts)
        assert like.y[like.design.rows[2]].sum() == 0
        draws = fit(like, n_draws=400, rng=np.random.default_rng(0))
        summary = summarize(draws)
        assert np.all(np.isfinite(summary.mean)) and np.all(np.isfinite(summary.sd))
        assert summary.row("mu[2]")["mean"] < summary.row("mu[1]")["mean"]
