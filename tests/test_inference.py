import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from gridcox.geodata import PointPattern
from gridcox.gmrf import LatticeMesh, MaternHyper, PcPriorSpec
from gridcox import _banded, inference
from gridcox.inference import (
    ETA_BLOCK_DRAWS,
    FitError,
    PosteriorDraws,
    _gamma_logpdf,
    bin_points,
    compute_dic,
    fit,
    inner_objective_grad,
    summarize,
)
from gridcox.model import CellDesign, ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp
from test_banded import band_to_dense

PC = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=0.5, p_sigma=0.01)


def effect_draws(draws, name):
    """Draws of one dense effect or (natural-scale) hyperparameter."""
    if name in draws.spec.dense_names:
        return draws.dense[:, draws.spec.dense_names.index(name)]
    return np.exp(draws.log_hyper[:, draws.spec.hyper_names.index(f"log_{name}")])


def cell_counts(design, grid, points):
    """Count of ``points`` in every cell of ``design``, by brute force: the
    per-cell counts that ``bin_points`` groups."""
    y = np.empty(design.n_cells)
    for t, rows in design.rows.items():
        pts = points.for_campaign(t)
        per_cell = np.bincount(grid.cell_of_points(pts.x, pts.y), minlength=grid.n_cells)
        y[rows] = per_cell[design.cell_ids[rows]]
    return y


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
        # one group per campaign: the count totals are the campaigns' point
        # counts, and the per-cell counts survive in the eta-free constant
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        assert like.y.sum() == survey.n
        grid = stack.grid
        brute = []
        for t in range(1, 10):
            pts = survey.for_campaign(t)
            cells = grid.cell_of_points(pts.x, pts.y)
            brute.append(np.bincount(cells, minlength=grid.n_cells)[campaign_domains[t].cell_ids])
            assert like.y[like.groups.rows[t]].tolist() == [pts.n]
        brute = np.concatenate(brute)
        assert like.design.n_cells == brute.size
        np.testing.assert_array_equal(like.y, np.bincount(like.group_of, weights=brute))
        const = brute.sum() * math.log(grid.cell_area) - sum(math.lgamma(n + 1) for n in brute)
        assert like.loglik_const == pytest.approx(const, rel=1e-12)

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
        # a group's exposure is the cell area times its cell count
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        assert like.design.weight == 100
        sizes = [campaign_domains[t].cell_ids.size for t in range(1, 10)]
        assert like.exposure.tolist() == [100.0 * n for n in sizes]

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
        assert design.x.shape == (design.n_cells, spec.n_dense)
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
        assert effect_draws(draws, "mu0").mean() == pytest.approx(target, abs=0.05)

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
        assert draws.field_mean.shape == (0,) and draws.log_hyper.shape == (n_draws, 0)
        assert draws.loglik.shape == (n_draws,)

        alpha, n_cells, y_total = like.design.weight, like.design.n_cells, like.y.sum()
        mode = brentq(
            lambda m: y_total - alpha * n_cells * math.exp(m) - spec.fixed_prec * m, -20.0, 0.0
        )
        sd = 1.0 / math.sqrt(alpha * n_cells * math.exp(mode) + spec.fixed_prec)
        mu0 = effect_draws(draws, "mu0")
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
                effect_draws(draws, "mu0").mean(),
                effect_draws(draws, "depth").mean(),
                effect_draws(draws, "gamma").mean(),
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
        sigma = effect_draws(draws, "sigma")
        rho = effect_draws(draws, "rho")
        assert 0.3 < sigma.mean() < 2.0
        assert 15.0 < rho.mean() < 250.0

    def test_field_mean_tracks_truth(self, field_fit):
        scn, survey, like, draws = field_fit
        idx = like.design.cell_ids
        truth = survey.effects.w[idx]
        post = draws.field_mean[idx]
        corr = np.corrcoef(truth, post)[0, 1]
        assert corr > 0.5

    def test_gamma_sign_recovered(self, field_fit):
        _, _, _, draws = field_fit
        assert effect_draws(draws, "gamma").mean() < 0.0

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
    ref = inner.newton(np.zeros(0), np.zeros(1))[0].u_d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode, _, iters = inner.newton(np.zeros(0), np.array([-800.0]))
    assert iters > 1
    atol = 2.0 * inference.NEWTON_GRAD_TOL / like.y.sum()
    np.testing.assert_allclose(mode.u_d, ref, rtol=0.0, atol=atol)


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


@pytest.mark.parametrize("model", ["field", "glm"])
def test_newton_evaluates_each_latent_iterate_once(stack, campaign_domains, survey, model,
                                                   monkeypatch):
    # oracle: the log-intensities every Poisson mean is taken at, recorded
    # from outside. One theta evaluation (Newton from the explorer's zero
    # start, then the Laplace log posterior) takes the mean once per latent
    # vector it visits: the start, each accepted step and each rejected
    # line-search trial. The objective, gradient, Hessian weights and log
    # posterior of an iterate all read that one mean.
    if model == "field":
        like, theta = small_field_like(stack, campaign_domains), np.log([0.8, 70.0])
    else:
        pts = survey.for_campaign(8)
        like = bin_points(glm_spec(), stack, {1: campaign_domains[8]},
                          PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int)))
        theta = np.zeros(0)
    etas = []
    poisson_mean = inference.GriddedLikelihood.poisson_mean

    def recording(self, eta):
        etas.append(eta.copy())
        return poisson_mean(self, eta)

    monkeypatch.setattr(inference.GriddedLikelihood, "poisson_mean", recording)
    explorer = inference._Explorer(like, np.zeros(like.n_mesh), np.zeros(like.spec.n_dense))
    explorer.evaluate(theta)
    iters = explorer.newton_iters
    assert iters >= 2
    assert len(etas) >= iters + 1
    distinct = {eta.tobytes() for eta in etas}
    assert len(distinct) == len(etas), f"{len(etas)} means at {len(distinct)} points"


def test_fit_counts_one_end_factorization_per_theta(stack, campaign_domains, survey):
    # the 2-cell halo makes each end exactly one band width (2 mesh rows) long
    draws = fit(small_field_like(stack, campaign_domains), n_draws=20,
                rng=np.random.default_rng(0))
    assert draws.diagnostics["end_factorizations"] == draws.diagnostics["n_evals"]
    pts = survey.for_campaign(8)
    glm = bin_points(glm_spec(), stack, {1: campaign_domains[8]},
                     PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int)))
    assert fit(glm, n_draws=20, rng=np.random.default_rng(0)).diagnostics[
        "end_factorizations"] == 0


def test_end_elimination_leaves_the_fit_at_rounding_level(stack, campaign_domains, monkeypatch):
    # oracle: the same fit with Newton factoring the whole lattice in natural order
    like = small_field_like(stack, campaign_domains)

    def run():
        points = []
        evaluate = inference._Explorer.evaluate

        def recording(self, theta):
            point = evaluate(self, theta)
            points.append(point)
            return point

        with monkeypatch.context() as m:
            m.setattr(inference._Explorer, "evaluate", recording)
            draws = fit(like, n_draws=200, rng=np.random.default_rng(4))
        return draws, points

    draws, points = run()
    monkeypatch.setattr(inference._Inner, "_newton_factor", inference._Inner._hessian_factor)
    full, full_points = run()
    for k in ("n_evals", "newton_iters", "grid_points"):
        assert draws.diagnostics[k] == full.diagnostics[k]
    assert full.diagnostics["end_factorizations"] == 0
    assert len(points) == len(full_points)
    for a, b in zip(points, full_points):
        np.testing.assert_allclose(a.theta, b.theta, rtol=1e-9)
        assert a.log_post == pytest.approx(b.log_post, rel=1e-9)
        u, v = np.concatenate([a.u_w, a.u_d]), np.concatenate([b.u_w, b.u_d])
        np.testing.assert_allclose(u, v, rtol=1e-9, atol=1e-9 * np.abs(v).max())
    np.testing.assert_array_equal(draws.theta_mode, full.theta_mode)
    got, want = summarize(draws), summarize(full)
    for name in ("mean", "sd", "q05", "q50", "q95"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-9)


def lattice_like(mesh, data_rows, seed=0):
    """A field model's likelihood on ``mesh`` whose cells are the grid rows
    ``data_rows``, with random meadow indicators and counts."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec(include_poceanica=True, include_field=True, n_campaigns=1, pc_prior=PC)
    cells = (np.asarray(data_rows)[:, None] * mesh.grid_cols + np.arange(mesh.grid_cols)).ravel()
    x = np.column_stack([np.ones(cells.size), rng.integers(0, 2, cells.size)])
    design = CellDesign(cell_ids=cells, mesh_index=mesh.grid_to_mesh[cells],
                        weight=mesh.dx * mesh.dy, rows={1: slice(0, cells.size)}, x=x)
    y = rng.poisson(2.0, cells.size).astype(float)
    return inference.GriddedLikelihood.from_cells(spec, mesh, design, y)


class TestEndElimination:
    """Newton's factor, with the data-free end rows eliminated, against the
    dense negated Hessian."""

    MESHES = {
        # (grid rows, grid cols, dx, dy, halo), grid rows holding data
        "halo-1-end-shorter-than-band": ((4, 5, 1.0, 1.0, 1), [0, 1, 2, 3]),
        "halo-2-end-one-band": ((4, 5, 1.0, 1.0, 2), [0, 1, 2, 3]),
        "rows-ne-cols-dx-ne-dy": ((5, 3, 2.0, 0.5, 3), [0, 1, 2, 3, 4]),
        "data-free-grid-rows": ((7, 4, 1.0, 1.0, 2), [2, 4]),
        "single-row-widened": ((5, 4, 1.0, 1.0, 2), [2]),
        "single-last-row-empty-bottom": ((3, 4, 1.0, 1.0, 1), [2]),
    }

    def setup(self, dims, data_rows, seed=0):
        mesh = LatticeMesh(*dims)
        like = lattice_like(mesh, data_rows, seed)
        inner = inference._inner_at(like, MaternHyper(sigma=0.6, rho=3.0), None)
        rng = np.random.default_rng(seed + 1)
        u_w = rng.normal(0.0, 0.3, mesh.n)
        u_d = np.array([0.2, -0.4])
        return like, inner, u_w, u_d

    def dense_hessian(self, like, inner, u_w, u_d):
        design, n = like.design, like.n_mesh
        w = design.weight * np.exp(design.eta(u_d, u_w[like.mesh.grid_to_mesh]))
        onto = np.zeros((design.n_cells, n))
        onto[np.arange(design.n_cells), design.mesh_index] = 1.0
        a = np.column_stack([onto, design.x])
        h = a.T @ (w[:, None] * a)
        h[:n, :n] += band_to_dense(inner.prec.ab)
        h[n:, n:] += np.diag(inner.dense_prior)
        return h

    @pytest.mark.parametrize("case", list(MESHES))
    def test_logdet_and_solve_match_dense(self, case):
        dims, data_rows = self.MESHES[case]
        like, inner, u_w, u_d = self.setup(dims, data_rows)
        nodes = like.data_nodes
        assert nodes.stop - nodes.start >= inner.prec.mesh.bandwidth
        h = self.dense_hessian(like, inner, u_w, u_d)
        factor = inner._newton_factor(inner.at(u_w, u_d).mean)
        assert isinstance(factor, _banded.EndArrowFactor)
        assert factor.logdet == pytest.approx(np.linalg.slogdet(h)[1], rel=1e-12)
        rhs = np.random.default_rng(3).standard_normal(h.shape[0])
        x_w, x_d = factor.solve(rhs[: like.n_mesh], rhs[like.n_mesh :])
        np.testing.assert_allclose(np.concatenate([x_w, x_d]), np.linalg.solve(h, rhs),
                                   rtol=1e-10)
        assert inner.n_end_factors == 1 and inner.n_factors == 2
        inner._newton_factor(inner.at(u_w, u_d).mean)  # the ends are factored once per theta
        assert inner.n_end_factors == 1 and inner.n_factors == 3

    def test_data_rows_set_the_ends(self):
        dims, data_rows = self.MESHES["data-free-grid-rows"]
        like, *_ = self.setup(dims, data_rows)
        cols = like.mesh.cols
        assert like.data_nodes == slice(4 * cols, 7 * cols)  # halo 2: mesh rows 4..6
        dims, data_rows = self.MESHES["single-last-row-empty-bottom"]
        like, *_ = self.setup(dims, data_rows)
        assert like.data_nodes == slice(3 * like.mesh.cols, like.mesh.n)

    def test_nan_poisson_weight_is_fit_error(self):
        dims, data_rows = self.MESHES["halo-2-end-one-band"]
        like, inner, u_w, u_d = self.setup(dims, data_rows)
        u_w[like.design.mesh_index[3]] = np.nan
        with pytest.raises(FitError, match="non-positive-definite"):
            inner._newton_factor(inner.at(u_w, u_d).mean)


def mesh_draws(spec, mesh, n_draws, seed):
    """Synthetic draws in the layout a fit solves them in: (dense (A,
    n_dense), field (mesh nodes, A)), one column of the field per draw. The
    intensity is near the surveys': the intercept about log(0.002) per m^2,
    every other effect and the field on the grid cells of ``mesh`` around 0.
    The field has noise of sd 50 on the mesh halo, which would swamp any
    output that read it. Without a mesh the field is (0, A)."""
    rng = np.random.default_rng(seed)
    dense = rng.normal(0.0, 0.3, (n_draws, spec.n_dense))
    dense[:, 0] += math.log(0.002)
    if mesh is None:
        return dense, np.zeros((0, n_draws))
    w = rng.normal(0.0, 50.0, (mesh.n, n_draws))
    w[mesh.grid_to_mesh] = rng.normal(0.0, 0.5, (mesh.grid_to_mesh.size, n_draws))
    return dense, w


def reduced_draws(like, dense, w, reduce=None):
    """``PosteriorDraws`` of the draws ``dense`` and ``w`` (``mesh_draws``) as
    a fit to ``like`` reduces them, ``reduce`` being the fit's keyword. They
    are fed in two parts, as a fit feeds two θ grid points, the first part
    one draw past a block."""
    n = dense.shape[0]
    reducer = inference._DrawReducer(like, n, reduce)
    cut = min(n, ETA_BLOCK_DRAWS + 1)
    for part in (slice(0, cut), slice(cut, n)):
        reducer.add(part.start, dense[part].T, w[:, part])
    h = len(like.spec.hyper_names)
    return PosteriorDraws(
        spec=like.spec,
        like=like,
        dense=dense,
        field_mean=reducer.field_mean(),
        loglik=reducer.loglik,
        log_hyper=np.zeros((n, h)),
        theta_mode=np.zeros(h),
    )


def cell_eta(design, dense, w):
    """(A, N) log-intensities of the cells of ``design`` under the draws
    ``dense`` and ``w`` (``mesh_draws``): x d plus the field at each cell's
    mesh node."""
    eta = dense @ design.x.T
    if design.mesh_index.size:
        eta += w[design.mesh_index].T
    return eta


def whole_array_dic(design, y, eta):
    """(dbar, d_hat) from the whole (A, N) ``eta`` array of the cells of
    ``design``, whose counts are ``y``: the mean Poisson deviance of its
    rows, and the deviance at its mean row."""
    from scipy.stats import poisson

    dbar = -2.0 * poisson.logpmf(y, design.weight * np.exp(eta)).sum(axis=1).mean()
    d_hat = -2.0 * poisson.logpmf(y, design.weight * np.exp(eta.mean(axis=0))).sum()
    return dbar, d_hat


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

    @pytest.mark.parametrize("with_field", [False, True])
    def test_matches_whole_array_formula(self, stack, campaign_domains, survey, with_field):
        # three campaigns on D2, D1 and D; draws across a partial last block
        spec = ModelSpec(
            covariates=("depth",), include_poceanica=True, include_field=with_field,
            n_campaigns=3, pc_prior=PC,
        )
        doms = {1: campaign_domains[1], 2: campaign_domains[6], 3: campaign_domains[8]}
        pts = survey.take(np.isin(survey.campaign, [1, 6, 8]))
        pts = PointPattern(pts.x, pts.y, np.select([pts.campaign == 6, pts.campaign == 8], [2, 3], 1))
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0) if with_field else None
        like = bin_points(spec, stack, doms, pts, mesh=mesh)
        dense, w = mesh_draws(spec, mesh, 2 * ETA_BLOCK_DRAWS + 3, seed=4)
        res = compute_dic(like, reduced_draws(like, dense, w))
        y = cell_counts(like.design, stack.grid, pts)
        dbar, d_hat = whole_array_dic(like.design, y, cell_eta(like.design, dense, w))
        assert res.dbar == pytest.approx(dbar, rel=1e-12)
        assert res.d_hat == pytest.approx(d_hat, rel=1e-12)
        assert res.p_d == pytest.approx(dbar - d_hat, abs=1e-12 * abs(dbar))
        assert res.dic == pytest.approx(2.0 * dbar - d_hat, rel=1e-12)

    def test_matches_per_draw_poisson_deviance(self, stack, campaign_domains, survey):
        from scipy.stats import poisson

        spec = glm_spec(covariates=("depth",), poceanica=True, campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        draws = fit(like, n_draws=40, rng=np.random.default_rng(12))
        res = compute_dic(like, draws)
        y_cells = cell_counts(like.design, stack.grid, survey)

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
                y = y_cells[like.design.rows[t]]
                total += poisson.logpmf(y, stack.grid.cell_area * np.exp(eta)).sum()
            return -2.0 * total

        dbar = np.mean([deviance(draws.dense[a]) for a in range(draws.n_draws)])
        d_hat = deviance(draws.mean_effects().dense)
        assert res.dbar == pytest.approx(dbar, rel=1e-10)
        assert res.d_hat == pytest.approx(d_hat, rel=1e-10)
        assert res.p_d == pytest.approx(dbar - d_hat, abs=1e-6)
        assert res.dic == pytest.approx(2.0 * dbar - d_hat, rel=1e-10)

    def test_needs_the_fitted_likelihood(self, stack, campaign_domains, survey):
        # the draws' log-likelihoods were reduced under the fitted counts: a
        # fold's recount on the same groups, or another grouping, is refused
        spec = glm_spec(covariates=("depth",), campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        draws = fit(like, n_draws=40, rng=np.random.default_rng(13))
        train = like.design.rows_of_points(stack.grid, survey)[survey.x < 150.0]
        fold = like.with_counts(np.bincount(train, minlength=like.design.n_cells))
        assert fold.y.shape == like.y.shape and not np.array_equal(fold.y, like.y)
        other = bin_points(glm_spec(campaigns=9), stack, campaign_domains, survey)
        assert other.y.size != like.y.size
        for wrong in (fold, other):
            with pytest.raises(ValueError, match="fitted to"):
                compute_dic(wrong, draws)
        with pytest.raises(ValueError, match="fitted to"):
            compute_dic(like, fit(fold, n_draws=40, rng=np.random.default_rng(13)))
        # a fit given its own reduction keeps no log-likelihoods
        fold_draws = fit(fold, n_draws=40, rng=np.random.default_rng(13),
                         reduce=lambda draws, lam: None)
        assert fold_draws.loglik is None
        with pytest.raises(ValueError, match="log-likelihoods"):
            compute_dic(fold, fold_draws)
        # the same counts binned again are the fitted likelihood
        again = bin_points(spec, stack, campaign_domains, survey)
        assert again is not like
        assert compute_dic(again, draws) == compute_dic(like, draws)


class TestCountLoglik:
    def test_matches_scipy_poisson(self, stack, campaign_domains, survey):
        from scipy.stats import poisson

        # eta per group, spread to the cells of each group
        spec = glm_spec(campaigns=9)
        like = bin_points(spec, stack, campaign_domains, survey)
        rng = np.random.default_rng(11)
        eta = rng.normal(-6.0, 0.3, like.y.size)
        y_cells = cell_counts(like.design, stack.grid, survey)
        manual = poisson.logpmf(y_cells, like.design.weight * np.exp(eta[like.group_of])).sum()
        assert like.loglik(eta, with_const=True) == pytest.approx(manual, rel=1e-10)
        assert like.loglik(eta) + like.loglik_const == pytest.approx(manual, rel=1e-10)


def test_log_factorials_match_gammaln():
    # oracle: scipy's gammaln(y + 1), which the eta-free constant used before
    # math.lgamma took its place; counts in any order, with repeats and a zero
    from scipy.special import gammaln

    y = np.random.default_rng(4).permutation(np.r_[np.arange(3000), [0, 7, 7, 170, 2999]])
    np.testing.assert_allclose(inference._log_factorials(y), gammaln(y + 1.0), rtol=1e-15)
    np.testing.assert_allclose(inference._log_factorials(y.astype(float)), gammaln(y + 1.0),
                               rtol=1e-15)
    assert inference._log_factorials(np.zeros(0)).shape == (0,)


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

    @pytest.mark.parametrize("with_field", [False, True])
    @pytest.mark.parametrize("n_draws", [0, -1])
    def test_no_draws_is_an_error(self, stack, campaign_domains, survey, with_field, n_draws):
        # a fit without draws has no mean to keep: it is refused up front,
        # before any theta evaluation
        d = campaign_domains[8]
        spec = ModelSpec(include_poceanica=True, include_field=with_field, pc_prior=PC)
        pts = survey.for_campaign(8)
        pts = PointPattern(pts.x, pts.y, np.ones(pts.n, dtype=int))
        mesh = LatticeMesh.for_grid(stack.grid, rho_ref=PC.rho0, halo=2) if with_field else None
        like = bin_points(spec, stack, {1: d}, pts, mesh=mesh)
        with pytest.raises(ValueError, match="at least one draw"):
            fit(like, n_draws=n_draws, rng=np.random.default_rng(0))

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
        assert like.y[like.groups.rows[2]].sum() == 0
        draws = fit(like, n_draws=400, rng=np.random.default_rng(0))
        summary = summarize(draws)
        assert np.all(np.isfinite(summary.mean)) and np.all(np.isfinite(summary.sd))
        assert summary.row("mu[2]")["mean"] < summary.row("mu[1]")["mean"]
