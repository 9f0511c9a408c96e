"""Acceptance suite: one printed PASS/FAIL line per criterion.

Each test pins one quantitative promise of the package: scoring-rule
correctness, exact thinning, residual centering under the true model,
ranking power, interval coverage, the homogeneous-Poisson oracle, gradient
consistency, prior tail calibration, sampler correctness, worker
determinism, and a fixed scenario where in-sample and out-of-sample
rankings disagree. Simulation scenarios use fixed seeds; nearby seed
streams were checked to give comparable margins, so the pinned values are
typical rather than cherry-picked.
"""

import math
import time

import numpy as np
from scipy.integrate import quad

from gridcox.cli import main as cli_main
from gridcox.crossval import (
    assign_folds,
    crps_empirical,
    derive_rng,
    run_study,
    split,
    thin_intensity,
)
from gridcox.geodata import CovariateStack, PointPattern, RasterGrid, habitat_domains
from gridcox.gmrf import (
    LatticeMesh,
    MaternHyper,
    PcPriorSpec,
    build_precision,
    sample_field,
)
from gridcox.inference import bin_points, fit, inner_objective_grad, summarize
from gridcox.model import ModelSpec
from gridcox.simulate import Scenario, simulate_lgcp
from test_cli import build_workspace


def _report(capsys, ok: bool, label: str, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def meadow_stack() -> CovariateStack:
    """64x64 grid of 10 m cells: Sandy with a 200 m meadow disc in the NE."""
    legend = {1: "Sandy", 2: "P. oceanica"}
    codes = np.ones((64, 64))
    base = RasterGrid(0.0, 0.0, 10.0, 10.0, codes)
    xc, yc = base.cell_centers()
    codes[(xc - 430.0) ** 2 + (yc - 430.0) ** 2 < 200.0**2] = 2.0
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    return CovariateStack(
        grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
    )


def habitat_glm_scenario(stack, gamma, target_n, model_id="m_true"):
    """Known-model truth: intercept plus habitat effect, no field."""
    d, _, _ = habitat_domains(stack.habitat, "P. oceanica")
    spec = ModelSpec(
        covariates=(), include_poceanica=True, include_field=False,
        n_campaigns=1, model_id=model_id,
    )
    z = (stack.habitat.values == 2.0).ravel()
    mu0 = math.log(target_n / (stack.grid.cell_area * np.exp(gamma * z).sum()))
    scn = Scenario(stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0, gamma=gamma)
    return scn, spec, {1: d}


def test_crps_gaussian_closed_form_and_route_agreement(capsys):
    t0 = time.perf_counter()
    rng = derive_rng(0, "ac1")
    draws = rng.standard_normal(100_000)
    rels = []
    for sigma in (1.0, 2.5):
        got = crps_empirical(sigma * draws, 0.0)
        want = 0.23375 * sigma  # (sqrt(2) - 1) / sqrt(pi), rounded
        rels.append(abs(got - want) / want)
    gap = 0.0
    for _ in range(100):
        a = int(rng.integers(3, 801))
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3.0), size=a)
        y = float(rng.uniform(-3, 3))
        s = crps_empirical(x, y, method="sort")
        p = crps_empirical(x, y, method="pairwise")
        gap = max(gap, abs(s - p) / max(abs(s), abs(p)))
    dt = time.perf_counter() - t0
    ok = max(rels) <= 0.02 and gap <= 1e-12 and dt < 5.0
    _report(
        capsys, ok, "crps estimator",
        f"gaussian rel err {rels[0]:.1e}, {rels[1]:.1e} (tol 2e-2); "
        f"sort vs pairwise gap {gap:.1e} (tol 1e-12); {dt:.1f}s (< 5)",
    )


def test_thinning_is_exact_and_folds_partition(capsys):
    t0 = time.perf_counter()
    rng = derive_rng(0, "ac2")
    n = 1200
    pts = PointPattern(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n), rng.integers(1, 4, n)
    )
    lam = rng.lognormal(0.0, 1.0, size=500)
    orig = np.column_stack([pts.x, pts.y, pts.campaign])
    ok = True
    for n_folds in (2, 5, 10):
        train_lam, val_lam = thin_intensity(lam, n_folds)
        ok = ok and np.array_equal(train_lam + val_lam, lam)
        folds = assign_folds(pts, n_folds, derive_rng(0, "ac2-folds", n_folds))
        val_rows, total = [], 0
        for k in range(1, n_folds + 1):
            tr, va = split(pts, folds, k)
            ok = ok and tr.n + va.n == n
            total += va.n
            val_rows.append(np.column_stack([va.x, va.y, va.campaign]))
        pooled = np.vstack(val_rows)
        same = pooled.shape == orig.shape and np.array_equal(
            pooled[np.lexsort(pooled.T)], orig[np.lexsort(orig.T)]
        )
        ok = ok and total == n and same
    dt = time.perf_counter() - t0
    ok = ok and dt < 1.0
    _report(
        capsys, ok, "thinning exactness",
        f"K=2,5,10: train+val == lam exactly, validation folds partition "
        f"{n} points; {dt:.2f}s (< 1)",
    )


def test_residuals_center_on_zero_under_true_model(capsys):
    t0 = time.perf_counter()
    stack = meadow_stack()
    scn, spec, domains = habitat_glm_scenario(stack, gamma=-0.4, target_n=1600)
    means = []
    for r in range(20):
        survey = simulate_lgcp(scn, derive_rng(0, "ac3-sim", r))
        table = run_study(
            stack, domains, survey.points, [spec], n_folds=5,
            n_draws=500, partition_dims=(8, 8), seed=r, workers=1,
        )
        means.append(float(np.mean(table.mean_residual[spec.model_id][1])))
    grand = float(np.mean(means))
    dt = time.perf_counter() - t0
    ok = -0.1 <= grand <= 0.1 and dt < 600.0
    _report(
        capsys, ok, "residual centering",
        f"grand mean {grand:+.4f} over 20 replicates (tol [-0.1, 0.1]); "
        f"{dt:.0f}s (< 600, single worker)",
    )


def test_crossval_ranks_true_model_above_null(capsys):
    t0 = time.perf_counter()
    stack = meadow_stack()
    scn, spec_true, domains = habitat_glm_scenario(stack, gamma=-0.4, target_n=1500)
    spec_null = ModelSpec(
        covariates=(), include_poceanica=False, include_field=False,
        n_campaigns=1, model_id="m_null",
    )
    wins = 0
    for r in range(20):
        survey = simulate_lgcp(scn, derive_rng(0, "ac4-sim", r))
        table = run_study(
            stack, domains, survey.points, [spec_true, spec_null], n_folds=5,
            n_draws=500, partition_dims=(8, 8), seed=r, workers=1,
        )
        wins += table.scores["m_true"] < table.scores["m_null"]
    dt = time.perf_counter() - t0
    ok = wins >= 14 and dt < 900.0
    _report(
        capsys, ok, "ranking power",
        f"true habitat model beats null in {wins}/20 replicates (need >= 14); "
        f"{dt:.0f}s (< 900)",
    )


def test_credible_intervals_cover_truth(capsys):
    t0 = time.perf_counter()
    stack = meadow_stack()
    d, _, _ = habitat_domains(stack.habitat, "P. oceanica")
    # recovery prior is weakly informative so the intervals reflect the data
    pc = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=1.0, p_sigma=0.05)
    spec = ModelSpec(
        covariates=(), include_poceanica=True, include_field=True,
        n_campaigns=1, model_id="m_field", pc_prior=pc,
    )
    sigma, rho = 1.0, 160.0
    z = (stack.habitat.values == 2.0).ravel()
    mass = stack.grid.cell_area * np.exp(-0.4 * z).sum()
    mu0 = math.log(1500.0 / mass) - sigma**2 / 2.0  # ~1500 points on average
    truth = {"mu0": mu0, "gamma": -0.4, "sigma": sigma, "rho": rho}
    scn = Scenario(
        stack=stack, campaign_domains={1: d}, spec=spec, mu0=mu0,
        gamma=-0.4, hyper=MaternHyper(sigma=sigma, rho=rho),
    )
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=rho)  # halo as wide as the truth's
    cover = dict.fromkeys(truth, 0)
    for r in range(20):
        survey = simulate_lgcp(scn, derive_rng(7, "ac5-sim", r))
        like = bin_points(spec, stack, {1: d}, survey.points, mesh=mesh)
        post = fit(like, n_draws=800, rng=derive_rng(7, "ac5-fit", r))
        summ = summarize(post)
        for name, value in truth.items():
            lo, hi = summ.interval(name)
            cover[name] += lo <= value <= hi
    dt = time.perf_counter() - t0
    ok = all(c >= 16 for c in cover.values())
    _report(
        capsys, ok, "interval coverage",
        "90% intervals: " + " ".join(f"{k} {c}/20" for k, c in cover.items())
        + f" (each >= 16); {dt:.0f}s",
    )


def test_intercept_only_fit_recovers_log_density(capsys):
    legend = {1: "Sandy", 2: "P. oceanica"}
    habitat = RasterGrid(0.0, 0.0, 5.0, 5.0, np.ones((20, 20)), kind="categorical", legend=legend)
    stack = CovariateStack(
        grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
    )
    d, _, _ = habitat_domains(habitat, "P. oceanica")
    n = 400
    rng = derive_rng(0, "ac6-points")
    pts = PointPattern(rng.uniform(0, 100, n), rng.uniform(0, 100, n), np.ones(n, dtype=int))
    spec = ModelSpec(
        covariates=(), include_poceanica=False, include_field=False,
        n_campaigns=1, model_id="m_hom",
    )
    like = bin_points(spec, stack, {1: d}, pts)
    post = fit(like, n_draws=500, rng=derive_rng(0, "ac6-fit"))
    mu0_hat = summarize(post).row("mu0")["mean"]
    target = math.log(n / 1e4)  # 100 m x 100 m domain
    err = abs(mu0_hat - target)
    _report(
        capsys, err <= 0.15, "homogeneous intercept",
        f"mu0 {mu0_hat:+.4f} vs log(n/|D|) {target:+.4f}, |err| {err:.4f} (tol 0.15)",
    )


def test_inner_gradient_matches_central_differences(capsys):
    legend = {1: "Sandy", 2: "P. oceanica"}
    codes = np.ones((10, 10))
    codes[5:, 5:] = 2.0
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    stack = CovariateStack(
        grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
    )
    d, _, _ = habitat_domains(habitat, "P. oceanica")
    spec = ModelSpec(
        covariates=(), include_poceanica=True, include_field=True,
        n_campaigns=2, model_id="m_grad",
    )
    rng = derive_rng(0, "ac7")
    n = 150
    pts = PointPattern(rng.uniform(0, 100, n), rng.uniform(0, 100, n), rng.integers(1, 3, n))
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=30.0)
    like = bin_points(spec, stack, {1: d, 2: d}, pts, mesh=mesh)
    hyper = MaternHyper(sigma=0.7, rho=30.0)
    tau = 5.0
    n_dense = len(spec.dense_names)

    def objective(u):
        val, _ = inner_objective_grad(like, u[: mesh.n], u[mesh.n :], hyper=hyper, tau=tau)
        return val

    worst = 0.0
    for _ in range(10):
        u_w = 0.3 * rng.standard_normal(mesh.n)
        u_d = rng.normal(0.0, 0.3, n_dense)
        u_d[0] = -6.0  # keep intensities in a sane range
        u = np.concatenate([u_w, u_d])
        _, grad = inner_objective_grad(like, u_w, u_d, hyper=hyper, tau=tau)
        numeric = np.empty_like(grad)
        for j in range(u.size):
            h = 1e-5 * max(1.0, abs(u[j]))
            up, dn = u.copy(), u.copy()
            up[j] += h
            dn[j] -= h
            numeric[j] = (objective(up) - objective(dn)) / (2.0 * h)
        rel = np.linalg.norm(numeric - grad) / max(1.0, np.linalg.norm(grad))
        worst = max(worst, rel)
    _report(
        capsys, worst < 1e-5, "inner gradient",
        f"max relative error {worst:.2e} over 10 random points (tol 1e-5)",
    )


def test_prior_tail_masses_integrate_to_calibration(capsys):
    pc = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=0.5, p_sigma=0.01)
    rho_mass, _ = quad(
        lambda r: pc.lam_rho * r**-2 * math.exp(-pc.lam_rho / r),
        0.0, 50.0, points=[1.0, 25.0], limit=200,
    )
    sigma_mass, _ = quad(
        lambda s: pc.lam_sigma * math.exp(-pc.lam_sigma * s), 0.5, np.inf, limit=200
    )
    rho_err = abs(rho_mass - 0.5)
    sigma_err = abs(sigma_mass - 0.01)
    # the closed-form tails must agree with the integrals they summarize
    cross = abs(pc.rho_cdf(50.0) - rho_mass) + abs(pc.sigma_tail(0.5) - sigma_mass)
    ok = rho_err <= 1e-6 and sigma_err <= 1e-9 and cross < 1e-9
    _report(
        capsys, ok, "prior calibration",
        f"P(rho<50) err {rho_err:.1e} (tol 1e-6); P(sigma>0.5) err {sigma_err:.1e} "
        f"(tol 1e-9); closed-form gap {cross:.1e}",
    )


def test_field_sampler_matches_dense_covariance(capsys):
    mesh = LatticeMesh(5, 5, 1.0, 1.0, halo=3)
    prec = build_precision(mesh, MaternHyper(sigma=1.0, rho=2.5))
    # the dense precision from its products with unit vectors, then invert
    q = np.column_stack([prec.matvec(e) for e in np.eye(prec.n)])
    gi = mesh.grid_to_mesh
    true_cov = np.linalg.inv(q)[np.ix_(gi, gi)]
    n = 50_000
    samples = sample_field(prec, n, np.random.default_rng(0))[:, gi]
    emp = np.cov(samples, rowvar=False)
    se = np.sqrt((np.outer(np.diag(true_cov), np.diag(true_cov)) + true_cov**2) / n)
    zmax = float((np.abs(emp - true_cov) / se).max())
    _report(
        capsys, zmax < 3.0, "field sampler",
        f"max |z| {zmax:.3f} over all 25x25 covariance entries (tol 3 MC SE)",
    )


def test_crossval_outputs_byte_identical_across_workers(tmp_path, capsys):
    cfg = build_workspace(tmp_path)
    assert cli_main(["simulate", "--config", str(cfg)]) == 0
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"cv_w{workers}"
        rc = cli_main([
            "crossval", "--config", str(cfg), "--workers", str(workers), "--out", str(out)
        ])
        assert rc == 0
        outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
    same_names = sorted(outputs[1]) == sorted(outputs[8])
    ok = same_names and all(outputs[1][name] == outputs[8][name] for name in outputs[1])
    _report(
        capsys, ok, "worker determinism",
        f"{len(outputs[1])} output files byte-identical for 1 vs 8 workers",
    )


def test_in_sample_and_out_of_sample_rankings_can_disagree(capsys):
    # truth is the plain habitat model; the field model is the flexible rival
    legend = {1: "Sandy", 2: "P. oceanica"}
    codes = np.ones((24, 24))
    base = RasterGrid(0.0, 0.0, 10.0, 10.0, codes)
    xc, yc = base.cell_centers()
    codes[(xc - 170.0) ** 2 + (yc - 170.0) ** 2 < 90.0**2] = 2.0
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    stack = CovariateStack(
        grid=habitat, habitat=habitat, poceanica_label="P. oceanica", reference_class="Sandy"
    )
    d, _, _ = habitat_domains(habitat, "P. oceanica")
    glm = ModelSpec(
        covariates=(), include_poceanica=True, include_field=False,
        n_campaigns=1, model_id="m_glm",
    )
    fld = ModelSpec(
        covariates=(), include_poceanica=True, include_field=True,
        n_campaigns=1, model_id="m_field",
    )
    z = (codes == 2.0).ravel()
    mu0 = math.log(900.0 / (100.0 * np.exp(-0.4 * z).sum()))
    scn = Scenario(stack=stack, campaign_domains={1: d}, spec=glm, mu0=mu0, gamma=-0.4)
    survey = simulate_lgcp(scn, derive_rng(4, "ac11-sim"))
    table = run_study(
        stack, {1: d}, survey.points, [glm, fld], n_folds=5,
        n_draws=300, partition_dims=(6, 6), seed=4, workers=1,
    )
    crps_top = table.ranking()[0]
    dic_top = table.dic_ranking()[0]
    _report(
        capsys, crps_top != dic_top, "ranking disagreement",
        f"crps top {crps_top} ({table.scores[crps_top]:.4f} vs "
        f"{table.scores[dic_top]:.4f}), dic top {dic_top} "
        f"({table.dic[dic_top].dic:.1f} vs {table.dic[crps_top].dic:.1f})",
    )
