"""Fit a survey and read the posterior: summary table, DIC, decomposition.

Simulates a three-campaign survey from a known model, fits the same
structure, prints the posterior summary next to the truth, and splits the
fitted intensity of the full-domain campaign into its spatial, campaign and
effort factors.
"""

import numpy as np

from gridcox import (
    CovariateStack,
    LatticeMesh,
    MaternHyper,
    ModelSpec,
    RasterGrid,
    Scenario,
    bin_points,
    compute_dic,
    decompose_intensity,
    expected_count,
    fit,
    habitat_domains,
    simulate_lgcp,
    summarize,
)


def make_stack() -> CovariateStack:
    legend = {1: "Sandy", 2: "Hard Bottom", 5: "P. oceanica"}
    codes = np.ones((20, 20))
    codes[12:, 10:] = 5.0
    codes[:5, :6] = 2.0
    habitat = RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)
    xc, yc = habitat.cell_centers()
    depth = 5.0 + 0.03 * xc + 0.01 * yc
    return CovariateStack(
        grid=habitat,
        continuous={"depth": RasterGrid(0.0, 0.0, 10.0, 10.0, depth)},
        habitat=habitat,
        poceanica_label="P. oceanica",
        reference_class="Sandy",
    )


def main() -> None:
    stack = make_stack()
    d, d1, d2 = habitat_domains(stack.habitat, "P. oceanica")
    domains = {1: d2, 2: d1, 3: d}
    spec = ModelSpec(
        covariates=("depth",), include_poceanica=True, include_field=True,
        n_campaigns=3, model_id="m_truth",
    )
    scn = Scenario(
        stack=stack, campaign_domains=domains, spec=spec, mu0=-5.2, beta=(0.04,),
        gamma=-0.5, hyper=MaternHyper(sigma=0.8, rho=60.0), tau=4.0,
    )
    survey = simulate_lgcp(scn, np.random.default_rng(42))
    print(f"fitting {survey.points.n} points, 3 campaigns, model {spec.model_id}")

    # field models carry their lattice; size the halo by the prior's range
    mesh = LatticeMesh.for_grid(stack.grid, rho_ref=spec.pc_prior.rho0)
    like = bin_points(spec, stack, domains, survey.points, mesh=mesh)
    post = fit(like, n_draws=500, rng=np.random.default_rng(1))
    summ = summarize(post)
    print(summ)
    truth = {"mu0": scn.mu0, "depth": scn.beta[0], "gamma": scn.gamma,
             "sigma": scn.hyper.sigma, "rho": scn.hyper.rho}
    line = ", ".join(f"{k} {v:+.2f}" for k, v in truth.items())
    print(f"truth: {line}")

    dic = compute_dic(like, post)
    print(f"\nDIC {dic.dic:.1f} (p_d {dic.p_d:.1f}, mean deviance {dic.dbar:.1f})")

    # factor the fitted intensity of the full-domain campaign
    parts = decompose_intensity(spec, post.mean_effects(), like.design)
    on_d = like.design.rows[3]
    for name in ("spatial", "campaign", "effort", "intensity"):
        vals = parts[name][on_d]
        print(f"{name:9s} factor: min {vals.min():.2e}  median "
              f"{np.median(vals):.2e}  max {vals.max():.2e}")
    total = float(parts["intensity"][on_d].sum() * like.design.weight)
    print(f"integrated fitted intensity on D: {total:.0f} "
          f"(realized count {survey.campaign_total(3)}, "
          f"conditional mean {expected_count(scn, survey.effects)[3]:.0f})")


if __name__ == "__main__":
    main()
