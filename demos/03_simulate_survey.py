"""Simulate a multi-campaign survey from a known intensity model.

The truth combines a depth effect, a meadow effort factor exp(gamma z), a
Matern field and exchangeable campaign effects. Three campaigns observe
different windows: outside the meadow (D2), inside it (D1), and everywhere
(D). The realized counts are compared with the marginal expectations.
"""

import numpy as np

from gridcox import (
    CovariateStack,
    MaternHyper,
    ModelSpec,
    RasterGrid,
    Scenario,
    expected_count,
    habitat_domains,
    simulate_lgcp,
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
    spec = ModelSpec(
        covariates=("depth",), include_poceanica=True, include_field=True,
        n_campaigns=3, model_id="m_truth",
    )
    scn = Scenario(
        stack=stack,
        campaign_domains={1: d2, 2: d1, 3: d},
        spec=spec,
        mu0=-5.2,
        beta=(0.04,),
        gamma=-0.5,
        hyper=MaternHyper(sigma=0.8, rho=60.0),
        tau=4.0,
    )

    marginal = expected_count(scn)
    survey = simulate_lgcp(scn, np.random.default_rng(42))
    # the process is doubly stochastic: one realization of the field and the
    # campaign effects can sit far from the marginal mean, but the count
    # stays Poisson around the conditional one
    conditional = expected_count(scn, survey.effects)
    print("campaign  window  E[N] marginal  E[N] | effects  realized")
    for t, dom in ((1, "D2"), (2, "D1"), (3, "D ")):
        print(f"   {t}       {dom}      {marginal[t]:8.1f}      {conditional[t]:8.1f}"
              f"      {survey.campaign_total(t):5d}")
    print(f"total points: {survey.points.n}")

    eff = survey.effects
    true = dict(zip(spec.dense_names, eff.dense))
    mu_t = np.array([true[f"mu[{t}]"] for t in (1, 2, 3)])
    print(f"\ntrue effects: mu0 {true['mu0']:+.2f}, beta_depth {true['depth']:+.3f}, "
          f"gamma {true['gamma']:+.2f}")
    print(f"campaign shifts mu_t: {np.array2string(mu_t, precision=2)}")
    print(f"field: sd {eff.w.std():.2f} across the grid "
          f"(marginal target {scn.hyper.sigma})")


if __name__ == "__main__":
    main()
