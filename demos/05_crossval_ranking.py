"""Rank candidate models by cross-validated CRPS and compare with DIC.

Simulates one survey whose truth includes a depth effect and the meadow
effort factor, then scores three nested candidates with thinning-based
5-fold cross-validation. The pooled CRPS ranking is printed next to the
in-sample DIC ranking; the two need not agree.

run_study sets the study up once, in this process, before any fit: it bins
each model and pairs it with the partition's subsets, and each fold
recounts its training points on those bins. With more than one worker, on
Linux it forks worker processes, which inherit the set-up study from this
process's memory; elsewhere, and with one worker, it fits in this process.
The table is the same either way.
"""

import numpy as np

from gridcox import (
    CovariateStack,
    ModelSpec,
    RasterGrid,
    Scenario,
    derive_rng,
    habitat_domains,
    run_study,
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
    d, _, _ = habitat_domains(stack.habitat, "P. oceanica")
    domains = {1: d}
    truth = ModelSpec(
        covariates=("depth",), include_poceanica=True, include_field=False,
        n_campaigns=1, model_id="m_truth",
    )
    scn = Scenario(
        stack=stack, campaign_domains=domains, spec=truth, mu0=-5.4,
        beta=(0.05,), gamma=-0.5,
    )
    survey = simulate_lgcp(scn, derive_rng(3, "demo-sim"))
    print(f"simulated {survey.points.n} points from {truth.model_id}")

    sweep = [
        ModelSpec(covariates=(), include_poceanica=False, include_field=False,
                  n_campaigns=1, model_id="m_null"),
        ModelSpec(covariates=("depth",), include_poceanica=False, include_field=False,
                  n_campaigns=1, model_id="m_depth"),
        ModelSpec(covariates=("depth",), include_poceanica=True, include_field=False,
                  n_campaigns=1, model_id="m_depth_pocea"),
    ]
    table = run_study(
        stack, domains, survey.points, sweep,
        n_folds=5, n_draws=300, partition_dims=(5, 5), seed=3, workers=2,
    )

    print("\nrank  model           crps      dic")
    dic_order = table.dic_ranking()
    for i, mid in enumerate(table.ranking(), start=1):
        print(f"  {i}   {mid:14s} {table.scores[mid]:7.4f}  {table.dic[mid].dic:8.1f}"
              f"{'   <- dic pick' if mid == dic_order[0] else ''}")
    print(f"\ncrps pick: {table.ranking()[0]}   dic pick: {dic_order[0]}")


if __name__ == "__main__":
    main()
