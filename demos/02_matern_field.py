"""Matern field sampling on a padded lattice, plus prior calibration.

Draws zero-mean fields at two practical ranges and checks the empirical
marginal standard deviation against the target on the interior cells (the
halo exists so the boundary does not deflate the variance). Then prints the
tail statements a penalized-complexity prior is calibrated by.
"""

import numpy as np

from gridcox import (
    LatticeMesh,
    MaternHyper,
    PcPriorSpec,
    RasterGrid,
    build_precision,
    sample_field,
)


def main() -> None:
    grid = RasterGrid(0.0, 0.0, 10.0, 10.0, np.zeros((24, 24)))
    rng = np.random.default_rng(0)

    for rho in (40.0, 100.0):
        hyper = MaternHyper(sigma=1.0, rho=rho)
        mesh = LatticeMesh.for_grid(grid, rho_ref=rho)
        prec = build_precision(mesh, hyper)
        draws = sample_field(prec, 400, rng)[:, mesh.grid_to_mesh]
        sd = draws.std()
        # correlation between cells one practical range apart (along a row)
        lag = round(rho / grid.cell_dx)
        a = draws.reshape(-1, 24, 24)
        corr = np.corrcoef(a[:, :, : 24 - lag].ravel(), a[:, :, lag:].ravel())[0, 1]
        print(f"rho {rho:5.0f} m: mesh {mesh.rows}x{mesh.cols} (halo {mesh.halo}), "
              f"marginal sd {sd:.3f} (target 1.0), corr at one range {corr:.2f} "
              f"(~0.14 by definition)")

    prior = PcPriorSpec(rho0=50.0, p_rho=0.5, sigma0=1.0, p_sigma=0.01)
    print(f"\npc prior: P(rho < 50) = {prior.rho_cdf(50.0):.3f}, "
          f"P(sigma > 1) = {prior.sigma_tail(1.0):.3f}")
    for sigma, rho in ((0.5, 60.0), (2.0, 15.0)):
        ld = prior.logdensity(sigma, rho)
        print(f"  log density at sigma={sigma:.1f}, rho={rho:.0f}: {ld:+.2f}")


if __name__ == "__main__":
    main()
