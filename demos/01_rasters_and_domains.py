"""Raster toolkit walk-through: grids, legends, domains, partitions.

Builds a small categorical habitat map, splits it into the meadow domain D1
and its complement D2, round-trips it through the ASCII grid format, coarsens
a continuous raster, and shows the partition and the midpoint quadrature
(one node per cell, weighted by its area) every model fit relies on.
"""

import tempfile
from pathlib import Path

import numpy as np

from gridcox import (
    RasterGrid,
    build_partition,
    habitat_domains,
    load_raster,
    write_raster,
    zonal_aggregate,
)


def make_habitat() -> RasterGrid:
    legend = {1: "Sandy", 2: "Hard Bottom", 5: "P. oceanica"}
    codes = np.ones((20, 20))
    codes[12:, 10:] = 5.0  # meadow block in the north-east
    codes[:5, :6] = 2.0
    return RasterGrid(0.0, 0.0, 10.0, 10.0, codes, kind="categorical", legend=legend)


def main() -> None:
    habitat = make_habitat()
    print(f"habitat: {habitat.n_rows} x {habitat.n_cols} cells of "
          f"{habitat.cell_dx:g} m x {habitat.cell_dy:g} m")

    d, d1, d2 = habitat_domains(habitat, "P. oceanica")
    print(f"|D|  = {d.area:8.0f} m^2  ({d.n_included} cells)")
    print(f"|D1| = {d1.area:8.0f} m^2  ({d1.n_included} cells, meadow)")
    print(f"|D2| = {d2.area:8.0f} m^2  ({d2.n_included} cells, complement)")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "habitat.asc"
        write_raster(habitat, path)
        back = load_raster(path, kind="categorical", legend=habitat.legend)
        print(f"ascii grid round trip exact: {np.array_equal(back.values, habitat.values)}")

    # coarsen a 5 m depth raster to the 10 m habitat resolution
    fine = RasterGrid(0.0, 0.0, 5.0, 5.0, np.add.outer(np.arange(40.0), np.arange(40.0)))
    coarse = zonal_aggregate(fine, 10.0)
    print(f"zonal mean: {fine.n_rows}x{fine.n_cols} @5m -> "
          f"{coarse.n_rows}x{coarse.n_cols} @10m")

    part = build_partition(d2, 5, 5)
    sizes = [len(s) for s in part.subsets]
    print(f"5x5 partition of D2: {part.n_subsets} non-empty subsets, "
          f"cell counts {min(sizes)}..{max(sizes)}")

    print(f"quadrature over D1: {d1.n_included} nodes of {habitat.cell_area:g} m^2, "
          f"weights sum to |D1| = {d1.area:.0f} m^2")


if __name__ == "__main__":
    main()
