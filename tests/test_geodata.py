import numpy as np
import pytest

from gridcox import geodata
from gridcox.geodata import (
    CovariateStack,
    DomainMask,
    RasterGrid,
    RasterParseError,
    build_partition,
    habitat_domains,
    load_raster,
    read_campaign_domains,
    read_legend,
    read_points,
    write_points,
    write_raster,
    zonal_aggregate,
)


def contains_points(mask, x, y):
    """Whether each point lies in an included cell of the mask."""
    cells = mask.grid.cell_of_points(x, y)
    inside = cells >= 0
    out = np.zeros_like(inside)
    out[inside] = mask.included.ravel()[cells[inside]]
    return out


def make_grid(values, dx=1.0, dy=1.0, x0=0.0, y0=0.0, **kw):
    return RasterGrid(x0, y0, dx, dy, np.asarray(values, dtype=float), **kw)


class TestRasterIO:
    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=float).reshape(3, 4)
        values[0, 1] = np.nan
        grid = make_grid(values, dx=5.0, dy=5.0, x0=10.0, y0=-20.0)
        path = tmp_path / "g.asc"
        write_raster(grid, path)
        back = load_raster(path)
        assert back.n_rows == 3 and back.n_cols == 4
        assert back.origin_x == 10.0 and back.origin_y == -20.0
        assert back.cell_dx == 5.0
        np.testing.assert_array_equal(np.isnan(back.values), np.isnan(values))
        np.testing.assert_allclose(back.values[np.isfinite(values)], values[np.isfinite(values)])

    def test_row_zero_is_south(self, tmp_path):
        # file stores the northern row first; in memory row 0 is the south row
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "3 4\n1 2\n"
        )
        grid = load_raster(path)
        np.testing.assert_array_equal(grid.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text("ncols 2\nnrows 2\nxllcorner 0\ncellsize 1\n1 2\n3 4\n")
        with pytest.raises(RasterParseError, match="yllcorner"):
            load_raster(path)

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "1 2 3\n4 5\n"
        )
        with pytest.raises(RasterParseError, match="line 7"):
            load_raster(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 oops\n"
        )
        with pytest.raises(RasterParseError, match="non-numeric"):
            load_raster(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 3\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 2\n3 4\n"
        )
        with pytest.raises(RasterParseError, match="expected 3 rows"):
            load_raster(path)

    def test_nodata_becomes_nan(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            "NODATA_value -1\n-1 7\n"
        )
        grid = load_raster(path)
        assert np.isnan(grid.values[0, 0]) and grid.values[0, 1] == 7.0

    def test_categorical_requires_known_codes(self, tmp_path):
        path = tmp_path / "g.asc"
        path.write_text(
            "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n1 9\n"
        )
        with pytest.raises(RasterParseError, match="unknown categorical code"):
            load_raster(path, kind="categorical", legend={1: "a", 2: "b"})

    def test_legend_csv(self, tmp_path):
        path = tmp_path / "legend.csv"
        path.write_text("code,label\n1,Sand\n2,Rock\n")
        assert read_legend(path) == {1: "Sand", 2: "Rock"}

    def test_legend_bad_code(self, tmp_path):
        path = tmp_path / "legend.csv"
        path.write_text("x,Sand\n")
        with pytest.raises(RasterParseError, match="line 1"):
            read_legend(path)

    def test_legend_repeated_code(self, tmp_path):
        path = tmp_path / "legend.csv"
        path.write_text("1,Sandy\n2,P. oceanica\n1,Rock\n")
        with pytest.raises(RasterParseError, match="line 3: code 1 repeats line 1"):
            read_legend(path)


class TestGridGeometry:
    def test_cell_centers(self):
        grid = make_grid(np.zeros((2, 3)), dx=2.0, dy=4.0, x0=1.0, y0=3.0)
        cx, cy = grid.cell_centers()
        np.testing.assert_allclose(cx[0], [2.0, 4.0, 6.0])
        np.testing.assert_allclose(cy[:, 0], [5.0, 9.0])

    def test_half_open_assignment(self):
        grid = make_grid(np.zeros((2, 2)), dx=1.0, dy=1.0)
        # a point exactly on an interior edge belongs to the upper cell
        cells = grid.cell_of_points([0.5, 1.0, 2.0], [0.5, 1.0, 0.5])
        assert cells[0] == 0
        assert cells[1] == 3  # row 1, col 1
        assert cells[2] == -1  # x == xmax is outside the half-open extent

    def test_non_finite_points_are_outside(self):
        # no cast of NaN or inf to int: the suite turns its RuntimeWarning into an error
        grid = make_grid(np.zeros((2, 2)), dx=1.0, dy=1.0)
        x = [np.nan, np.inf, -np.inf, 0.5, 0.5]
        cells = grid.cell_of_points(x, [0.5, 0.5, 0.5, np.inf, 1.5])
        np.testing.assert_array_equal(cells, [-1, -1, -1, -1, 2])

    def test_mask_algebra(self):
        grid = make_grid(np.zeros((2, 2)))
        a = DomainMask(grid, np.array([[True, False], [True, False]]))
        b = DomainMask(grid, np.array([[False, True], [False, True]]))
        assert a.difference(b).n_included == 2
        assert a.area == 2.0


class TestZonalAggregate:
    def test_mean(self):
        fine = make_grid(np.arange(16, dtype=float).reshape(4, 4))
        coarse = zonal_aggregate(fine, 2.0)
        assert coarse.values.shape == (2, 2)
        # south-west zone holds fine cells (0,0),(0,1),(1,0),(1,1) = 0,1,4,5
        assert coarse.values[0, 0] == pytest.approx(2.5)

    def test_mean_skips_missing(self):
        vals = np.arange(4, dtype=float).reshape(2, 2)
        vals[0, 0] = np.nan
        coarse = zonal_aggregate(make_grid(vals), 2.0)
        assert coarse.values[0, 0] == pytest.approx((1 + 2 + 3) / 3)

    def test_all_missing_zone_stays_missing(self):
        vals = np.full((2, 2), np.nan)
        coarse = zonal_aggregate(make_grid(vals), 2.0)
        assert np.isnan(coarse.values[0, 0])

    def test_majority_tie_breaks_to_smallest_code(self):
        vals = np.array([[1.0, 2.0], [2.0, 1.0]])
        legend = {1: "a", 2: "b"}
        fine = make_grid(vals, kind="categorical", legend=legend)
        coarse = zonal_aggregate(fine, 2.0)
        assert coarse.values[0, 0] == 1.0

    def test_majority_counts(self):
        vals = np.array([[1.0, 2.0], [2.0, 2.0]])
        fine = make_grid(vals, kind="categorical", legend={1: "a", 2: "b"})
        coarse = zonal_aggregate(fine, 2.0)
        assert coarse.values[0, 0] == 2.0


class TestPartition:
    def test_covers_domain_disjointly(self):
        grid = make_grid(np.zeros((8, 8)))
        mask = DomainMask(grid, np.ones((8, 8), dtype=bool))
        part = build_partition(mask, 4, 4)
        assert part.n_subsets == 16
        assert part.n_empty == 0
        all_cells = np.concatenate(part.subsets)
        assert np.array_equal(np.sort(all_cells), np.arange(64))
        sizes = [len(s) for s in part.subsets]
        assert all(s == 4 for s in sizes)

    def test_empty_rectangles_dropped_and_counted(self):
        grid = make_grid(np.zeros((4, 4)))
        inc = np.zeros((4, 4), dtype=bool)
        inc[0, 0] = inc[3, 3] = True  # only two opposite corners
        part = build_partition(DomainMask(grid, inc), 2, 2)
        assert part.n_subsets == 2
        assert part.n_empty == 2

    def test_bbox_is_tight(self):
        grid = make_grid(np.zeros((6, 6)))
        inc = np.zeros((6, 6), dtype=bool)
        inc[2:4, 2:4] = True
        part = build_partition(DomainMask(grid, inc), 2, 2)
        # bbox spans [2,4)x[2,4): each lattice rectangle is one cell
        assert part.n_subsets == 4
        assert all(len(s) == 1 for s in part.subsets)

    def test_subset_of_points(self):
        grid = make_grid(np.zeros((4, 4)))
        mask = DomainMask(grid, np.ones((4, 4), dtype=bool))
        part = build_partition(mask, 2, 2)
        idx = part.subset_of_points([0.5, 3.5, 9.0], [0.5, 3.5, 0.5])
        assert idx[0] == part.cell_subset[0, 0]
        assert idx[1] == part.cell_subset[3, 3]
        assert idx[2] == -1


class TestHabitatDomains:
    def test_split(self):
        vals = np.array([[1.0, 2.0], [3.0, np.nan]])
        legend = {1: "Meadow", 2: "Sand", 3: "Rock"}
        hab = make_grid(vals, kind="categorical", legend=legend)
        d, d1, d2 = habitat_domains(hab, "Meadow")
        assert d.n_included == 3
        assert d1.n_included == 1
        assert d2.n_included == 2
        # D1 and D2 partition D
        assert not np.any(d1.included & d2.included)
        assert np.array_equal(d1.included | d2.included, d.included)

    def test_unknown_label(self):
        hab = make_grid(np.ones((2, 2)), kind="categorical", legend={1: "Sand"})
        with pytest.raises(ValueError, match="not found"):
            habitat_domains(hab, "Meadow")


class TestPointsIO:
    def test_round_trip(self, tmp_path):
        pts = geodata.PointPattern(
            np.array([1.5, 2.5]), np.array([0.5, 3.5]), np.array([1, 2])
        )
        path = tmp_path / "pts.csv"
        write_points(pts, path)
        back = read_points(path)
        np.testing.assert_allclose(back.x, pts.x)
        np.testing.assert_allclose(back.y, pts.y)
        np.testing.assert_array_equal(back.campaign, pts.campaign)

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("x,y,campaign\n1.0,2.0,1\n1.0,oops,2\n")
        with pytest.raises(ValueError, match="line 3"):
            read_points(path)

    @pytest.mark.parametrize("record", ["nan,2.0,1", "1.0,inf,1", "-inf,2.0,2", "1.0,NaN,1"])
    def test_non_finite_coordinate_names_line(self, tmp_path, record):
        path = tmp_path / "pts.csv"
        path.write_text(f"x,y,campaign\n1.0,2.0,1\n{record}\n")
        with pytest.raises(ValueError, match="line 3: bad point record"):
            read_points(path)

    def test_campaign_map(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("campaign,domain\n1,D2\n6,D1\n8,D\n")
        assert read_campaign_domains(path) == {1: "D2", 6: "D1", 8: "D"}

    def test_campaign_map_bad_domain(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("campaign,domain\n1,D9\n")
        with pytest.raises(ValueError, match="line 2"):
            read_campaign_domains(path)

    def test_campaign_map_repeated_campaign(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("campaign,domain\n1,D\n2,D2\n1,D1\n")
        with pytest.raises(ValueError, match="line 4: campaign 1 repeats line 2"):
            read_campaign_domains(path)


class TestCovariateStack:
    def make_stack(self):
        hab_vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        legend = {1: "Meadow", 2: "Sand", 3: "Rock", 4: "DeadMatte"}
        hab = make_grid(hab_vals, kind="categorical", legend=legend)
        depth = make_grid(np.array([[5.0, 6.0], [7.0, 8.0]]))
        return CovariateStack(
            grid=hab,
            continuous={"depth": depth},
            habitat=hab,
            poceanica_label="Meadow",
            reference_class="Sand",
        )

    def test_indicators_exclude_meadow_and_reference(self):
        stack = self.make_stack()
        assert stack.indicator_names == ["DeadMatte", "Rock"]
        assert stack.column_names == ["xcoord", "ycoord", "depth", "DeadMatte", "Rock"]

    def test_values(self):
        stack = self.make_stack()
        cells = np.arange(4)
        np.testing.assert_allclose(stack.values_at("depth", cells), [5, 6, 7, 8])
        np.testing.assert_allclose(stack.values_at("Rock", cells), [0, 0, 1, 0])
        np.testing.assert_allclose(stack.values_at("xcoord", cells), [0.5, 1.5, 0.5, 1.5])
        np.testing.assert_allclose(stack.z_at(cells), [1, 0, 0, 0])

    def test_missing_covariate_is_an_error(self):
        stack = self.make_stack()
        bad = make_grid(np.array([[np.nan, 1.0], [1.0, 1.0]]))
        stack.continuous["slope"] = bad
        with pytest.raises(ValueError, match="missing at 1"):
            stack.values_at("slope", np.arange(4))

    def test_misaligned_covariate_rejected(self):
        hab = self.make_stack()
        other = make_grid(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="not aligned"):
            CovariateStack(grid=hab.grid, continuous={"bad": other})
