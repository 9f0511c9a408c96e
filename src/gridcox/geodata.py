"""Gridded spatial data: rasters, domain masks, partitions, point sets.

Conventions used throughout the package:

* A raster is a regular planar grid in meters. Cell (r, c) has its center at
  ``(origin_x + (c + 0.5) * cell_dx, origin_y + (r + 0.5) * cell_dy)``; row 0
  is the southernmost row. ESRI ASCII files store the northernmost row first,
  so readers/writers flip row order at the boundary.
* Flat cell ids are row-major: ``cell_id = r * n_cols + c``.
* Missing values are NaN in memory and ``NODATA_value`` on disk.
* Point-to-cell assignment uses half-open intervals ``[low, high)`` on both
  axes, so every point maps to at most one cell.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "RasterParseError",
    "RasterGrid",
    "DomainMask",
    "PartitionScheme",
    "PointPattern",
    "CovariateStack",
    "load_raster",
    "write_raster",
    "read_legend",
    "zonal_aggregate",
    "build_partition",
    "habitat_domains",
    "read_points",
    "write_points",
    "read_campaign_domains",
    "campaign_masks",
]

CONTINUOUS = "continuous"
CATEGORICAL = "categorical"


class RasterParseError(ValueError):
    """Malformed raster or legend file; the message names the offending line."""


@dataclass(frozen=True)
class RasterGrid:
    """A regular grid of cells with per-cell values.

    ``values`` has shape (n_rows, n_cols) with NaN marking missing cells.
    Categorical grids carry integer codes (stored as floats) and a legend
    mapping code -> class label.
    """

    origin_x: float
    origin_y: float
    cell_dx: float
    cell_dy: float
    values: np.ndarray
    kind: str = CONTINUOUS
    legend: dict[int, str] | None = None

    def __post_init__(self):
        if self.cell_dx <= 0 or self.cell_dy <= 0:
            raise ValueError("cell sizes must be positive")
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-d array (n_rows, n_cols)")
        if self.kind not in (CONTINUOUS, CATEGORICAL):
            raise ValueError(f"unknown raster kind {self.kind!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.kind == CATEGORICAL:
            if self.legend is None:
                raise ValueError("categorical raster requires a legend")
            codes = self.values[np.isfinite(self.values)]
            unknown = set(np.unique(codes).astype(int)) - set(self.legend)
            if unknown:
                raise ValueError(f"codes {sorted(unknown)} missing from legend")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def n_cells(self) -> int:
        return self.values.size

    @property
    def cell_area(self) -> float:
        return self.cell_dx * self.cell_dy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center coordinates as (x, y) arrays of shape (n_rows, n_cols)."""
        x = self.origin_x + (np.arange(self.n_cols) + 0.5) * self.cell_dx
        y = self.origin_y + (np.arange(self.n_rows) + 0.5) * self.cell_dy
        return np.broadcast_to(x, self.values.shape).copy(), np.broadcast_to(
            y[:, None], self.values.shape
        ).copy()

    def cell_of_points(self, x, y) -> np.ndarray:
        """Flat cell id per point, -1 for points outside the grid extent."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        c = np.floor((x - self.origin_x) / self.cell_dx).astype(int)
        r = np.floor((y - self.origin_y) / self.cell_dy).astype(int)
        ok = (c >= 0) & (c < self.n_cols) & (r >= 0) & (r < self.n_rows)
        out = np.where(ok, r * self.n_cols + c, -1)
        return out

    def aligned_with(self, other: "RasterGrid") -> bool:
        return (
            self.values.shape == other.values.shape
            and np.isclose(self.origin_x, other.origin_x)
            and np.isclose(self.origin_y, other.origin_y)
            and np.isclose(self.cell_dx, other.cell_dx)
            and np.isclose(self.cell_dy, other.cell_dy)
        )

    def require_aligned(self, other: "RasterGrid", what: str = "raster") -> None:
        if not self.aligned_with(other):
            raise ValueError(f"{what} is not aligned with the reference grid")


@dataclass(frozen=True)
class DomainMask:
    """Subset of a grid's cells; the spatial support of a point process."""

    grid: RasterGrid
    included: np.ndarray

    def __post_init__(self):
        inc = np.asarray(self.included, dtype=bool)
        if inc.shape != self.grid.values.shape:
            raise ValueError("mask shape must match the grid")
        object.__setattr__(self, "included", inc)

    @property
    def n_included(self) -> int:
        return int(self.included.sum())

    @property
    def area(self) -> float:
        return self.n_included * self.grid.cell_area

    @property
    def cell_ids(self) -> np.ndarray:
        return np.flatnonzero(self.included.ravel())

    def contains_points(self, x, y) -> np.ndarray:
        cells = self.grid.cell_of_points(x, y)
        inside = cells >= 0
        out = np.zeros_like(inside)
        out[inside] = self.included.ravel()[cells[inside]]
        return out

    def difference(self, other: "DomainMask") -> "DomainMask":
        self.grid.require_aligned(other.grid, "mask")
        return DomainMask(self.grid, self.included & ~other.included)


@dataclass(frozen=True)
class PartitionScheme:
    """Disjoint subsets of a campaign domain, induced by a regular lattice.

    ``cell_subset`` assigns every grid cell its subset index (-1 outside the
    domain). ``subsets`` lists member flat cell ids per non-empty subset.
    Empty lattice rectangles are dropped from ``subsets`` but counted in
    ``n_empty``.
    """

    campaign_domain: DomainMask
    cell_subset: np.ndarray
    subsets: list[np.ndarray]
    subset_boxes: np.ndarray  # (G, 4): xmin, ymin, xmax, ymax of lattice rect
    n_empty: int

    @property
    def n_subsets(self) -> int:
        return len(self.subsets)

    def subset_of_points(self, x, y) -> np.ndarray:
        """Subset index per point, -1 for points outside the domain."""
        cells = self.campaign_domain.grid.cell_of_points(x, y)
        out = np.full(cells.shape, -1, dtype=int)
        inside = cells >= 0
        out[inside] = self.cell_subset.ravel()[cells[inside]]
        return out


@dataclass(frozen=True)
class PointPattern:
    """Observed locations with 1-based campaign indices."""

    x: np.ndarray
    y: np.ndarray
    campaign: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        c = np.asarray(self.campaign, dtype=int)
        if not (x.shape == y.shape == c.shape):
            raise ValueError("x, y, campaign must have equal length")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "campaign", c)

    @property
    def n(self) -> int:
        return self.x.size

    def for_campaign(self, t: int) -> "PointPattern":
        return self.take(self.campaign == t)

    def take(self, index) -> "PointPattern":
        return PointPattern(self.x[index], self.y[index], self.campaign[index])


# ---------------------------------------------------------------------------
# Raster file I/O (ESRI ASCII grid)
# ---------------------------------------------------------------------------

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize")


def read_legend(path) -> dict[int, str]:
    """Read a ``code,label`` CSV legend for a categorical raster."""
    legend: dict[int, str] = {}
    line_of: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (lineno == 1 and row[0].strip().lower() == "code"):
                continue
            try:
                code = int(row[0])
            except (ValueError, IndexError):
                raise RasterParseError(f"{path}: line {lineno}: bad legend code") from None
            if code in line_of:
                raise RasterParseError(
                    f"{path}: line {lineno}: code {code} repeats line {line_of[code]}"
                )
            line_of[code] = lineno
            legend[code] = row[1].strip() if len(row) > 1 else str(code)
    if not legend:
        raise RasterParseError(f"{path}: empty legend")
    return legend


def load_raster(path, kind: str = CONTINUOUS, legend=None) -> RasterGrid:
    """Read an ESRI ASCII grid file.

    Args:
        path: file in ASCII-grid format (``ncols``/``nrows``/``xllcorner``/
            ``yllcorner``/``cellsize``/optional ``NODATA_value`` header, then
            row-major values, northernmost row first).
        kind: "continuous" or "categorical".
        legend: for categorical rasters, a ``{code: label}`` dict or the path
            of a ``code,label`` CSV.

    Raises:
        RasterParseError: malformed header, wrong row length, non-numeric or
            unknown categorical values. The message names the line number.
    """
    path = Path(path)
    if kind == CATEGORICAL:
        if legend is None:
            raise ValueError("categorical raster requires a legend")
        if not isinstance(legend, dict):
            legend = read_legend(legend)

    header: dict[str, float] = {}
    nodata = -9999.0
    rows: list[np.ndarray] = []
    ncols = nrows = None
    with open(path) as fh:
        lines = fh.readlines()
    lineno = 0
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        key = parts[0].lower()
        if key in _HEADER_KEYS or key == "nodata_value":
            if len(parts) != 2:
                raise RasterParseError(f"{path}: line {lineno}: malformed header line")
            try:
                value = float(parts[1])
            except ValueError:
                raise RasterParseError(
                    f"{path}: line {lineno}: non-numeric header value"
                ) from None
            if key == "nodata_value":
                nodata = value
            else:
                header[key] = value
            continue
        # first data line: header must be complete
        missing = [k for k in _HEADER_KEYS if k not in header]
        if missing:
            raise RasterParseError(
                f"{path}: line {lineno}: header incomplete, missing {missing}"
            )
        ncols = int(header["ncols"])
        nrows = int(header["nrows"])
        data_lines = lines[lineno - 1 :]
        break
    else:
        raise RasterParseError(f"{path}: line {lineno}: no data rows")

    if ncols <= 0 or nrows <= 0:
        raise RasterParseError(f"{path}: line {lineno}: ncols/nrows must be positive")

    for offset, line in enumerate(data_lines):
        this_line = lineno + offset
        parts = line.split()
        if not parts:
            continue
        try:
            row = np.array([float(v) for v in parts])
        except ValueError:
            raise RasterParseError(
                f"{path}: line {this_line}: non-numeric raster value"
            ) from None
        if row.size != ncols:
            raise RasterParseError(
                f"{path}: line {this_line}: row length mismatch "
                f"(expected {ncols}, got {row.size})"
            )
        if len(rows) == nrows:
            raise RasterParseError(f"{path}: line {this_line}: more rows than nrows")
        if kind == CATEGORICAL:
            valid = row != nodata
            codes = row[valid]
            bad = set(codes.astype(int)) - set(legend)
            if np.any(codes != np.round(codes)) or bad:
                raise RasterParseError(
                    f"{path}: line {this_line}: unknown categorical code"
                )
        rows.append(row)
    if len(rows) != nrows:
        raise RasterParseError(
            f"{path}: line {lineno + len(data_lines) - 1}: expected {nrows} rows, "
            f"got {len(rows)}"
        )

    values = np.vstack(rows)[::-1]  # file stores north first; row 0 is south
    values[values == nodata] = np.nan
    return RasterGrid(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_dx=header["cellsize"],
        cell_dy=header["cellsize"],
        values=values,
        kind=kind,
        legend=legend if kind == CATEGORICAL else None,
    )


def write_raster(grid: RasterGrid, path, nodata: float = -9999.0) -> None:
    """Write an ESRI ASCII grid (square cells required by the format)."""
    if not np.isclose(grid.cell_dx, grid.cell_dy):
        raise ValueError("ASCII grid format requires square cells")
    values = np.where(np.isfinite(grid.values), grid.values, nodata)
    with open(path, "w") as fh:
        fh.write(f"ncols {grid.n_cols}\n")
        fh.write(f"nrows {grid.n_rows}\n")
        fh.write(f"xllcorner {grid.origin_x:.10g}\n")
        fh.write(f"yllcorner {grid.origin_y:.10g}\n")
        fh.write(f"cellsize {grid.cell_dx:.10g}\n")
        fh.write(f"NODATA_value {nodata:.10g}\n")
        for row in values[::-1]:
            fh.write(" ".join(f"{v:.10g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# Aggregation and scheme builders
# ---------------------------------------------------------------------------


def zonal_aggregate(fine: RasterGrid, coarse_cell: float) -> RasterGrid:
    """Aggregate a fine raster onto a coarser grid with square cells.

    Continuous rasters take the zone mean, categorical ones the modal code
    (ties break toward the smallest code). Fine cells are assigned to the
    coarse cell containing their center. Zones with no valid fine cells stay
    missing.
    """
    if coarse_cell < max(fine.cell_dx, fine.cell_dy):
        raise ValueError("coarse cell must be at least as large as the fine cell")

    n_rows = int(np.ceil(fine.n_rows * fine.cell_dy / coarse_cell))
    n_cols = int(np.ceil(fine.n_cols * fine.cell_dx / coarse_cell))
    cx, cy = fine.cell_centers()
    zr = np.floor((cy - fine.origin_y) / coarse_cell).astype(int)
    zc = np.floor((cx - fine.origin_x) / coarse_cell).astype(int)
    zone = zr * n_cols + zc

    out = np.full(n_rows * n_cols, np.nan)
    valid = np.isfinite(fine.values)
    zone_v = zone[valid]
    vals_v = fine.values[valid]
    if fine.kind == CONTINUOUS:
        sums = np.bincount(zone_v, weights=vals_v, minlength=out.size)
        counts = np.bincount(zone_v, minlength=out.size)
        nz = counts > 0
        out[nz] = sums[nz] / counts[nz]
    else:
        codes = sorted(fine.legend)
        best_count = np.zeros(out.size, dtype=int)
        for code in codes:  # ascending order makes ties favor the smallest code
            count = np.bincount(zone_v[vals_v == code], minlength=out.size)
            better = count > best_count
            out[better] = code
            best_count[better] = count[better]
    return RasterGrid(
        origin_x=fine.origin_x,
        origin_y=fine.origin_y,
        cell_dx=coarse_cell,
        cell_dy=coarse_cell,
        values=out.reshape(n_rows, n_cols),
        kind=fine.kind,
        legend=fine.legend,
    )


def build_partition(domain: DomainMask, rows: int, cols: int) -> PartitionScheme:
    """Partition a domain's cells with a rows x cols lattice over its bounding box.

    Every included grid cell is assigned to the lattice rectangle containing
    its center (half-open intervals). Rectangles without any included cell are
    dropped from the subset list and counted in ``n_empty``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("partition lattice must be at least 1 x 1")
    if domain.n_included == 0:
        raise ValueError("cannot partition an empty domain")

    grid = domain.grid
    inc_r, inc_c = np.nonzero(domain.included)
    # tight bounding box of the included cells, in cell-edge coordinates
    x0 = grid.origin_x + inc_c.min() * grid.cell_dx
    x1 = grid.origin_x + (inc_c.max() + 1) * grid.cell_dx
    y0 = grid.origin_y + inc_r.min() * grid.cell_dy
    y1 = grid.origin_y + (inc_r.max() + 1) * grid.cell_dy
    step_x = (x1 - x0) / cols
    step_y = (y1 - y0) / rows

    cx, cy = grid.cell_centers()
    lat_c = np.clip(np.floor((cx - x0) / step_x).astype(int), 0, cols - 1)
    lat_r = np.clip(np.floor((cy - y0) / step_y).astype(int), 0, rows - 1)
    rect = lat_r * cols + lat_c

    cell_subset = np.full(grid.values.shape, -1, dtype=int)
    subsets: list[np.ndarray] = []
    boxes: list[tuple[float, float, float, float]] = []
    n_empty = 0
    rect_masked = np.where(domain.included, rect, -1)
    for k in range(rows * cols):
        members = np.flatnonzero(rect_masked.ravel() == k)
        if members.size == 0:
            n_empty += 1
            continue
        cell_subset.ravel()[members] = len(subsets)
        subsets.append(members)
        r, c = divmod(k, cols)
        boxes.append((x0 + c * step_x, y0 + r * step_y, x0 + (c + 1) * step_x, y0 + (r + 1) * step_y))
    return PartitionScheme(
        campaign_domain=domain,
        cell_subset=cell_subset,
        subsets=subsets,
        subset_boxes=np.array(boxes, dtype=float).reshape(len(subsets), 4),
        n_empty=n_empty,
    )


def habitat_domains(
    habitat: RasterGrid, poceanica_label: str
) -> tuple[DomainMask, DomainMask, DomainMask]:
    """Split a habitat raster into (full domain, meadow, everything else).

    The full domain D holds every classified cell, D1 the cells of the
    ``poceanica_label`` class, and D2 = D minus D1.
    """
    if habitat.kind != CATEGORICAL:
        raise ValueError("habitat raster must be categorical")
    code = _code_for_label(habitat.legend, poceanica_label)
    valid = np.isfinite(habitat.values)
    d = DomainMask(habitat, valid)
    d1 = DomainMask(habitat, valid & (habitat.values == code))
    d2 = d.difference(d1)
    return d, d1, d2


def _code_for_label(legend: dict[int, str], label: str) -> int:
    for code, name in legend.items():
        if name == label:
            return code
    raise ValueError(f"habitat class {label!r} not found in legend")


# ---------------------------------------------------------------------------
# Point and campaign-domain files
# ---------------------------------------------------------------------------


def read_points(path) -> PointPattern:
    """Read a points CSV with header ``x,y,campaign``."""
    xs: list[float] = []
    ys: list[float] = []
    ts: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"x", "y", "campaign"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: points file must have header x,y,campaign")
        for lineno, row in enumerate(reader, start=2):
            try:
                xs.append(float(row["x"]))
                ys.append(float(row["y"]))
                ts.append(int(row["campaign"]))
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {lineno}: bad point record") from None
    return PointPattern(np.array(xs), np.array(ys), np.array(ts, dtype=int))


def write_points(pattern: PointPattern, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "campaign"])
        for x, y, t in zip(pattern.x, pattern.y, pattern.campaign):
            writer.writerow([f"{x:.10g}", f"{y:.10g}", int(t)])


def read_campaign_domains(path) -> dict[int, str]:
    """Read a ``campaign,domain`` CSV mapping campaigns to D, D1 or D2."""
    out: dict[int, str] = {}
    line_of: dict[int, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"campaign", "domain"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: campaign map must have header campaign,domain")
        for lineno, row in enumerate(reader, start=2):
            try:
                t = int(row["campaign"])
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {lineno}: bad campaign index") from None
            name = (row["domain"] or "").strip()
            if name not in ("D", "D1", "D2"):
                raise ValueError(
                    f"{path}: line {lineno}: domain must be one of D, D1, D2"
                )
            if t in line_of:
                raise ValueError(
                    f"{path}: line {lineno}: campaign {t} repeats line {line_of[t]}"
                )
            line_of[t] = lineno
            out[t] = name
    if not out:
        raise ValueError(f"{path}: empty campaign map")
    return out


def campaign_masks(
    domain_of: dict[int, str], d: DomainMask, d1: DomainMask, d2: DomainMask
) -> dict[int, DomainMask]:
    """Resolve a campaign -> domain-name map to actual masks."""
    lookup = {"D": d, "D1": d1, "D2": d2}
    return {t: lookup[name] for t, name in sorted(domain_of.items())}


# ---------------------------------------------------------------------------
# Covariate stack
# ---------------------------------------------------------------------------


@dataclass
class CovariateStack:
    """Aligned covariate rasters plus the habitat classification.

    Provides the model's design columns: continuous covariates by name (the
    synthetic ``xcoord``/``ycoord`` columns are always available), one 0/1
    indicator per habitat class except the meadow class and the reference
    class, and the meadow indicator ``z``.
    """

    grid: RasterGrid
    continuous: dict[str, RasterGrid] = field(default_factory=dict)
    habitat: RasterGrid | None = None
    poceanica_label: str | None = None
    reference_class: str | None = None

    def __post_init__(self):
        for name, raster in self.continuous.items():
            self.grid.require_aligned(raster, f"covariate {name!r}")
        if self.habitat is not None:
            self.grid.require_aligned(self.habitat, "habitat raster")
            if self.poceanica_label is not None:
                _code_for_label(self.habitat.legend, self.poceanica_label)
            if self.reference_class is not None:
                _code_for_label(self.habitat.legend, self.reference_class)

    @property
    def indicator_names(self) -> list[str]:
        """Habitat classes usable as indicator covariates."""
        if self.habitat is None:
            return []
        skip = {self.poceanica_label, self.reference_class}
        return sorted(label for label in self.habitat.legend.values() if label not in skip)

    @property
    def column_names(self) -> list[str]:
        return ["xcoord", "ycoord"] + sorted(self.continuous) + self.indicator_names

    def values_at(self, name: str, cell_ids: np.ndarray) -> np.ndarray:
        """Covariate column at the given cells; missing cells are an error."""
        if name == "xcoord" or name == "ycoord":
            cx, cy = self.grid.cell_centers()
            vals = (cx if name == "xcoord" else cy).ravel()[cell_ids]
            return vals
        if name in self.continuous:
            vals = self.continuous[name].values.ravel()[cell_ids]
        elif self.habitat is not None and name in self.habitat.legend.values():
            code = _code_for_label(self.habitat.legend, name)
            hab = self.habitat.values.ravel()[cell_ids]
            if np.any(~np.isfinite(hab)):
                raise ValueError(
                    f"habitat covariate {name!r} undefined at "
                    f"{int(np.sum(~np.isfinite(hab)))} domain cells"
                )
            return (hab == code).astype(float)
        else:
            raise KeyError(f"unknown covariate {name!r}")
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise ValueError(
                f"covariate {name!r} is missing at {int(bad.sum())} domain cells; "
                "refusing to fit with missing covariate values"
            )
        return vals

    def z_at(self, cell_ids: np.ndarray) -> np.ndarray:
        """Meadow indicator z(s) at the given cells (all zero without habitat)."""
        if self.habitat is None or self.poceanica_label is None:
            return np.zeros(len(cell_ids))
        code = _code_for_label(self.habitat.legend, self.poceanica_label)
        hab = self.habitat.values.ravel()[cell_ids]
        if np.any(~np.isfinite(hab)):
            raise ValueError("habitat classification undefined at some domain cells")
        return (hab == code).astype(float)
