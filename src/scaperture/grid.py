"""Non-equidistant tensor grids with edge refinement, cells and region labels.

`make_grid` holds the one grading rule: n points per axis, spacing h_edge at
the aperture edges and at any extra refined positions, growing with slope
GRADING_SLOPE away from them up to h_cap, and at most one anchor per axis
snapped on as an exact +- pair.  `Grid` holds the one cell rule: each
point's cell is its Voronoi interval along each axis, clipped to the grid
square; `Grid` and `build_grid` take any strictly increasing axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scaperture.geometry import ApertureGeometry, ConfigurationError, FilmSpec

REGION_FILM = 0
REGION_APERTURE = 1
REGION_EXTERIOR = 2

_DENSITY_SAMPLES = 60001
GRADING_SLOPE = 0.4  # spacing growth per unit distance from a refined position
_DERIVED = dict(init=False, repr=False, compare=False)  # Grid fields set by __post_init__


def graded_half_axis(n_half, half_extent, positions, h_edge, h_cap):
    """Coordinates on (0, half_extent) with spacing ~ h_edge + slope * |t - pos|.

    The pointwise minimum over `positions` (capped at h_cap) defines the
    target spacing profile, and points are placed at equal quantiles of its
    reciprocal.  Spacing ratios are preserved; absolute spacings rescale
    with n_half.
    """
    t = np.linspace(0.0, half_extent, _DENSITY_SAMPLES)
    # in place on three arrays: h, then 1/h; w, then the trapezoid areas
    h, w = np.full_like(t, float(h_cap)), np.empty_like(t)
    for pos in positions:
        np.multiply(np.abs(np.subtract(t, pos, out=w), out=w), GRADING_SLOPE, out=w)
        np.minimum(h, np.add(w, h_edge, out=w), out=h)
    dens = np.divide(1.0, h, out=h)
    np.multiply(np.add(dens[1:], dens[:-1], out=w[1:]), 0.5, out=w[1:])
    w[1:] *= np.subtract(t[1:], t[:-1], out=dens[1:])
    w[0] = 0.0
    cdf = np.cumsum(w, out=w)
    targets = (np.arange(n_half) + 0.5) / n_half * cdf[-1]
    return np.interp(targets, cdf, t)


def graded_axis(n, half_extent, positions, h_edge, h_cap):
    """Symmetric axis of n points on (-half_extent, half_extent), no point at 0."""
    if n < 2 or n % 2:
        raise ConfigurationError("axis point count must be even and >= 2")
    half = graded_half_axis(n // 2, half_extent, positions, h_edge, h_cap)
    return np.concatenate([-half[::-1], half])


def snap_symmetric(coords, value):
    """Snap the pair +-value onto the nearest mirror pair of a symmetric axis.

    Replaces existing points (count preserved).  An anchor at 0 has no
    mirror partner on an axis without a point at 0, so it is rejected.
    """
    if value == 0.0:
        raise ConfigurationError("cannot snap an anchor at 0: symmetric axes have no point at 0")
    out = np.array(coords, dtype=float)
    i = int(np.argmin(np.abs(out - value)))
    out[i], out[len(out) - 1 - i] = value, -value
    out = np.sort(out)
    if not np.all(np.diff(out) > 0):
        raise ConfigurationError("anchor snapping produced duplicate coordinates")
    return out


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid; flat index p = ix * n_y + iy.

    Each point's cell is its Voronoi interval along x times that along y,
    clipped to the grid square [-half_extent, half_extent]^2, so the cells
    tile the square.  The cells and points are derived once, read-only.
    """

    x: np.ndarray
    y: np.ndarray
    half_extent: float
    region: np.ndarray   # per-point labels, REGION_* codes
    x_edges: np.ndarray = field(**_DERIVED)  # (n_x + 1,) cell edges along x, m
    y_edges: np.ndarray = field(**_DERIVED)  # (n_y + 1,) cell edges along y, m
    weights: np.ndarray = field(**_DERIVED)  # per-point cell areas, m^2
    points: np.ndarray = field(**_DERIVED)   # (n_points, 2)

    def __post_init__(self):
        X = self.half_extent
        x_edges, y_edges = (np.concatenate([[-X], 0.5 * (a[1:] + a[:-1]), [X]])
                            for a in (self.x, self.y))
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        derived = dict(x_edges=x_edges, y_edges=y_edges,
                       weights=np.outer(np.diff(x_edges), np.diff(y_edges)).ravel(),
                       points=np.column_stack([xx.ravel(), yy.ravel()]))
        for name, arr in derived.items():
            object.__setattr__(self, name, arr)
        for arr in (self.x, self.y, self.region, *derived.values()):
            arr.setflags(write=False)

    @property
    def n_x(self) -> int:
        return len(self.x)

    @property
    def n_y(self) -> int:
        return len(self.y)

    @property
    def n_points(self) -> int:
        return len(self.x) * len(self.y)

    def index_of(self, x, y) -> int:
        ix = int(np.argmin(np.abs(self.x - x)))
        iy = int(np.argmin(np.abs(self.y - y)))
        return ix * self.n_y + iy

    def x_line(self, y):
        """Flat indices of the grid line closest to height y."""
        iy = int(np.argmin(np.abs(self.y - y)))
        return np.arange(self.n_x) * self.n_y + iy


def label_regions(geometry: ApertureGeometry, film: FilmSpec, x, y) -> np.ndarray:
    xx, yy = x[:, None], y[None, :]
    inside = geometry.contains(xx, yy).ravel()
    F = film.half_extents(geometry)[0]
    beyond = ((np.abs(xx) > F) | (np.abs(yy) > F)).ravel()
    region = np.full(len(x) * len(y), REGION_FILM, dtype=np.uint8)
    region[beyond & ~inside] = REGION_EXTERIOR
    region[inside] = REGION_APERTURE
    return region


def build_grid(geometry, film, x_coords, y_coords) -> Grid:
    """Assemble a Grid from prepared axis coordinates."""
    x = np.asarray(x_coords, dtype=float)
    y = np.asarray(y_coords, dtype=float)
    X = film.half_extents(geometry)[1]
    inside = all(-X < a[0] and a[-1] < X for a in (x, y))
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0) and inside):
        raise ConfigurationError("axis coordinates must increase strictly inside the grid square")
    region = label_regions(geometry, film, x, y)
    return Grid(x=x, y=y, half_extent=X, region=region)


def make_grid(
    geometry: ApertureGeometry,
    film: FilmSpec,
    n: int,
    refinement_ratio: float,
    *,
    refine_x=(),
    refine_y=(),
    anchor_x: float | None = None,
    anchor_y: float | None = None,
) -> Grid:
    """Square tensor grid of n x n points refined near the aperture edges and
    the `refine_x`/`refine_y` positions (m, each mirrored by the axis symmetry).

    Spacing there is h_edge = h_cap / `refinement_ratio` and grows with
    slope GRADING_SLOPE away from them up to h_cap, half the exterior ring
    width.  Only that ratio is fixed, the spacings rescale with n: a coarse
    grid may have no point beyond the film (the R = 1 um circle's scenario
    grid below n = 20).  An anchor is snapped on as an exact +- pair.
    """
    if n < 16:
        raise ConfigurationError("need at least 16 points per axis")
    if refinement_ratio < 1:
        raise ConfigurationError("refinement_ratio must be >= 1")
    F, X = film.half_extents(geometry)
    h_cap = 0.5 * (X - F)
    h_edge = h_cap / refinement_ratio
    x = graded_axis(n, X, [geometry.edge_x, *refine_x], h_edge, h_cap)
    y = graded_axis(n, X, [geometry.edge_y, *refine_y], h_edge, h_cap)
    if anchor_x is not None:
        x = snap_symmetric(x, anchor_x)
    if anchor_y is not None:
        y = snap_symmetric(y, anchor_y)
    return build_grid(geometry, film, x, y)


@dataclass(frozen=True)
class FieldMap:
    """Scalar values attached to every grid point."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)  # copied: a view of the input stays writable
        if vals.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"value count {vals.shape} does not match grid size {self.grid.n_points}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field map values must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
