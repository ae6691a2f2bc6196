"""Non-equidistant tensor grids with edge refinement, cells and region labels.

`make_grid` holds the one grading rule: spacing h_edge at the aperture edges
and at any extra refined positions, growing with slope GRADING_SLOPE away
from them up to h_cap.  `Grid` holds the one cell rule: each point's cell is
its Voronoi interval along each axis, clipped to the grid square.
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
    h = np.full_like(t, float(h_cap))
    for pos in positions:
        np.minimum(h, h_edge + GRADING_SLOPE * np.abs(t - pos), out=h)
    dens = 1.0 / h
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t))])
    targets = (np.arange(n_half) + 0.5) / n_half * cdf[-1]
    return np.interp(targets, cdf, t)


def graded_axis(n, half_extent, positions, h_edge, h_cap):
    """Symmetric axis of n points on (-half_extent, half_extent), no point at 0."""
    if n < 2 or n % 2:
        raise ConfigurationError("axis point count must be even and >= 2")
    half = graded_half_axis(n // 2, half_extent, positions, h_edge, h_cap)
    return np.concatenate([-half[::-1], half])


def snap_symmetric(coords, values):
    """Snap +-v pairs onto the nearest coordinates of a symmetric axis.

    Replaces existing points (count preserved); each anchor consumes a
    distinct mirror pair of indices.  An anchor at 0 has no mirror partner
    on an axis without a point at 0, so it is rejected.
    """
    out = np.array(coords, dtype=float)
    n = len(out)
    used: set[int] = set()
    for v in sorted({float(v) for v in values}):
        if v == 0.0:
            raise ConfigurationError(
                "cannot snap an anchor at 0: symmetric axes have no point at 0"
            )
        for i in np.argsort(np.abs(out - v)):
            if i in used or (n - 1 - i) in used:
                continue
            out[i] = v
            out[n - 1 - i] = -v
            used.update((int(i), int(n - 1 - i)))
            break
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
        return np.arange(self.n_x) * self.n_y + iy, self.y[iy]


def label_regions(geometry: ApertureGeometry, film: FilmSpec, x, y) -> np.ndarray:
    xx, yy = x[:, None], y[None, :]
    inside = geometry.contains(xx, yy).ravel()
    beyond = ((np.abs(xx) > film.film_half_extent) | (np.abs(yy) > film.film_half_extent)).ravel()
    region = np.full(len(x) * len(y), REGION_FILM, dtype=np.uint8)
    region[beyond & ~inside] = REGION_EXTERIOR
    region[inside] = REGION_APERTURE
    return region


def build_grid(geometry, film, x_coords, y_coords) -> Grid:
    """Assemble a Grid from prepared axis coordinates."""
    x = np.asarray(x_coords, dtype=float)
    y = np.asarray(y_coords, dtype=float)
    inside = all(-film.grid_half_extent < a[0] and a[-1] < film.grid_half_extent for a in (x, y))
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0) and inside):
        raise ConfigurationError("axis coordinates must increase strictly inside the grid square")
    region = label_regions(geometry, film, x, y)
    return Grid(x=x, y=y, half_extent=film.grid_half_extent, region=region)


def make_grid(
    geometry: ApertureGeometry,
    film: FilmSpec,
    n_x: int,
    n_y: int,
    refinement_ratio: float,
    *,
    refine_x=(),
    refine_y=(),
    anchor_x=(),
    anchor_y=(),
) -> Grid:
    """Tensor grid refined near the aperture edges and the `refine_x`/`refine_y`
    positions (m, each mirrored by the axis symmetry).

    Spacing there is h_edge = h_cap / `refinement_ratio` and grows with
    slope GRADING_SLOPE away from them.  The far spacing h_cap is half the
    exterior ring width, so the film boundary is always sampled, or 5 % of
    the grid half extent when the film reaches the grid edge.  Anchors are
    snapped onto the axes as exact +- coordinate pairs.
    """
    if n_x < 16 or n_y < 16:
        raise ConfigurationError("need at least 16 points per axis")
    if refinement_ratio < 1:
        raise ConfigurationError("refinement_ratio must be >= 1")
    film.check_against(geometry)

    X = film.grid_half_extent
    h_cap = 0.5 * (film.grid_half_extent - film.film_half_extent)
    if h_cap <= 0:
        h_cap = 0.05 * X
    h_edge = h_cap / refinement_ratio
    x = graded_axis(n_x, X, [geometry.edge_x, *refine_x], h_edge, h_cap)
    y = graded_axis(n_y, X, [geometry.edge_y, *refine_y], h_edge, h_cap)
    if len(anchor_x):
        x = snap_symmetric(x, anchor_x)
    if len(anchor_y):
        y = snap_symmetric(y, anchor_y)
    return build_grid(geometry, film, x, y)


@dataclass(frozen=True)
class FieldMap:
    """Scalar values attached to every grid point."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"value count {vals.shape} does not match grid size {self.grid.n_points}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("field map values must be finite")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)
