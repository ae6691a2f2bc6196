"""Non-equidistant tensor grids with edge refinement, weights and region labels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scaperture.geometry import ApertureGeometry, ConfigurationError, FilmSpec

REGION_FILM = 0
REGION_APERTURE = 1
REGION_EXTERIOR = 2

_DENSITY_SAMPLES = 60001


def graded_half_axis(n_half, half_extent, features, h_cap):
    """Coordinates on (0, half_extent) with spacing ~ h0 + slope * |t - pos|.

    `features` is a sequence of (pos, h0, slope) triples; the pointwise
    minimum over features (capped at h_cap) defines the target spacing
    profile, and points are placed at equal quantiles of its reciprocal.
    Spacing ratios are preserved; absolute spacings rescale with n_half.
    """
    t = np.linspace(0.0, half_extent, _DENSITY_SAMPLES)
    h = np.full_like(t, float(h_cap))
    for pos, h0, slope in features:
        np.minimum(h, h0 + slope * np.abs(t - pos), out=h)
    dens = 1.0 / h
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t))])
    targets = (np.arange(n_half) + 0.5) / n_half * cdf[-1]
    return np.interp(targets, cdf, t)


def graded_axis(n, half_extent, features, h_cap):
    """Symmetric axis of n points on (-half_extent, half_extent), no point at 0."""
    if n < 2 or n % 2:
        raise ConfigurationError("axis point count must be even and >= 2")
    half = graded_half_axis(n // 2, half_extent, features, h_cap)
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


def axis_weights(coords, half_extent):
    """Per-point cell lengths: Voronoi intervals clipped to [-X, X]."""
    mid = 0.5 * (coords[1:] + coords[:-1])
    lo = np.concatenate([[-half_extent], mid])
    hi = np.concatenate([mid, [half_extent]])
    return hi - lo


@dataclass(frozen=True)
class Grid:
    """Tensor-product grid; flat index p = ix * n_y + iy."""

    x: np.ndarray
    y: np.ndarray
    half_extent: float
    region: np.ndarray   # per-point labels, REGION_* codes
    weights: np.ndarray  # per-point cell areas, m^2
    points: np.ndarray = field(init=False, repr=False, compare=False)  # (n_points, 2)

    def __post_init__(self):
        xx, yy = np.meshgrid(self.x, self.y, indexing="ij")
        object.__setattr__(self, "points", np.column_stack([xx.ravel(), yy.ravel()]))
        for arr in (self.x, self.y, self.region, self.weights, self.points):
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
    if not (np.all(np.diff(x) > 0) and np.all(np.diff(y) > 0)):
        raise ConfigurationError("axis coordinates must be strictly increasing")
    X = film.grid_half_extent
    wx = axis_weights(x, X)
    wy = axis_weights(y, X)
    weights = np.outer(wx, wy).ravel()
    region = label_regions(geometry, film, x, y)
    return Grid(x=x, y=y, half_extent=X, region=region, weights=weights)


def make_grid(
    geometry: ApertureGeometry,
    film: FilmSpec,
    n_x: int,
    n_y: int,
    refinement_ratio: float,
    *,
    grading_slope: float = 0.4,
    extra_x_features=(),
    extra_y_features=(),
    anchor_x=(),
    anchor_y=(),
) -> Grid:
    """Tensor grid refined near the aperture edge positions.

    Spacing near the edges is smaller than the far-field spacing by
    approximately `refinement_ratio`; far spacing is capped at half the
    exterior ring width so the film boundary is always sampled.  Extra
    features are (pos, h0, slope) triples in meters; anchors are snapped
    onto the axes as exact +- coordinate pairs.
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
    feats_x = [(geometry.edge_x, h_edge, grading_slope)] + list(extra_x_features)
    feats_y = [(geometry.edge_y, h_edge, grading_slope)] + list(extra_y_features)
    x = graded_axis(n_x, X, feats_x, h_cap)
    y = graded_axis(n_y, X, feats_y, h_cap)
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
