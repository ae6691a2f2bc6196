"""Aperture geometries, film parameters, the dipole source and the error classes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.constants import (
    DEFAULT_FILM_FACTOR,
    DEFAULT_GRID_FACTOR,
    DEFAULT_LONDON_DEPTH,
    DEFAULT_THICKNESS,
)


class ConfigurationError(ValueError):
    """Inconsistent geometry, film or scenario parameters."""


class SolverError(RuntimeError):
    """Linear system could not be solved reliably."""


class SingularityError(ValueError):
    """Evaluation requested at a singular point of a closed form."""


def _vec3(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ConfigurationError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Dipole:
    """Point magnetic dipole: position in meters, moment in A m^2."""

    position: np.ndarray
    moment: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position))
        object.__setattr__(self, "moment", _vec3(self.moment))
        if not np.linalg.norm(self.moment) > 0:
            raise ConfigurationError("dipole moment must have positive magnitude")
        self.position.setflags(write=False)
        self.moment.setflags(write=False)


@dataclass(frozen=True)
class Circle:
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ConfigurationError("circle radius must be positive")

    def contains(self, x, y):
        # the ellipse's expression, so a circle and a round ellipse agree to the bit
        return Ellipse(self.radius, self.radius).contains(x, y)

    @property
    def edge_x(self) -> float:
        return self.radius

    @property
    def edge_y(self) -> float:
        return self.radius


@dataclass(frozen=True)
class Ellipse:
    a: float  # semi-axis along x
    b: float  # semi-axis along y

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ConfigurationError("ellipse semi-axes must be positive")

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (x / self.a) ** 2 + (y / self.b) ** 2 < 1.0

    @property
    def edge_x(self) -> float:
        return self.a

    @property
    def edge_y(self) -> float:
        return self.b


@dataclass(frozen=True)
class DogBone:
    """Two discs at (+-L/2, 0) joined by an axis-aligned channel."""

    end_radius: float
    center_distance: float
    channel_half_width: float

    def __post_init__(self):
        if not (self.end_radius > 0 and self.center_distance > 0 and self.channel_half_width > 0):
            raise ConfigurationError("dog-bone lengths must be positive")
        if not self.center_distance > 2 * self.end_radius:
            raise ConfigurationError("dog-bone discs must not overlap (L > 2 * end_radius)")
        # so that end_radius, the edge_y below, is the shape's half-height
        if self.channel_half_width > self.end_radius:
            raise ConfigurationError("dog-bone channel must not be wider than its discs "
                                     "(channel_half_width <= end_radius)")

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        half = 0.5 * self.center_distance
        r2 = self.end_radius**2
        in_left = (x + half) ** 2 + y * y < r2
        in_right = (x - half) ** 2 + y * y < r2
        in_channel = (np.abs(x) < half) & (np.abs(y) < self.channel_half_width)
        return in_left | in_right | in_channel

    @property
    def edge_x(self) -> float:
        return 0.5 * self.center_distance + self.end_radius

    @property
    def edge_y(self) -> float:
        return self.end_radius


# every shape's contains(x, y) is true strictly inside the aperture: the
# boundary belongs to the superconductor side
ApertureGeometry = Circle | Ellipse | DogBone


@dataclass(frozen=True)
class FilmSpec:
    """Material of the superconducting film."""

    london_depth: float = DEFAULT_LONDON_DEPTH
    thickness: float = DEFAULT_THICKNESS

    def __post_init__(self):
        if not (self.london_depth > 0 and self.thickness > 0):
            raise ConfigurationError("london_depth and thickness must be positive")

    @property
    def pearl_length(self) -> float:
        """Two-dimensional screening length, lambda^2 / thickness."""
        return self.london_depth**2 / self.thickness

    def half_extents(self, geometry: ApertureGeometry) -> tuple[float, float]:
        """(film, grid) half-extents around `geometry`, m: DEFAULT_FILM_FACTOR and
        DEFAULT_GRID_FACTOR times its scale radius, max(edge_x, edge_y)."""
        r = max(geometry.edge_x, geometry.edge_y)
        return DEFAULT_FILM_FACTOR * r, DEFAULT_GRID_FACTOR * r


def default_film(geometry: ApertureGeometry, *args, **kwargs) -> FilmSpec:
    """`FilmSpec(*args, **kwargs)`: the film's extents follow every geometry."""
    return FilmSpec(*args, **kwargs)
