"""Magnetic fields of point dipoles in apertures of superconducting thin films.

Two engines: exact closed forms for circular apertures in the zero
penetration depth limit, and a stream-function integral-equation solver for
arbitrary aperture shapes at finite penetration depth, plus an experiments
layer for sweeps, fits and engine comparisons.
"""

__version__ = "0.1.0"

from scaperture.constants import DEFAULT_MOMENT, MU0
from scaperture.geometry import (
    Circle,
    ConfigurationError,
    Dipole,
    DogBone,
    Ellipse,
    FilmSpec,
    default_film,
)

__all__ = [
    "DEFAULT_MOMENT",
    "MU0",
    "Circle",
    "ConfigurationError",
    "Dipole",
    "DogBone",
    "Ellipse",
    "FilmSpec",
    "default_film",
]
