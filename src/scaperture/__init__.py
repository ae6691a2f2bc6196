"""Magnetic fields of point dipoles in apertures of superconducting thin films.

Two engines: exact closed forms for circular apertures in the zero
penetration depth limit, and a stream-function integral-equation solver for
arbitrary aperture shapes at finite penetration depth, plus an experiments
layer for sweeps, fits and engine comparisons.

The names below load their modules on first access, so importing the
package (and the command line in `scaperture.cli`) loads no numpy: the
thread-count override must reach the linear-algebra backend before it loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "DEFAULT_MOMENT": "scaperture.constants",
    "MU0": "scaperture.constants",
    "Circle": "scaperture.geometry",
    "ConfigurationError": "scaperture.errors",
    "Dipole": "scaperture.geometry",
    "DogBone": "scaperture.geometry",
    "Ellipse": "scaperture.geometry",
    "FilmSpec": "scaperture.geometry",
    "default_film": "scaperture.geometry",
    "FieldMap": "scaperture.grid",
    "Grid": "scaperture.grid",
    "make_grid": "scaperture.grid",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module 'scaperture' has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
