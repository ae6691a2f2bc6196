"""In-plane field of a z dipole at the centre of a circular aperture.

A piecewise closed form along the positive x axis (equivalently any ray, by
symmetry).  A z-oriented dipole produces no field on the superconductor.
"""

from __future__ import annotations

import numpy as np

from scaperture.constants import MU0
from scaperture.geometry import SingularityError


def field_inplane(m: float, x: np.ndarray, radius: float) -> np.ndarray:
    """B_z (tesla) at in-plane points (x, 0, 0), x > 0, of a z dipole of
    moment `m`.  At x = R it diverges and returns -inf (times the sign of m).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise SingularityError("in-plane field is evaluated for x > 0")

    q = x / radius
    pref = MU0 * m / (4 * np.pi * x**3)
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(1 - q * q, 0.0))
        bracket = np.where(
            q < 1.0,
            -(2 / np.pi) * (np.arccos(np.minimum(q, 1.0)) + q * (1 + q * q) / root),
            0.0,
        )
    return pref * np.where(q == 1.0, -np.inf, bracket)
