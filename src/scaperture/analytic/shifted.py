"""In-plane B_z of a z dipole shifted off-center inside the circular aperture.

In the film plane z = z' = 0, with the source (x0, 0) inside the aperture
(u' < 0), the aperture's Dirichlet kernel, 1/(4 pi |r - r'|) for an infinite
aperture, is G = A / (2 pi^2 D), with dx = x - x0, D^2 = dx^2 + y^2,
u = x^2 + y^2 - R^2, u' = x0^2 - R^2, F = sqrt(max(u u', 0)) / R and
A = arctan(F / D): G vanishes on the film.  B_z = mu0 m (d_x d_x' + d_y d_y') G
in closed form, with Q = D^2 + F^2 and F/u in the hole (0 on the film):

    2 pi^2 (d_x d_x' + d_y d_y') G = -A / D^3 - F (2 D^2 + Q) / (Q^2 D^2)
        - 2 [dx x0 F / u' - (dx x + y^2) F / u] / Q^2
        + x x0 (F / u) (D^2 - F^2) / (u' Q^2).

tests/analytic_oracles.py holds the 3-D kernel and its full field.
"""

from __future__ import annotations

import numpy as np

from scaperture.constants import MU0
from scaperture.geometry import ConfigurationError, SingularityError


def field_shifted_bz_plane(m: float, x0: float, x, y: float, radius: float) -> np.ndarray:
    """Bz (tesla) at in-plane points (x, y, 0) of a z-dipole of magnitude m
    at (x0, 0, 0), |x0| < R.  It is exactly 0 on the film."""
    if not abs(x0) < radius:
        raise ConfigurationError("dipole must sit strictly inside the aperture")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    dx = x - x0
    d2 = dx * dx + y * y
    u = (x - radius) * (x + radius) + y * y  # factored: exact digits near the edge ring
    if np.any((d2 == 0.0) | (u == 0.0) | (np.hypot(x, y) == radius)):
        raise SingularityError("field evaluation at the dipole or on the edge ring")
    up = (x0 - radius) * (x0 + radius)
    hole = u < 0.0
    d = np.sqrt(d2)
    f = np.sqrt(np.maximum(u * up, 0.0)) / radius
    f_u = f / np.where(hole, u, 1.0)  # F/u in the hole, 0 on the film
    q = d2 + f * f
    mixed = (-np.arctan(f / d) / (d * d2) - f * (2 * d2 + q) / (q * q * d2)
             - 2 * (dx * x0 * f / up - (dx * x + y * y) * f_u) / (q * q)
             + x * x0 * f_u * (d2 - f * f) / (up * q * q))
    return MU0 * m * np.where(hole, mixed, 0.0) / (2 * np.pi**2)
