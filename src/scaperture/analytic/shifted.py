"""In-plane B_z of a z dipole shifted off-center inside the circular aperture.

In the film plane z = z' = 0, with the source inside the aperture (u' < 0),
the aperture's Dirichlet kernel, 1/(4 pi |r - r'|) for an infinite
aperture, is G = arctan(F/D) / (2 pi^2 D), with D = |r - r'|,
F = sqrt(max(u u', 0)) / R and u = rho^2 - R^2: G vanishes on the film.
B_z = mu0 m (d_x dG/dx' + d_y dG/dy') takes eighth-order central
differences (B. Fornberg, Math. Comp. 51, 699 (1988)) of G's analytic
source gradient.  tests/analytic_oracles.py holds the 3-D kernel.
"""

from __future__ import annotations

import numpy as np

from scaperture.constants import MU0
from scaperture.geometry import ConfigurationError, SingularityError

# eighth-order central first-derivative weights for offsets 1h..4h
_C8 = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])
_REL_STEP = 1e-2  # differentiation step as a fraction of the safe scale


def _step_scale(p, x0, radius):
    """Safe differentiation scale at in-plane points p (..., 2): the distance
    to the dipole or to the edge ring, whichever is smaller."""
    ring = np.abs(np.hypot(p[..., 0], p[..., 1]) - radius)
    return np.minimum(np.hypot(p[..., 0] - x0, p[..., 1]), ring)


def _source_gradient(p, x0, radius):
    """(dG/dx', dG/dy') at in-plane points p (..., 2) from the source (x0, 0).

    dG/dq' = [(q - q') c + dF/dq' / (D^2 + F^2)] / (2 pi^2), where
    c = (arctan(F/D) / D + F / (D^2 + F^2)) / D^2, dF/dx' =
    -x0 sqrt(max(u/u', 0)) / R and dF/dy' = 0; all vanish on the film.
    """
    dx, dy = p[..., 0] - x0, p[..., 1]
    u = p[..., 0] * p[..., 0] + dy * dy - radius * radius
    up = x0 * x0 - radius * radius
    d2 = dx * dx + dy * dy
    d = np.sqrt(d2)
    f = np.sqrt(np.maximum(u * up, 0.0)) / radius
    df = -x0 * np.sqrt(np.maximum(u / up, 0.0)) / radius
    c = (np.arctan(f / d) / d + f / (d2 + f * f)) / d2
    return np.stack([dx * c + df / (d2 + f * f), dy * c], axis=-1) / (2 * np.pi**2)


def field_shifted_bz_plane(m: float, x0: float, x, y: float, radius: float) -> np.ndarray:
    """Bz (tesla) at in-plane points (x, y, 0) of a z-dipole of magnitude m
    at (x0, 0, 0), |x0| < R.  It is exactly 0 on the film."""
    if not abs(x0) < radius:
        raise ConfigurationError("dipole must sit strictly inside the aperture")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    p = np.stack([x, np.full_like(x, y)], axis=-1)
    scale = _step_scale(p, x0, radius)
    if np.any(scale == 0.0):
        raise SingularityError("field evaluation at the dipole or on the edge ring")
    h = _REL_STEP * scale
    lap = np.zeros(len(p))
    for axis in (0, 1):
        # every point's stencil (order +h, -h, +2h, -2h, ...) in one gradient call
        offsets = (np.arange(1, 5) * h[:, None])[..., None] * np.eye(2)[axis]
        pts = np.stack([p[:, None] + offsets, p[:, None] - offsets], axis=2)
        grads = _source_gradient(pts, x0, radius)[..., axis]
        der = np.zeros(len(p))
        for k in range(4):
            der += _C8[k] * (grads[:, k, 0] - grads[:, k, 1])
        lap += der / h
    return MU0 * m * lap
