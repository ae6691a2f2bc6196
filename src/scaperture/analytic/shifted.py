"""Field of a dipole shifted off-center inside the circular aperture.

Built by differentiating the aperture kernel: the source gradient is
analytic, the outer curl is taken with eighth-order central differences of
that gradient (weights as in B. Fornberg, Math. Comp. 51, 699 (1988)).
Both public functions evaluate one vectorized stencil, `_mixed_hessian`.
"""

from __future__ import annotations

import numpy as np

from scaperture.analytic.green import SingularityError, green_source_gradient
from scaperture.constants import MU0
from scaperture.geometry import ConfigurationError

# eighth-order central first-derivative weights for offsets 1h..4h
_C8 = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])
# sixth-order one-sided first-derivative weights for offsets 0..6
_ONESIDED6 = np.array([-49 / 20, 6, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6])
_REL_STEP = 1e-2  # differentiation step as a fraction of the safe scale


def _step_scale(r, x0, radius):
    """Safe differentiation scale: distance to the dipole and the edge ring.

    Vectorized over points (..., 3).  The distance to the dipole is taken
    with the same dot product np.linalg.norm uses for one point, so a batch
    gets the steps of single-point calls bit for bit.
    """
    rho = np.hypot(r[..., 0], r[..., 1])
    ring = np.hypot(rho - radius, r[..., 2])
    d = r - np.array([x0, 0.0, 0.0])
    src = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
    return np.minimum(src, ring), rho


def _mixed_hessian(x0, r, radius, axes=(0, 1, 2)):
    """Rows M[:, a, b] = d^2 G / d r_a d r'_b, a in `axes`, at source (x0, 0, 0).

    Points r (p, 3); returns (p, len(axes), 3).  Per axis, every point's
    stencil (order +h, -h, +2h, -2h, ...) goes into one kernel-gradient call.
    Outside the hole the film plane is a kink surface for z-stencils: off it
    the z step is capped at |z| / 5, on it (z = 0) the z row is one-sided,
    the limit from z > 0.
    """
    src = np.array([x0, 0.0, 0.0])
    scale, rho = _step_scale(r, x0, radius)
    if np.any(scale == 0.0):
        raise SingularityError("field evaluation at the dipole or on the edge ring")
    h = _REL_STEP * scale
    outside = rho > radius
    on_film = outside & (r[:, 2] == 0.0)
    mixed = np.empty((len(r), len(axes), 3))
    for row, axis in enumerate(axes):
        e = np.eye(3)[axis]
        central, ha = np.ones(len(r), dtype=bool), h
        if axis == 2:
            central = ~on_film
            ha = np.where(outside, np.minimum(h, np.abs(r[:, 2]) / 5.0), h)
            hf = h[on_film]
            pts = r[on_film, None] + (np.arange(7) * hf[:, None])[..., None] * e
            grads = green_source_gradient(pts, src, radius)
            mixed[on_film, row] = _ONESIDED6 @ grads / hf[:, None]
        hc = ha[central]
        offsets = (np.arange(1, 5) * hc[:, None])[..., None] * e
        pts = np.stack([r[central, None] + offsets, r[central, None] - offsets], axis=2)
        grads = green_source_gradient(pts.reshape(-1, 8, 3), src, radius)
        der = np.zeros((len(hc), 3))
        for k in range(4):
            der += _C8[k] * (grads[:, 2 * k] - grads[:, 2 * k + 1])
        mixed[central, row] = der / hc[:, None]
    return mixed


def field_shifted(moment, x0: float, r, radius: float) -> np.ndarray:
    """B (tesla) at points r (..., 3) from a dipole at (x0, 0, 0) inside the aperture.

    Reduces to the centered closed form at x0 = 0.  On-film points (z = 0,
    rho > R) are evaluated as the limit from z > 0.
    """
    if not abs(x0) < radius:
        raise ConfigurationError("dipole must sit strictly inside the aperture")
    moment = np.asarray(moment, dtype=float)
    r = np.asarray(r, dtype=float)
    mixed = _mixed_hessian(x0, r.reshape(-1, 3), radius)
    field = MU0 * (moment * np.trace(mixed, axis1=1, axis2=2)[:, None] - moment @ mixed)
    return field.reshape(r.shape)


def field_shifted_bz_plane(m: float, x0: float, x, y: float, radius: float) -> np.ndarray:
    """Bz (tesla) of a z-dipole of magnitude m at in-plane points (x, y, 0).

    Only the in-plane mixed partials enter, so no z stencil is built.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.stack([x, np.full_like(x, y), np.zeros_like(x)], axis=-1)
    mixed = _mixed_hessian(x0, r, radius, axes=(0, 1))
    return MU0 * m * (mixed[:, 0, 0] + mixed[:, 1, 1])
