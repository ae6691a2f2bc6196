"""Field of a dipole shifted off-center inside the circular aperture.

Built by differentiating the aperture kernel: the source gradient is
analytic, the outer curl is taken with eighth-order central differences of
that gradient.  A fully finite-difference path over plain kernel values is
kept as an independent cross-check.
"""

from __future__ import annotations

import numpy as np

from scaperture.analytic.green import SingularityError, green_source_gradient
from scaperture.constants import MU0
from scaperture.geometry import ConfigurationError

# eighth-order central first-derivative weights for offsets 1h..4h
_C8 = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])
_ONESIDED6 = {
    # sixth-order one-sided first-derivative stencil, offsets 0..6
    "coef": np.array([-49 / 20, 6, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6]),
}


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


def _mixed_hessian(x0, r, radius, rel_step):
    """M[a, b] = d^2 G / d r_a d r'_b at source (x0, 0, 0)."""
    r = np.asarray(r, dtype=float)
    src = np.array([x0, 0.0, 0.0])
    scale, rho = _step_scale(r, x0, radius)
    if scale == 0.0:
        raise SingularityError("field evaluation at the dipole or on the edge ring")
    h = rel_step * scale
    mixed = np.zeros((3, 3))
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = 1.0
        ha = h
        one_sided = False
        if axis == 2 and rho > radius:
            # the film plane is a kink surface for z-stencils outside the hole
            if r[2] == 0.0:
                one_sided = True
                ha = h
            else:
                ha = min(h, abs(r[2]) / 5.0)
        if one_sided:
            pts = np.array([r + k * ha * e for k in range(7)])
            grads = green_source_gradient(pts, src, radius)
            mixed[axis] = _ONESIDED6["coef"] @ grads / ha
        else:
            pts = []
            for k in (1, 2, 3, 4):
                pts.append(r + k * ha * e)
                pts.append(r - k * ha * e)
            grads = green_source_gradient(np.array(pts), src, radius)
            der = np.zeros(3)
            for i in range(4):
                der += _C8[i] * (grads[2 * i] - grads[2 * i + 1])
            mixed[axis] = der / ha
    return mixed


def field_shifted(moment, x0: float, r, radius: float, rel_step: float = 1e-2) -> np.ndarray:
    """B (tesla) at r from a dipole at (x0, 0, 0) inside the aperture.

    Reduces to the centered closed form at x0 = 0.  On-film points (z = 0,
    rho > R) are evaluated as the limit from z > 0.
    """
    if not abs(x0) < radius:
        raise ConfigurationError("dipole must sit strictly inside the aperture")
    moment = np.asarray(moment, dtype=float)
    r = np.asarray(r, dtype=float)
    mixed = _mixed_hessian(x0, r, radius, rel_step)
    return MU0 * (moment * np.trace(mixed) - moment @ mixed)


def field_shifted_bz_plane(m: float, x0: float, x, y: float, radius: float,
                           rel_step: float = 1e-2) -> np.ndarray:
    """Bz (tesla) of a z-dipole of magnitude m at in-plane points (x, y, 0).

    Only the in-plane mixed partials enter, so the whole evaluation stays in
    the film plane.  Vectorized over x: the eighth-order stencils of every
    point along both in-plane axes go into one kernel-gradient call.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = np.stack([x, np.full_like(x, y), np.zeros_like(x)], axis=-1)
    scale, _ = _step_scale(r, x0, radius)
    if np.any(scale == 0.0):
        raise SingularityError("field evaluation at the dipole or on the edge ring")
    h = rel_step * scale
    # offsets[p, axis, k - 1] = k h_p along the axis; stencil order +h, -h, +2h, -2h, ...
    offsets = (np.arange(1, 5) * h[:, None])[:, None, :, None] * np.eye(3)[None, :2, None, :]
    r = r[:, None, None, :]
    pts = np.stack([r + offsets, r - offsets], axis=3).reshape(len(x), 2, 8, 3)
    grads = green_source_gradient(pts, np.array([x0, 0.0, 0.0]), radius)
    der = np.zeros((len(x), 2, 3))
    for k in range(4):
        der += _C8[k] * (grads[:, :, 2 * k] - grads[:, :, 2 * k + 1])
    acc = np.zeros(len(x))
    for axis in (0, 1):
        acc += der[:, axis, axis] / h
    return MU0 * m * acc
