"""Closed-form field of a dipole centered in a circular aperture.

The superconductor's entire effect enters through a radial scaling function
C(r) applied to the in-plane components of the position vector; the field
follows from the free-dipole expression with that modified direction vector
and its exact partial derivatives.
"""

from __future__ import annotations

import numpy as np

from scaperture.constants import MU0
from scaperture.geometry import SingularityError

SQRT2 = np.sqrt(2.0)


def _alpha_parts(r, radius):
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    R2 = radius * radius
    rho2 = x * x + y * y
    r2 = rho2 + z * z
    u = r2 - R2
    # cancellation-free form of sqrt([z^2+(rho+R)^2][z^2+(rho-R)^2])
    s = np.sqrt(u * u + 4 * R2 * z * z)
    on_sigma = (z == 0.0) & (rho2 >= R2)
    t = np.where(on_sigma, 0.0, np.maximum(R2 - r2 + s, 0.0))
    rr = np.sqrt(r2)
    alpha = np.sqrt(t) / (SQRT2 * rr)
    c = (2 / np.pi) * (np.arctan(alpha) + alpha / (1 + alpha * alpha))
    return rho2, r2, rr, s, t, alpha, c


def _c_and_partials(r, radius):
    """C and its Cartesian gradient from the explicit partials of alpha.

    On the superconductor plane (where the auxiliary length t hits zero),
    the one-sided limits of all partials vanish and are returned as 0.
    """
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    R2 = radius * radius
    rho2, r2, rr, s, t, alpha, c = _alpha_parts(r, radius)

    # dP/da for P = (r^2 + R^2)^2 - 4 rho^2 R^2
    px = 4 * x * (r2 - R2)
    py = 4 * y * (r2 - R2)
    pz = 4 * z * (r2 + R2)
    sx, sy, sz = px / (2 * s), py / (2 * s), pz / (2 * s)
    tx, ty, tz = -2 * x + sx, -2 * y + sy, -2 * z + sz

    with np.errstate(divide="ignore", invalid="ignore"):
        sqrt_t = np.sqrt(t)
        ax = tx / (2 * SQRT2 * rr * sqrt_t) - sqrt_t * x / (SQRT2 * rr**3)
        ay = ty / (2 * SQRT2 * rr * sqrt_t) - sqrt_t * y / (SQRT2 * rr**3)
        az = tz / (2 * SQRT2 * rr * sqrt_t) - sqrt_t * z / (SQRT2 * rr**3)
    on_sigma = t == 0.0
    ax = np.where(on_sigma, 0.0, ax)
    ay = np.where(on_sigma, 0.0, ay)
    az = np.where(on_sigma, 0.0, az)

    dc_dalpha = (4 / np.pi) / (1 + alpha * alpha) ** 2
    return c, dc_dalpha * ax, dc_dalpha * ay, dc_dalpha * az


_BLOCK = 1024  # points per block: a block's ~30 temporaries are freed before the next


def field_centered(moment, r, radius: float) -> np.ndarray:
    """Magnetic field (tesla) of a point dipole at the aperture center.

    Derivative terms are evaluated from the closed-form partials of alpha.
    The edge ring (rho = R, z = 0) is excluded: the field diverges there.
    Points are evaluated `_BLOCK` at a time, each independently of the rest.
    """
    moment, r = np.asarray(moment, dtype=float), np.asarray(r, dtype=float)
    points = r.reshape(-1, r.shape[-1])
    field = np.empty(points.shape)
    for a in range(0, len(points), _BLOCK):
        field[a:a + _BLOCK] = _field_block(moment, points[a:a + _BLOCK], radius)
    return field.reshape(r.shape)


def _field_block(moment, r, radius: float) -> np.ndarray:
    """`field_centered` at the points r (P, 3), all at once."""
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    rr = np.linalg.norm(r, axis=-1)
    if np.any(rr == 0.0):
        raise SingularityError("field evaluation at the origin")
    on_edge = (z == 0.0) & np.isclose(np.hypot(x, y), radius, rtol=1e-12, atol=0.0)
    if np.any(on_edge):
        raise SingularityError("field diverges on the aperture edge ring")

    c, cx, cy, cz = _c_and_partials(r, radius)
    n = np.stack([c * x, c * y, z], axis=-1)

    # jacobian J[a, b] = d n_b / d r_a
    grad_c = np.stack([cx, cy, cz], axis=-1)
    jac = np.zeros(r.shape[:-1] + (3, 3))
    jac[..., :, 0] = grad_c * x[..., None]
    jac[..., 0, 0] += c
    jac[..., :, 1] = grad_c * y[..., None]
    jac[..., 1, 1] += c
    jac[..., 2, 2] = 1.0
    div_n = jac[..., 0, 0] + jac[..., 1, 1] + jac[..., 2, 2]

    m_dot_grad_n = np.einsum("b,...ba->...a", moment, jac)
    rhat = r / rr[..., None]
    nhat = n / rr[..., None]
    m_dot_rhat = rhat @ moment
    r_dot_nhat = np.einsum("...a,...a->...", rhat, nhat)
    return (MU0 / (4 * np.pi * rr**3))[..., None] * (
        3 * m_dot_rhat[..., None] * nhat
        - m_dot_grad_n
        + moment * (div_n - 3 * r_dot_nhat)[..., None]
    )
