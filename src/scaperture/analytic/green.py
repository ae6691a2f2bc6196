"""Source gradient of the Dirichlet kernel of an infinite film with a
circular aperture, which the shifted dipole's field is built from.

The kernel is stored normalized (one factor of the vacuum permittivity
cancelled against the vector-potential prefactor), so values carry units of
1/length and reduce to the Coulomb form 1/(4 pi |r - r'|) for an infinitely
large aperture.

The closed form is built from two generalized distances D+- and two
auxiliary lengths F+-, combined with a sign factor that selects the
screened or transmitted branch.  It is derived for field and source points
on the same side of the film plane (or in it) and is extended to all z by
the mirror symmetry (z, z') -> (-z, -z'); strictly opposite-side
configurations evaluate the same closed form and are exact only in limits.
"""

from __future__ import annotations

import numpy as np

SQRT2 = np.sqrt(2.0)


class SingularityError(ValueError):
    """Evaluation requested at a singular point of a closed form."""


def _mirror_normalize(r, r_src):
    """Flip both z coordinates where z + z' < 0 (an exact symmetry)."""
    flip = (r[..., 2] + r_src[..., 2]) < 0
    sign = np.where(flip, -1.0, 1.0)
    r = r.copy()
    r_src = np.broadcast_to(r_src, r.shape).copy()
    r[..., 2] *= sign
    r_src[..., 2] *= sign
    return r, r_src, sign


def _parts(r, r_src, radius):
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    xp, yp, zp = r_src[..., 0], r_src[..., 1], r_src[..., 2]
    R2 = radius * radius
    rho2 = x * x + y * y
    rhop2 = xp * xp + yp * yp
    u = rho2 + z * z - R2
    up = rhop2 + zp * zp - R2
    # cancellation-free forms of sqrt([z^2+(rho+R)^2][z^2+(rho-R)^2])
    s = np.sqrt(u * u + 4 * R2 * z * z)
    sp = np.sqrt(up * up + 4 * R2 * zp * zp)
    sig_minus = np.maximum(u * up + 4 * R2 * z * zp + s * sp, 0.0)
    sig_plus = np.maximum(u * up - 4 * R2 * z * zp + s * sp, 0.0)
    f_minus = np.sqrt(sig_minus) / (SQRT2 * radius)
    f_plus = np.sqrt(sig_plus) / (SQRT2 * radius)
    dx, dy = x - xp, y - yp
    d_minus = np.sqrt(dx * dx + dy * dy + (z - zp) ** 2)
    d_plus = np.sqrt(dx * dx + dy * dy + (z + zp) ** 2)
    return u, up, s, sp, sig_minus, sig_plus, f_minus, f_plus, d_minus, d_plus


def _epsilon(u, up, z, zp):
    """Branch sign; in-plane ties resolve to the transmitted branch only
    when both points lie strictly inside the aperture."""
    arg = z * up + zp * u
    return np.where(arg != 0.0, np.sign(arg), np.where((u < 0) & (up < 0), -1.0, 1.0))


def green_source_gradient(r, r_src, radius: float) -> np.ndarray:
    """Analytic gradient of the normalized kernel with respect to the source.

    Field points (..., 3), one source point; returns shape (..., 3).
    Partial derivatives of F+- and D+- are explicit algebraic forms; where
    F vanishes (field point on the superconductor with an in-plane source)
    the two branches cancel and the indeterminate pieces are zeroed.
    """
    r = np.asarray(r, dtype=float)
    r_src = np.asarray(r_src, dtype=float)
    scalar = r.ndim == 1
    r = np.atleast_2d(r)

    rn, rpn, zsign = _mirror_normalize(r, r_src)
    x, y, z = rn[..., 0], rn[..., 1], rn[..., 2]
    xp, yp, zp = rpn[..., 0], rpn[..., 1], rpn[..., 2]
    R2 = radius * radius
    (u, up, s, sp, sig_m, sig_p, f_m, f_p, d_m, d_p) = _parts(rn, rpn, radius)
    eps = _epsilon(u, up, z, zp)

    dx, dy = x - xp, y - yp
    grad_dm = np.stack([-dx / d_m, -dy / d_m, -(z - zp) / d_m], axis=-1)
    grad_dp = np.stack([-dx / d_p, -dy / d_p, (z + zp) / d_p], axis=-1)

    # d(sigma)/dq' with sigma = u u' -+ 4 R^2 z z' + S S'
    common = u + up * s / sp
    zcom = 2 * zp * u + 2 * zp * (up + 2 * R2) * s / sp
    grad_sig_m = np.stack([2 * xp * common, 2 * yp * common, zcom + 4 * R2 * z], axis=-1)
    grad_sig_p = np.stack([2 * xp * common, 2 * yp * common, zcom - 4 * R2 * z], axis=-1)

    def grad_f(sig, grad_sig, f):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = grad_sig / (2 * SQRT2 * radius * np.sqrt(sig))[..., None]
        return np.where(sig[..., None] > 0.0, out, 0.0)

    gf_m = grad_f(sig_m, grad_sig_m, f_m)
    gf_p = grad_f(sig_p, grad_sig_p, f_p)

    def grad_term(f, d, gf, gd, c):
        pref = 1.0 + c * (2 / np.pi) * np.arctan(f / d)
        t1 = -gd * (pref / (d * d))[..., None]
        t2 = (c * (2 / np.pi))[..., None] * (gf * d[..., None] - f[..., None] * gd)
        t2 = t2 / (d * (d * d + f * f))[..., None]
        return t1 + t2

    one = np.ones_like(d_m)
    grad = (grad_term(f_m, d_m, gf_m, grad_dm, one)
            - grad_term(f_p, d_p, gf_p, grad_dp, eps)) / (8 * np.pi)
    grad[..., 2] *= zsign
    return grad[0] if scalar else grad
