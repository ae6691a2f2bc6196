"""Closed forms that no command calls, for tests.

The 3-D Dirichlet kernel of a film with a circular aperture: its value
(`green_circular`), its analytic source gradient (`green_source_gradient`)
and the shifted dipole's field at any point (`field_shifted`), of which the
library's `field_shifted_bz_plane` is the in-plane case.  Beside them, the
centred dipole's scaled direction vector (`n_vector`) and vector potential,
the free dipole, the in-plane fields of in-plane dipoles
(`field_inplane_xy`) and the leading-order edge fields.  They check the
closed forms the commands do call (`field_centered`,
`field_shifted_bz_plane`, `field_inplane`) against their limits,
symmetries and derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.analytic.centered import SQRT2, _alpha_parts
from scaperture.constants import MU0
from scaperture.geometry import ConfigurationError, SingularityError

# The kernel is stored normalized (one factor of the vacuum permittivity
# cancelled against the vector-potential prefactor), so values carry units of
# 1/length and reduce to the Coulomb form 1/(4 pi |r - r'|) for an infinitely
# large aperture.  The closed form is built from two generalized distances
# D+- and two auxiliary lengths F+-, combined with a sign factor that selects
# the screened or transmitted branch.  It is derived for field and source
# points on the same side of the film plane (or in it) and is extended to all
# z by the mirror symmetry (z, z') -> (-z, -z'); strictly opposite-side
# configurations evaluate the same closed form and are exact only in limits.


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


@dataclass(frozen=True)
class GreenEval:
    """Kernel value (1/length) with its building blocks."""

    value: np.ndarray
    f_plus: np.ndarray
    f_minus: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    epsilon_sign: np.ndarray


def green_circular(r, r_src, radius: float) -> GreenEval:
    """Normalized Dirichlet kernel for the circular aperture of given radius.

    Accepts field points of shape (..., 3) and a single source point.
    Vanishes identically for field points on the superconductor and is
    symmetric under exchange of the two arguments.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    r = np.asarray(r, dtype=float)
    r_src = np.asarray(r_src, dtype=float)
    scalar = r.ndim == 1
    r = np.atleast_2d(r)
    if np.any(np.linalg.norm(r - r_src, axis=-1) == 0.0):
        raise SingularityError("kernel is singular at coincident points")

    rn, rpn, _ = _mirror_normalize(r, r_src)
    u, up, _, _, _, _, f_minus, f_plus, d_minus, d_plus = _parts(rn, rpn, radius)
    eps = _epsilon(u, up, rn[..., 2], rpn[..., 2])
    term_minus = (1.0 + (2 / np.pi) * np.arctan(f_minus / d_minus)) / d_minus
    term_plus = (1.0 + eps * (2 / np.pi) * np.arctan(f_plus / d_plus)) / d_plus
    value = (term_minus - term_plus) / (8 * np.pi)
    idx = 0 if scalar else ...
    return GreenEval(
        value=value[idx],
        f_plus=f_plus[idx],
        f_minus=f_minus[idx],
        d_plus=d_plus[idx],
        d_minus=d_minus[idx],
        epsilon_sign=eps[idx],
    )


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

    def grad_f(sig, grad_sig):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = grad_sig / (2 * SQRT2 * radius * np.sqrt(sig))[..., None]
        return np.where(sig[..., None] > 0.0, out, 0.0)

    def grad_term(f, d, gf, gd, c):
        pref = 1.0 + c * (2 / np.pi) * np.arctan(f / d)
        t1 = -gd * (pref / (d * d))[..., None]
        t2 = (c * (2 / np.pi))[..., None] * (gf * d[..., None] - f[..., None] * gd)
        t2 = t2 / (d * (d * d + f * f))[..., None]
        return t1 + t2

    grad = (grad_term(f_m, d_m, grad_f(sig_m, grad_sig_m), grad_dm, np.ones_like(d_m))
            - grad_term(f_p, d_p, grad_f(sig_p, grad_sig_p), grad_dp, eps)) / (8 * np.pi)
    grad[..., 2] *= zsign
    return grad[0] if scalar else grad


# eighth-order central and sixth-order one-sided first-derivative weights
# (B. Fornberg, Math. Comp. 51, 699 (1988)), the step a fraction of the
# distance to the dipole or to the edge ring
_C8 = np.array([4 / 5, -1 / 5, 4 / 105, -1 / 280])
_ONESIDED6 = np.array([-49 / 20, 6, -15 / 2, 20 / 3, -15 / 4, 6 / 5, -1 / 6])
_REL_STEP = 1e-2


def _mixed_hessian(x0, r, radius):
    """M[:, a, b] = d^2 G / d r_a d r'_b at source (x0, 0, 0), points r (p, 3).

    Per axis, every point's stencil (order +h, -h, +2h, -2h, ...) goes into
    one kernel-gradient call.  Outside the hole the film plane is a kink
    surface for z-stencils: off it the z step is capped at |z| / 5, on it
    (z = 0) the z row is one-sided, the limit from z > 0.
    """
    src = np.array([x0, 0.0, 0.0])
    rho = np.hypot(r[:, 0], r[:, 1])
    scale = np.minimum(np.linalg.norm(r - src, axis=1), np.hypot(rho - radius, r[:, 2]))
    if np.any(scale == 0.0):
        raise SingularityError("field evaluation at the dipole or on the edge ring")
    h = _REL_STEP * scale
    outside = rho > radius
    on_film = outside & (r[:, 2] == 0.0)
    mixed = np.empty((len(r), 3, 3))
    for axis in range(3):
        e = np.eye(3)[axis]
        central, ha = np.ones(len(r), dtype=bool), h
        if axis == 2:
            central = ~on_film
            ha = np.where(outside, np.minimum(h, np.abs(r[:, 2]) / 5.0), h)
            hf = h[on_film]
            pts = r[on_film, None] + (np.arange(7) * hf[:, None])[..., None] * e
            grads = green_source_gradient(pts, src, radius)
            mixed[on_film, axis] = _ONESIDED6 @ grads / hf[:, None]
        hc = ha[central]
        offsets = (np.arange(1, 5) * hc[:, None])[..., None] * e
        pts = np.stack([r[central, None] + offsets, r[central, None] - offsets], axis=2)
        grads = green_source_gradient(pts.reshape(-1, 8, 3), src, radius)
        der = np.zeros((len(hc), 3))
        for k in range(4):
            der += _C8[k] * (grads[:, 2 * k] - grads[:, 2 * k + 1])
        mixed[central, axis] = der / hc[:, None]
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


@dataclass(frozen=True)
class NVector:
    n: np.ndarray        # scaled direction vector, same shape as r
    c: np.ndarray        # radial scaling factor, dimensionless
    alpha: np.ndarray    # auxiliary ratio, dimensionless


def n_vector(r, radius: float) -> NVector:
    """Scaled direction vector n, its coefficient C and the ratio alpha.

    n = C * (x, y, 0) + (0, 0, z); on the superconductor alpha = 0 so n
    vanishes, and for an infinitely large aperture C -> 1 so n -> r.
    """
    r = np.asarray(r, dtype=float)
    if np.any(np.linalg.norm(np.atleast_2d(r), axis=-1) == 0.0):
        raise SingularityError("n is undefined at the origin")
    *_, alpha, c = _alpha_parts(r, radius)
    n = np.stack([c * r[..., 0], c * r[..., 1], r[..., 2]], axis=-1)
    return NVector(n=n, c=c, alpha=alpha)


def vector_potential_centered(moment, r, radius: float) -> np.ndarray:
    """Vector potential (tesla meter) of the centered dipole, mu0/(4 pi) m x n / r^2."""
    moment = np.asarray(moment, dtype=float)
    r = np.asarray(r, dtype=float)
    nv = n_vector(r, radius)
    rr = np.linalg.norm(np.atleast_2d(r), axis=-1).reshape(r.shape[:-1])
    return MU0 / (4 * np.pi) * np.cross(moment, nv.n) / (rr**3)[..., None]


def free_dipole_field(moment, r_rel) -> np.ndarray:
    """B (tesla) at displacement r_rel from a dipole with the given moment."""
    moment = np.asarray(moment, dtype=float)
    r = np.asarray(r_rel, dtype=float)
    scalar = r.ndim == 1
    r = np.atleast_2d(r)
    rr = np.linalg.norm(r, axis=-1)
    if np.any(rr == 0.0):
        raise SingularityError("free dipole field diverges at the source")
    rhat = r / rr[..., None]
    field = (MU0 / (4 * np.pi * rr**3))[..., None] * (
        3 * (rhat @ moment)[..., None] * rhat - moment
    )
    return field[0] if scalar else field


def field_inplane_xy(orientation: str, m: float, x, radius: float) -> np.ndarray:
    """B (tesla, 3-vector per point) at in-plane points (x, 0, 0), x > 0, of
    a dipole of magnitude `m` along `orientation`, "y" or "x", at the centre.

    A zero-thickness film cannot block parallel field lines, so both recover
    the free-dipole value beyond the edge.  At x = R the "y" form diverges
    and returns -inf.
    """
    if orientation not in ("y", "x"):
        raise ValueError("orientation must be 'y' or 'x'")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    q = x / radius
    inside = q < 1.0
    arccos = np.arccos(np.minimum(q, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        root = np.sqrt(np.maximum(1 - q * q, 0.0))
        if orientation == "y":
            bracket = np.where(inside, -(2 / np.pi) * (2 * arccos + 2 * q / root - np.pi / 2), 1.0)
            bracket = np.where(q == 1.0, -np.inf, bracket)
        else:
            bracket = np.where(inside, (2 / np.pi) * (arccos + q * root + np.pi / 2), 1.0)
    out = np.zeros(x.shape + (3,))
    out[:, {"y": 1, "x": 0}[orientation]] = MU0 * m / (4 * np.pi * x**3) * bracket
    return out[0] if scalar else out


KINDS = ("centered", "shifted")


def edge_asymptote(kind: str, m: float, d: float, radius: float) -> float:
    """Leading-order Bz (tesla) at distance d inside the aperture edge.

    centered: dipole at the center, probe at rho = R - d; scales as
    R^(-5/2).  shifted: dipole at distance d from the opposite edge, probe
    at x = R - d; scales as R^(-2).  The shifted coefficient is quoted
    against the probe separation L = 2(R - d): B = -mu0 m / (4 pi^2 d L^2),
    whose leading term in R is returned.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    if not 0 < d < radius:
        raise ValueError("requires 0 < d < R")
    if kind == "centered":
        return -MU0 * m / (np.sqrt(2.0) * np.pi**2 * np.sqrt(d) * radius**2.5)
    return -MU0 * m / (16 * np.pi**2 * d * radius**2)
