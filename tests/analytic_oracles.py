"""Closed forms that no command calls, for tests.

The Dirichlet kernel's value (`green_circular`), the centred dipole's scaled
direction vector (`n_vector`) and vector potential, the free dipole, the
in-plane fields of in-plane dipoles (`field_inplane_xy`) and the
leading-order edge fields check the closed forms the commands do call
(`field_centered`, `field_shifted`, `field_inplane`) against their limits,
symmetries and derivatives.  They share the library's private building
blocks, so a test checks the same algebra the library runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.analytic.centered import _alpha_parts
from scaperture.analytic.green import SingularityError, _epsilon, _mirror_normalize, _parts
from scaperture.constants import MU0


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
