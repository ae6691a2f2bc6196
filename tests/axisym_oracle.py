"""Axisymmetric reference for the centred dipole in a circular hole, at finite
Pearl length, for tests.

A z dipole at the centre of a hole of radius R in a thin film that spans
R < rho < F carries an azimuthal sheet current K(rho).  With zero fluxoid the
thin-film London relation reads

    mu0 Lambda K(rho) + A_K(rho) = -A_dip(rho) = -mu0 m / (4 pi rho^2),

where A_K is the vector potential of the current itself.  K is piecewise
constant on panels over [R, F], graded from the hole's edge, and the relation
is collocated at the panel midpoints.  A_K and the field read out inside the
hole use the field of a current ring (Jackson, Classical Electrodynamics,
section 5.5); the ring potential's log singularity is subtracted and its
integral over a panel added back exactly (E. H. Brandt and J. R. Clem,
PRB 69, 184509 (2004) treat the same ring kernel).
"""

import numpy as np
from scipy.special import ellipe, ellipkm1

from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MU0
from scaperture.geometry import Circle, FilmSpec

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(8)


def panel_edges(radius, film_radius, first=1e-9, growth=1.06) -> np.ndarray:
    """Edges R = e_0 < ... < e_N = F of panels growing by `growth` from a first
    panel of about `first` (scaled down so that the last edge lands on F)."""
    count = int(np.ceil(np.log1p((film_radius - radius) * (growth - 1) / first) / np.log(growth)))
    steps = growth ** np.arange(count + 1) - 1.0
    return radius + (film_radius - radius) * steps / steps[-1]


def _quadrature(edges):
    """Panel midpoints (N,), and Gauss-Legendre nodes and weights (N, 8) on each panel."""
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    return mid, mid[:, None] + half[:, None] * _NODES, half[:, None] * _WEIGHTS


def _modulus(rho, a):
    """k^2 = 4 a rho / (a + rho)^2 and 1 - k^2 = ((a - rho) / (a + rho))^2."""
    return 4 * a * rho / (a + rho) ** 2, ((a - rho) / (a + rho)) ** 2


def _ring_potential(rho, a):
    """A_phi / mu0 at radius rho in the plane of a unit current ring of radius a."""
    k2, k1 = _modulus(rho, a)
    k = np.sqrt(k2)
    return np.sqrt(a / rho) * ((1 - k2 / 2) * ellipkm1(k1) - ellipe(k2)) / (np.pi * k)


def _ring_field(rho, a):
    """B_z / mu0 at radius rho in the plane of a unit current ring of radius a."""
    k2, k1 = _modulus(rho, a)
    return (ellipkm1(k1) + (a * a - rho * rho) / (a - rho) ** 2 * ellipe(k2)) / (2 * np.pi * (a + rho))


def _log_integral(t0, t1):
    """Exact integral of ln|t| over [t0, t1]."""
    def f(t):
        return t * np.log(np.abs(t)) - t
    return f(t1) - f(t0)


def sheet_current(radius, film_radius, pearl_length, moment=DEFAULT_MOMENT, **grading):
    """Panel edges and the sheet current on each panel, A/m."""
    edges = panel_edges(radius, film_radius, **grading)
    mid, a, w = _quadrature(edges)
    rho = mid[:, None, None]
    smooth = _ring_potential(rho, a) + np.log(np.abs(a - rho)) / (2 * np.pi)
    system = (smooth * w).sum(axis=-1)
    system -= _log_integral(edges[:-1] - mid[:, None], edges[1:] - mid[:, None]) / (2 * np.pi)
    system[np.diag_indices_from(system)] += pearl_length
    current = np.linalg.solve(system, -moment / (4 * np.pi * mid**2))
    return edges, current


def reference_bz(radius, film_radius, pearl_length, rho, moment=DEFAULT_MOMENT, **grading):
    """B_z (tesla) at in-plane radii `rho` inside the hole."""
    edges, current = sheet_current(radius, film_radius, pearl_length, moment, **grading)
    _, a, w = _quadrature(edges)
    rho = np.asarray(rho, dtype=float)
    ring = (_ring_field(rho[..., None, None], a) * w).sum(axis=-1)
    return MU0 * (ring @ current - moment / (4 * np.pi * rho**3))


def centred_sweep_reference(radii, d, film=FilmSpec()) -> np.ndarray:
    """`reference_bz` at each radius's probe of a centred sweep, d inside the
    edge on y = EVAL_Y, in a film of `film`'s material and extent."""
    return np.array([reference_bz(r, film.half_extents(Circle(r))[0], film.pearl_length,
                                  np.hypot(r - d, EVAL_Y)) for r in radii])
