import numpy as np
import pytest

from scaperture.analytic.inplane import field_inplane
from scaperture.constants import MU0
from scaperture.geometry import SingularityError

from analytic_oracles import edge_asymptote, free_dipole_field


def test_centered_power_law_ratio():
    a1 = edge_asymptote("centered", 1.0, 0.01, 10.0)
    a2 = edge_asymptote("centered", 1.0, 0.01, 20.0)
    assert a2 / a1 == pytest.approx(2.0**-2.5, rel=1e-12)


def test_shifted_power_law_ratio():
    a1 = edge_asymptote("shifted", 1.0, 0.01, 10.0)
    a2 = edge_asymptote("shifted", 1.0, 0.01, 20.0)
    assert a2 / a1 == pytest.approx(0.25, rel=1e-12)


def test_loglog_slopes_exact():
    radii = np.geomspace(10.0, 1e4, 20)
    for kind, want in (("centered", -2.5), ("shifted", -2.0)):
        vals = np.array([abs(edge_asymptote(kind, 1.0, 0.01, r)) for r in radii])
        slope = np.polyfit(np.log(radii), np.log(vals), 1)[0]
        assert slope == pytest.approx(want, abs=1e-9)


def test_centered_matches_exact_form_near_edge():
    R = 1.0
    d = 1e-4 * R
    exact = field_inplane(1.0, R - d, R)
    approx = edge_asymptote("centered", 1.0, d, R)
    assert approx == pytest.approx(exact, rel=1e-2)


def test_domain_error():
    with pytest.raises(ValueError):
        edge_asymptote("centered", 1.0, 2.0, 1.0)


def test_free_dipole_on_axis_doubling():
    b = free_dipole_field([0, 0, 1.0], [0.0, 0.0, 2.0])
    assert b[2] == pytest.approx(MU0 / (2 * np.pi * 8.0), rel=1e-12)


def test_free_dipole_equatorial():
    b = free_dipole_field([0, 0, 1.0], [3.0, 0.0, 0.0])
    assert b[2] == pytest.approx(-MU0 / (4 * np.pi * 27.0), rel=1e-12)


def test_free_dipole_cubic_decay():
    direction = np.array([0.3, -0.5, 0.81])
    direction /= np.linalg.norm(direction)
    dist = np.geomspace(1.0, 100.0, 10)
    mags = [np.linalg.norm(free_dipole_field([0.1, 0.2, 0.9], t * direction)) for t in dist]
    slope = np.polyfit(np.log(dist), np.log(mags), 1)[0]
    assert slope == pytest.approx(-3.0, abs=1e-10)


def test_free_dipole_zero_vector_rejected():
    with pytest.raises(SingularityError):
        free_dipole_field([0, 0, 1.0], [0.0, 0.0, 0.0])
