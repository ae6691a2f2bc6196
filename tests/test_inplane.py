import numpy as np
import pytest

from scaperture.analytic.centered import field_centered
from scaperture.analytic.inplane import field_inplane
from scaperture.constants import MU0

from analytic_oracles import field_inplane_xy

R = 1.0
M = 1.0


def test_z_dipole_zero_outside():
    b = field_inplane(M, 1.5 * R, R)
    assert b == 0.0


def test_z_dipole_bracket_at_half_radius():
    # high-precision evaluation of the bracket at rho = R/2:
    # arccos(1/2) + (1/2)(1 + 1/4)/sqrt(3/4)
    bracket = np.arccos(0.5) + 0.5 * 1.25 / np.sqrt(0.75)
    assert bracket == pytest.approx(1.7688853876836302, rel=1e-12)
    b = field_inplane(M, 0.5, R)
    want = -bracket * MU0 * M / (2 * np.pi**2 * 0.5**3)
    assert b == pytest.approx(want, rel=1e-12)


def test_z_dipole_free_limit_small_rho():
    rho = 1e-4
    b = field_inplane(M, rho, R)
    assert b == pytest.approx(-MU0 * M / (4 * np.pi * rho**3), rel=1e-3)


def test_y_dipole_divergent_at_edge():
    b = field_inplane_xy("y", M, R, R)
    assert b[1] == -np.inf


def test_xy_dipoles_free_beyond_edge():
    for ori, axis in (("y", 1), ("x", 0)):
        b = field_inplane_xy(ori, M, 2.0, R)
        assert b[axis] == pytest.approx(MU0 * M / (4 * np.pi * 2.0**3), rel=1e-12)


def test_x_dipole_continuous_at_edge():
    inside = field_inplane_xy("x", M, R * (1 - 1e-9), R)
    outside = field_inplane_xy("x", M, R * (1 + 1e-9), R)
    assert inside[0] == pytest.approx(outside[0], rel=1e-4)


def test_consistency_with_general_formula():
    # the general centered field restricted to the plane must reproduce all
    # three closed in-plane forms
    for ori, mvec in (("z", [0, 0, M]), ("y", [0, M, 0]), ("x", [M, 0, 0])):
        for x in (0.2, 0.5, 0.85, 1.3, 3.0):
            if ori == "z":
                want = np.array([0.0, 0.0, field_inplane(M, x, R)])
            else:
                want = field_inplane_xy(ori, M, x, R)
            got = field_centered(mvec, [x, 0.0, 0.0], R)
            assert np.allclose(got, want, rtol=1e-8, atol=1e-20), (ori, x)


def test_rejects_nonpositive_x():
    with pytest.raises(Exception):
        field_inplane(M, 0.0, R)
