import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from scaperture.analytic.centered import field_centered
from scaperture.analytic.inplane import field_inplane
from scaperture.analytic.shifted import field_shifted_bz_plane
from scaperture.constants import MU0
from scaperture.geometry import ConfigurationError, SingularityError

from analytic_oracles import field_shifted, green_circular

R = 1.0


def field_shifted_fd(moment, x0: float, r, radius: float, h: float) -> np.ndarray:
    """Cross-check oracle: both derivative levels by central differences of
    plain kernel values (independent of the analytic gradient path)."""
    moment = np.asarray(moment, dtype=float)
    r = np.asarray(r, dtype=float)
    src = np.array([x0, 0.0, 0.0])
    mixed = np.zeros((3, 3))
    for a in range(3):
        ea = np.zeros(3)
        ea[a] = h
        for b in range(3):
            eb = np.zeros(3)
            eb[b] = h
            mixed[a, b] = (
                green_circular(r + ea, src + eb, radius).value
                - green_circular(r + ea, src - eb, radius).value
                - green_circular(r - ea, src + eb, radius).value
                + green_circular(r - ea, src - eb, radius).value
            ) / (4 * h * h)
    return MU0 * (moment * np.trace(mixed) - moment @ mixed)


def test_reduces_to_centered_at_zero_shift():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 40:
        r = rng.normal(size=3)
        rho = np.hypot(r[0], r[1])
        if np.linalg.norm(r) < 0.3 or abs(rho - R) < 0.15:
            continue
        if rho > R and abs(r[2]) < 0.05:
            continue
        m = rng.normal(size=3)
        got = field_shifted(m, 0.0, r, R)
        want = field_centered(m, r, R)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        checked += 1


def test_exchange_symmetry():
    # z-dipole at (s, 0, 0) observed at the origin equals the centered
    # dipole observed at (s, 0, 0)
    for s in (0.2, 0.5, 0.8):
        b1 = field_shifted([0, 0, 1.0], s, np.array([1e-12, 0.0, 0.0]), R)
        b2 = field_inplane(1.0, s, R)
        assert b1[2] == pytest.approx(b2, rel=1e-6)


def test_dipole_outside_aperture_rejected():
    with pytest.raises(ConfigurationError):
        field_shifted([0, 0, 1.0], 1.2, [0.0, 0.0, 0.5], R)


def test_edge_to_edge_asymptote_in_separation_form():
    # on-axis value approaches -mu0 m / (4 pi^2 d L^2) with L the
    # dipole-to-probe separation
    d = 1.0
    for radius, tol in ((1e3, 4e-3), (1e4, 5e-4)):
        b = field_shifted([0, 0, 1.0], d - radius, [radius - d, 0.0, 0.0], radius)
        L = 2 * (radius - d)
        want = -MU0 / (4 * np.pi**2 * d * L * L)
        assert b[2] == pytest.approx(want, rel=tol)


def test_inplane_fast_path_matches_general():
    # in the hole within 1e-12 of the general form's z component, and
    # exactly 0 on the film
    rng = np.random.default_rng(7)
    for x0 in (-0.9, -0.6, 0.0, 0.35, 0.8):
        for y in (0.0, 0.01, -0.45):
            xs = rng.uniform(-3, 3, 40)
            xs = xs[(np.abs(xs - x0) > 1e-2) & (np.abs(np.hypot(xs, y) - R) > 1e-2)]
            fast = field_shifted_bz_plane(1.0, x0, xs, y, R)
            film = np.hypot(xs, y) > R
            assert film.any() and not film.all()
            assert np.all(fast[film] == 0.0)
            full = np.array([field_shifted([0, 0, 1.0], x0, [xv, y, 0.0], R)[2]
                             for xv in xs[~film]])
            assert np.all(np.abs(fast[~film] - full) <= 1e-12 * np.abs(full))


@pytest.mark.parametrize("x0", [R, 1.2 * R, -R])
def test_bz_plane_rejects_dipole_outside_aperture(x0):
    with pytest.raises(ConfigurationError):
        field_shifted_bz_plane(1.0, x0, [0.2, 0.5], 0.0, R)


@settings(max_examples=300, deadline=None)
@given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
def test_bz_plane_reciprocity_on_the_axis(x0, x):
    # G(r, r') = G(r', r): the dipole at x0 seen at x is the dipole at x seen at x0
    assume(abs(x - x0) > 1e-6)
    there = field_shifted_bz_plane(1.0, x0, [x], 0.0, R)[0]
    back = field_shifted_bz_plane(1.0, x, [x0], 0.0, R)[0]
    assert abs(there - back) <= 1e-14 * abs(back)


def test_bz_plane_rotated_form_off_the_axis():
    # reciprocity, then a rotation by -theta: the dipole at (x0, 0) seen at
    # rho (cos theta, sin theta) is the dipole at (rho, 0) seen at
    # x0 (cos theta, -sin theta)
    for x0 in (-0.9, -0.5, -0.1, 0.3, 0.7, 0.95):
        for rho in (0.05, 0.2, 0.6, 0.9, 0.98):
            for theta in (0.3, 1.0, 2.0, 2.9, -1.2):
                got = field_shifted_bz_plane(1.0, x0, [rho * np.cos(theta)],
                                             rho * np.sin(theta), R)[0]
                want = field_shifted_bz_plane(1.0, rho, [x0 * np.cos(theta)],
                                              -x0 * np.sin(theta), R)[0]
                assert abs(got - want) <= 1e-13 * abs(want)


def test_bz_plane_exchange_symmetry_at_the_origin():
    # the dipole at (s, 0) seen at the centre is the centred dipole seen at (s, 0)
    for s in np.linspace(0.01, 0.99, 99):
        got = field_shifted_bz_plane(1.0, s, [0.0], 0.0, R)[0]
        want = field_inplane(1.0, s, R)
        assert abs(got - want) <= 1e-14 * abs(want)


def test_against_plain_fd_oracle():
    # fully finite-difference path over kernel values, independent of the
    # analytic gradient
    rng = np.random.default_rng(1)
    x0 = 0.35
    checked = 0
    while checked < 15:
        r = rng.normal(size=3)
        rho = np.hypot(r[0], r[1])
        if np.linalg.norm(r - [x0, 0, 0]) < 0.3 or abs(rho - R) < 0.2:
            continue
        if rho > R and abs(r[2]) < 0.2:
            continue
        m = rng.normal(size=3)
        got = field_shifted(m, x0, r, R)
        oracle = field_shifted_fd(m, x0, r, R, h=2e-4)
        assert np.linalg.norm(got - oracle) <= 2e-5 * np.linalg.norm(oracle)
        checked += 1


def test_on_film_plane_bz_is_screened():
    # directly on the superconductor the perpendicular component vanishes
    b = field_shifted([0, 0, 1.0], 0.4, [1.7, 0.0, 0.0], R)
    scale = MU0 / (4 * np.pi**2)
    assert abs(b[2]) < 1e-9 * scale


def test_bz_plane_rejects_dipole_and_edge_ring():
    with pytest.raises(SingularityError):
        field_shifted_bz_plane(1.0, -0.4, [0.2, -0.4], 0.0, R)
    with pytest.raises(SingularityError):
        field_shifted_bz_plane(1.0, -0.4, [0.2, R], 0.0, R)


def test_field_shifted_batch_matches_pointwise_calls():
    # one (k, 3) call against k single-point calls: inside the hole (in and
    # off the plane), off-plane outside it, and on the film at z = 0
    x0 = 0.35
    pts = np.array([
        [0.1, 0.2, 0.0], [-0.5, 0.3, 0.4], [0.2, -0.1, -0.7],
        [1.6, 0.4, 0.3], [-2.0, 1.1, -0.05], [0.3, 1.5, 1e-3],
        [1.7, 0.0, 0.0], [-1.2, -0.9, 0.0], [0.4, 2.5, 0.0],
    ])
    m = np.array([0.3, -1.1, 0.7])
    single = np.array([field_shifted(m, x0, p, R) for p in pts])
    assert single.shape == pts.shape
    for batch in (field_shifted(m, x0, pts, R),
                  field_shifted(m, x0, pts.reshape(3, 3, 3), R).reshape(-1, 3)):
        err = np.linalg.norm(batch - single, axis=1)
        assert np.all(err <= 1e-14 * np.linalg.norm(single, axis=1))
    assert field_shifted(m, x0, pts[0], R).shape == (3,)
