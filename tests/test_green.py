import numpy as np
import pytest

from scaperture.geometry import SingularityError

from analytic_oracles import GreenEval, green_circular, green_source_gradient


def random_same_side(rng, n, spread=1.5):
    r = rng.normal(size=(n, 3)) * spread
    rp = rng.normal(size=(n, 3)) * spread
    flip = r[:, 2] * rp[:, 2] < 0
    rp[flip, 2] = -rp[flip, 2]
    return r, rp


def test_vanishes_on_superconductor_in_plane_source():
    rng = np.random.default_rng(1)
    R = 1.0
    worst = 0.0
    for _ in range(500):
        phi = rng.uniform(0, 2 * np.pi)
        rho = rng.uniform(1.0, 100.0)
        r = np.array([rho * np.cos(phi), rho * np.sin(phi), 0.0])
        s = rng.uniform(0, 0.95)
        rp = np.array([s, 0.0, 0.0])
        worst = max(worst, abs(green_circular(r, rp, R).value))
    assert worst <= 1e-10


def test_vanishes_on_superconductor_off_plane_source():
    rng = np.random.default_rng(2)
    R = 1.0
    for _ in range(300):
        rho = rng.uniform(1.0, 30.0)
        r = np.array([rho, 0.0, 0.0])
        rp = rng.normal(size=3) * 0.4
        rp[2] = abs(rp[2]) + 1e-3
        assert abs(green_circular(r, rp, R).value) <= 1e-12 / abs(rp[2])


def test_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    R = 1.0
    for _ in range(300):
        r, rp = random_same_side(rng, 1)
        r, rp = r[0], rp[0]
        if np.linalg.norm(r - rp) < 1e-3:
            continue
        g1 = green_circular(r, rp, R).value
        g2 = green_circular(rp, r, R).value
        assert g1 == pytest.approx(g2, rel=1e-12, abs=1e-300)


def test_free_space_limit():
    rng = np.random.default_rng(4)
    for _ in range(300):
        r = rng.normal(size=3) * 0.3
        rp = rng.normal(size=3) * 0.3
        dist = np.linalg.norm(r - rp)
        if dist < 1e-3:
            continue
        g = green_circular(r, rp, 1e6 * dist).value
        assert g == pytest.approx(1.0 / (4 * np.pi * dist), rel=1e-4)


def test_coincident_points_rejected():
    with pytest.raises(SingularityError):
        green_circular([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 1.0)


def test_continuous_across_plane_inside_aperture():
    R = 1.0
    rp = np.array([0.3, 0.0, 0.0])
    for x in (0.1, 0.5, 0.9):
        up = green_circular([x, 0.2, 1e-9], rp, R).value
        dn = green_circular([x, 0.2, -1e-9], rp, R).value
        mid = green_circular([x, 0.2, 0.0], rp, R).value
        assert up == pytest.approx(mid, rel=1e-7)
        assert dn == pytest.approx(mid, rel=1e-7)


def test_continuous_across_branch_locus():
    # the branch sign flips where F+ vanishes; the value must not jump
    R = 1.0
    r = np.array([0.0, 0.0, 1.0])
    a = green_circular(r, [0.8, 0.0, 0.6 + 1e-7], R).value
    b = green_circular(r, [0.8, 0.0, 0.6 - 1e-7], R).value
    assert a == pytest.approx(b, rel=1e-5)


def test_source_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    R = 1.0
    checked = 0
    worst = 0.0
    while checked < 200:
        r, rp = random_same_side(rng, 1)
        r, rp = r[0], rp[0]
        if np.linalg.norm(r - rp) < 0.2:
            continue
        if abs(np.hypot(r[0], r[1]) - R) < 0.05:
            continue
        if abs(np.hypot(rp[0], rp[1]) - R) < 0.1 and abs(rp[2]) < 0.05:
            continue
        analytic = green_source_gradient(r, rp, R)
        h = 1e-6
        fd = np.zeros(3)
        for axis in range(3):
            e = np.zeros(3)
            e[axis] = h
            fd[axis] = (
                green_circular(r, rp + e, R).value - green_circular(r, rp - e, R).value
            ) / (2 * h)
        worst = max(worst, np.linalg.norm(analytic - fd) / (np.linalg.norm(fd) + 1e-30))
        checked += 1
    assert worst < 1e-5


def test_source_gradient_zero_on_superconductor():
    # G vanishes identically on the film for every source, so its source
    # gradient must too
    R = 1.0
    g = green_source_gradient(np.array([2.0, 0.0, 0.0]), np.array([0.4, 0.1, 0.0]), R)
    assert np.all(np.abs(g) < 1e-14)


def test_parts_positive_and_finite():
    rng = np.random.default_rng(9)
    r, rp = random_same_side(rng, 50)
    for i in range(len(r)):
        if np.linalg.norm(r[i] - rp[i]) < 1e-2:
            continue
        ev = green_circular(r[i], rp[i], 1.0)
        assert ev.d_plus > 0 and ev.d_minus > 0
        assert ev.f_plus >= 0 and ev.f_minus >= 0
        assert ev.epsilon_sign in (-1.0, 1.0)


def test_batch_and_scalar_give_the_same_fields():
    rng = np.random.default_rng(9)
    r = rng.normal(size=(12, 3))
    r[:4, 2] = 0.0  # on the film plane, in and out of the hole
    src = np.array([0.2, -0.1, 0.3])
    batch = green_circular(r, src, 1.0)
    for name in GreenEval.__dataclass_fields__:
        single = np.array([getattr(green_circular(p, src, 1.0), name) for p in r])
        assert np.array_equal(getattr(batch, name), single)
        assert np.ndim(getattr(green_circular(r[0], src, 1.0), name)) == 0
