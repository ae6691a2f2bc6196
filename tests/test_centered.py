import tracemalloc

import numpy as np
import pytest

from scaperture.analytic.centered import _field_block, field_centered
from scaperture.constants import MU0
from scaperture.geometry import SingularityError

from analytic_oracles import free_dipole_field, n_vector, vector_potential_centered


def test_n_vanishes_on_boundary():
    nv = n_vector([1.0, 0.0, 0.0], 1.0)
    assert nv.alpha == 0.0
    assert nv.c == 0.0
    assert np.all(nv.n == 0.0)


def test_c_at_alpha_one():
    # rho = R / sqrt(2) in the plane gives alpha = 1 and C = 1/2 + 1/pi
    nv = n_vector([1 / np.sqrt(2), 0.0, 0.0], 1.0)
    assert nv.alpha == pytest.approx(1.0, rel=1e-12)
    assert nv.c == pytest.approx(0.5 + 1 / np.pi, rel=1e-12)
    assert nv.c == pytest.approx(0.818310, abs=5e-7)


def test_n_approaches_r_near_origin():
    # alpha grows without bound as r/R -> 0, driving C -> 1 and n -> r
    nv = n_vector([0.0, 0.0, 1e-6], 1.0)
    assert nv.alpha > 1e5
    assert nv.c == pytest.approx(1.0, rel=1e-10)
    assert np.allclose(nv.n, [0.0, 0.0, 1e-6])
    # on the axis n equals r exactly for any height
    nv = n_vector([0.0, 0.0, 0.5], 1.0)
    assert np.allclose(nv.n, [0.0, 0.0, 0.5])


def test_n_origin_rejected():
    with pytest.raises(SingularityError):
        n_vector([0.0, 0.0, 0.0], 1.0)


def test_free_dipole_limit():
    rng = np.random.default_rng(0)
    for _ in range(50):
        r = rng.normal(size=3)
        if np.linalg.norm(r) < 0.3:
            continue
        m = rng.normal(size=3)
        big = 1e6 * np.linalg.norm(r)
        got = field_centered(m, r, big)
        want = free_dipole_field(m, r)
        assert np.linalg.norm(got - want) <= 1e-3 * np.linalg.norm(want)


def test_axis_field_is_axial_for_z_moment():
    b = field_centered([0, 0, 1.0], [0.0, 0.0, 0.7], 1.0)
    assert abs(b[0]) < 1e-25 and abs(b[1]) < 1e-25
    assert b[2] != 0.0


def test_edge_ring_rejected():
    with pytest.raises(SingularityError):
        field_centered([0, 0, 1.0], [1.0, 0.0, 0.0], 1.0)


def test_partials_match_finite_differences():
    # jacobian of n used inside field_centered, checked against central
    # differences of n_vector with step 1e-6 r
    rng = np.random.default_rng(1)
    R = 1.0
    checked = 0
    while checked < 100:
        r = rng.normal(size=3)
        rr = np.linalg.norm(r)
        if rr < 0.2 or abs(np.hypot(r[0], r[1]) - R) < 0.1:
            continue
        m = rng.normal(size=3)
        h = 1e-6 * rr
        jac_fd = np.zeros((3, 3))
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            jac_fd[a] = (n_vector(r + e, R).n - n_vector(r - e, R).n) / (2 * h)
        div_fd = np.trace(jac_fd)
        mgrad_fd = m @ jac_fd
        nv = n_vector(r, R)
        rhat = r / rr
        nhat = nv.n / rr
        b_fd = (MU0 / (4 * np.pi * rr**3)) * (
            3 * np.dot(m, rhat) * nhat - mgrad_fd + m * (div_fd - 3 * np.dot(rhat, nhat))
        )
        b = field_centered(m, r, R)
        assert np.linalg.norm(b - b_fd) <= 1e-5 * np.linalg.norm(b_fd) + 1e-30
        checked += 1


def test_divergence_free():
    rng = np.random.default_rng(2)
    R = 1.0
    checked = 0
    while checked < 100:
        r = rng.normal(size=3)
        rr = np.linalg.norm(r)
        if rr < 0.3 or abs(r[2]) < 0.05 or abs(np.hypot(r[0], r[1]) - R) < 0.15:
            continue
        m = rng.normal(size=3)
        h = 1e-5 * rr
        div = 0.0
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            div += (field_centered(m, r + e, R)[a] - field_centered(m, r - e, R)[a]) / (2 * h)
        scale = np.linalg.norm(field_centered(m, r, R)) / rr
        assert abs(div) <= 1e-6 * scale + 1e-30
        checked += 1


def test_vector_potential_zero_on_sigma():
    rng = np.random.default_rng(3)
    R = 1.0
    m = np.array([0.3, -0.2, 0.9])
    ref = MU0 * np.linalg.norm(m) / (4 * np.pi * R**2)
    for _ in range(200):
        rho = rng.uniform(1.0, 100.0)
        phi = rng.uniform(0, 2 * np.pi)
        a = vector_potential_centered(m, [rho * np.cos(phi), rho * np.sin(phi), 0.0], R)
        assert np.linalg.norm(a) <= 1e-12 * ref


@pytest.mark.parametrize("shape", [(0, 3), (1, 3), (1023, 3), (1024, 3), (1025, 3), (3079, 3),
                                   (3,), (4, 700, 3)])
def test_blocks_equal_one_whole_array_call(shape):
    # every operation acts on one point, so evaluating 1,024 points at a time
    # changes no bit of the result or its shape
    rng = np.random.default_rng(4)
    m, r = rng.normal(size=3), rng.normal(size=shape)
    whole = _field_block(m, r.reshape(-1, 3), 1.3).reshape(shape)
    assert np.array_equal(field_centered(m, r, 1.3), whole)


@pytest.mark.parametrize("point", [[0.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
def test_singular_point_in_the_last_block_rejected(point):
    # the origin and the edge ring are rejected in whichever block they fall
    r = np.random.default_rng(5).normal(size=(3079, 3))
    r[-1] = point
    with pytest.raises(SingularityError):
        field_centered([0, 0, 1.0], r, 1.0)


def test_working_set_does_not_grow_with_the_point_count():
    # 100,000 points: the result is 2.3 MiB, the temporaries of one block of
    # 1,024 points about 0.3 MiB; one whole-array `_field_block` call peaks at 31 MiB
    r = np.random.default_rng(6).normal(size=(100_000, 3))
    tracemalloc.start()
    try:
        field_centered([0, 0, 1.0], r, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
