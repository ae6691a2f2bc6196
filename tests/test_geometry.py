import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from scaperture.constants import DEFAULT_FILM_FACTOR, DEFAULT_GRID_FACTOR
from scaperture.geometry import (
    Circle,
    ConfigurationError,
    Dipole,
    DogBone,
    Ellipse,
    FilmSpec,
)


def test_dipole_requires_nonzero_moment():
    with pytest.raises(ConfigurationError):
        Dipole(position=[0, 0, 0], moment=[0, 0, 0])
    Dipole(position=[0, 0, 0], moment=[0, 0, 2e-23])


def test_circle_center_inside():
    assert Circle(1.0).contains(0.0, 0.0)


def test_circle_boundary_is_superconductor():
    # the boundary belongs to the film side
    assert not Circle(1.0).contains(1.0, 0.0)


def test_dogbone_channel_membership():
    db = DogBone(end_radius=1.0, center_distance=10.0, channel_half_width=0.1)
    assert db.contains(0.0, 0.05)
    assert not db.contains(0.0, 0.5)


def test_dogbone_requires_nonoverlap():
    with pytest.raises(ConfigurationError):
        DogBone(end_radius=1.0, center_distance=1.5, channel_half_width=0.1)


def test_dogbone_channel_no_wider_than_its_discs():
    # edge_y is end_radius, so a wider channel put aperture points outside
    # the film of DEFAULT_FILM_FACTOR * max(edge_x, edge_y)
    with pytest.raises(ConfigurationError, match="channel_half_width <= end_radius"):
        DogBone(end_radius=100e-9, center_distance=300e-9, channel_half_width=1000e-9)
    db = DogBone(end_radius=100e-9, center_distance=300e-9, channel_half_width=100e-9)
    assert db.edge_y == 100e-9


@given(
    st.floats(0.1, 5.0),
    st.floats(-6.0, 6.0),
    st.floats(-6.0, 6.0),
)
# here r**2 rounds 1 ulp above y*y while (y / r)**2 is exactly 1, so
# x*x + y*y < r**2 and the ellipse test disagree
@example(r=2.5929023766004713, x=0.0, y=2.5929023766004713)
def test_ellipse_equals_circle_when_axes_match(r, x, y):
    assert Ellipse(a=r, b=r).contains(x, y) == Circle(r).contains(x, y)


@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_dogbone_mirror_symmetry(x, y):
    db = DogBone(end_radius=0.8, center_distance=4.0, channel_half_width=0.2)
    v = db.contains(x, y)
    assert v == db.contains(-x, y) == db.contains(x, -y)


def test_dogbone_union_matches_predicate():
    db = DogBone(end_radius=1.0, center_distance=10.0, channel_half_width=0.1)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-7, 7, size=(500, 2))
    for x, y in pts:
        expect = (
            (x + 5) ** 2 + y**2 < 1
            or (x - 5) ** 2 + y**2 < 1
            or (abs(x) < 5 and abs(y) < 0.1)
        )
        assert db.contains(x, y) == expect


def test_pearl_length():
    film = FilmSpec(london_depth=50e-9, thickness=80e-9)
    assert film.pearl_length == pytest.approx(50e-9**2 / 80e-9, rel=1e-15)


def test_extent_factors_put_the_film_around_the_aperture_and_the_grid_beyond_it():
    # the film's half-extent, DEFAULT_FILM_FACTOR scale radii, exceeds every
    # aperture dimension only for a factor > 1, and the grid must reach beyond
    # the film to leave room for a point outside it
    assert DEFAULT_FILM_FACTOR > 1
    assert DEFAULT_GRID_FACTOR > DEFAULT_FILM_FACTOR
    with pytest.raises(TypeError):
        FilmSpec(film_factor=5)


@pytest.mark.parametrize("geom", [
    Circle(1e-6),
    Ellipse(a=1e-6, b=0.1e-6),
    Ellipse(a=0.1e-6, b=1e-6),
    DogBone(end_radius=250e-9, center_distance=1.5e-6, channel_half_width=100e-9),
])
def test_scale_radius_is_the_largest_aperture_dimension(geom):
    # film and grid scale with max(edge_x, edge_y), the largest aperture
    # dimension of every shape: why DEFAULT_FILM_FACTOR > 1 is the whole
    # coverage check
    scale = max(geom.edge_x, geom.edge_y)
    assert FilmSpec().half_extents(geom) == (DEFAULT_FILM_FACTOR * scale,
                                             DEFAULT_GRID_FACTOR * scale)
    x, y = np.meshgrid(*2 * [np.linspace(-2 * scale, 2 * scale, 401)])
    assert np.all(np.maximum(abs(x), abs(y))[geom.contains(x, y)] <= scale)


def test_default_film_factors():
    film = FilmSpec()
    assert film.half_extents(Circle(1e-6)) == pytest.approx((90e-6, 100e-6))
    # the extents follow the aperture: 90 and 100 scale radii
    assert film.half_extents(Ellipse(a=2e-6, b=5e-6)) == (90 * 5e-6, 100 * 5e-6)
