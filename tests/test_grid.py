import numpy as np
import pytest

from scaperture.geometry import Circle, Ellipse, FilmSpec
from scaperture.grid import (
    REGION_APERTURE,
    REGION_EXTERIOR,
    REGION_FILM,
    FieldMap,
    build_grid,
    make_grid,
    snap_symmetric,
)
from scaperture.geometry import ConfigurationError

from kernel_oracles import compact_film


def test_weights_sum_to_grid_area():
    geom = Circle(1000e-9)
    film = FilmSpec()
    for ratio in (1.0, 4.0, 125.0):
        grid = make_grid(geom, film, 60, ratio)
        area = (2 * film.half_extents(geom)[1]) ** 2
        assert grid.weights.sum() == pytest.approx(area, rel=1e-9)


def test_refinement_ratio_reached():
    # production-scale configuration: spacing near the edge at least 3x smaller
    # than at half the grid's half-extent for a ratio-4 grid
    geom = Circle(1000e-9)
    film = FilmSpec()
    grid = make_grid(geom, film, 100, 4.0)
    dx = np.diff(grid.x)
    mids = 0.5 * (grid.x[1:] + grid.x[:-1])
    near = dx[np.abs(np.abs(mids) - 1000e-9) < 1e-6]
    X = grid.half_extent
    far = dx[np.abs(np.abs(mids) - X / 2) < X / 10]
    assert near.min() * 3 < far.mean()


def test_uniform_when_ratio_one():
    geom = Circle(1000e-9)
    film = FilmSpec()
    grid = make_grid(geom, film, 32, 1.0)
    dx = np.diff(grid.x)
    assert np.allclose(dx, dx[0], rtol=1e-6)
    assert np.allclose(grid.weights, grid.weights[0], rtol=1e-6)


def test_ellipse_labels_match_bruteforce():
    geom = Ellipse(a=1000e-9, b=100e-9)
    film = FilmSpec()
    grid = make_grid(geom, film, 40, 50.0)
    pts = grid.points
    brute = (pts[:, 0] / geom.a) ** 2 + (pts[:, 1] / geom.b) ** 2 < 1
    assert np.array_equal(grid.region == REGION_APERTURE, brute)
    assert (grid.region == REGION_APERTURE).sum() == brute.sum()


def test_exterior_band_beyond_film():
    geom = Circle(1e-6)
    film = FilmSpec()
    grid = make_grid(geom, film, 60, 10.0)
    pts = grid.points
    F = film.half_extents(geom)[0]
    beyond = (np.abs(pts[:, 0]) > F) | (np.abs(pts[:, 1]) > F)
    assert np.array_equal(grid.region == REGION_EXTERIOR, beyond)
    assert (grid.region == REGION_EXTERIOR).any()
    assert (grid.region == REGION_FILM).any()


def test_labels_invariant_under_mirror():
    geom = Ellipse(a=1e-6, b=0.3e-6)
    film = FilmSpec()
    grid = make_grid(geom, film, 40, 20.0)
    lab = grid.region.reshape(grid.n_x, grid.n_y)
    # symmetric axes: mirroring the grid must mirror the labels exactly
    assert np.array_equal(lab, lab[::-1, :])
    assert np.array_equal(lab, lab[:, ::-1])


def test_circle_labeling_rotation_invariant():
    geom = Circle(1e-6)
    film = FilmSpec()
    grid = make_grid(geom, film, 40, 20.0)
    pts = grid.points
    theta = 0.37
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    rotated = pts @ rot.T
    # rotating the point set preserves membership
    assert np.array_equal(
        geom.contains(pts[:, 0], pts[:, 1]), geom.contains(rotated[:, 0], rotated[:, 1])
    )


def test_anchor_snapping_exact_pairs():
    geom = Circle(1e-6)
    film = FilmSpec()
    grid = make_grid(geom, film, 60, 50.0, anchor_x=900e-9, anchor_y=5e-9)
    assert 900e-9 in grid.x and -900e-9 in grid.x
    assert 5e-9 in grid.y and -5e-9 in grid.y


def test_snap_rejects_duplicates():
    coords = np.array([-2.0, -1.0, 1.0, 2.0])
    out = snap_symmetric(coords, 1.5)
    assert np.all(np.diff(out) > 0)


def test_snap_rejects_anchor_at_zero():
    # a single 0 has no mirror partner and would leave the axis asymmetric
    coords = np.array([-2.0, -1.0, 1.0, 2.0])
    with pytest.raises(ConfigurationError, match="anchor at 0"):
        snap_symmetric(coords, 0.0)
    geom = Circle(1e-6)
    with pytest.raises(ConfigurationError, match="anchor at 0"):
        make_grid(geom, FilmSpec(), 24, 10.0, anchor_x=0.0)


def test_min_point_count_enforced():
    geom = Circle(1e-6)
    film = FilmSpec()
    with pytest.raises(ConfigurationError):
        make_grid(geom, film, 8, 4.0)


def test_fieldmap_validates_length_and_finiteness():
    geom = Circle(1e-6)
    film = FilmSpec()
    grid = make_grid(geom, film, 20, 2.0)
    FieldMap(grid, np.zeros(grid.n_points))
    with pytest.raises(ConfigurationError):
        FieldMap(grid, np.zeros(grid.n_points - 1))
    bad = np.zeros(grid.n_points)
    bad[0] = np.inf
    with pytest.raises(ConfigurationError):
        FieldMap(grid, bad)
    # a view of the input taken before construction cannot reach the map
    good = np.zeros(grid.n_points)
    view = good[:]
    field = FieldMap(grid, good)
    view[0] = np.nan
    assert np.isfinite(field.values).all()
    assert not field.values.flags.writeable


def test_cells_derived_from_the_axes():
    # each cell is its point's Voronoi interval per axis, clipped to the square
    geom = Circle(1e-6)
    film = FilmSpec()
    grid = make_grid(geom, film, 24, 125.0)
    X = film.half_extents(geom)[1]
    for axis, edges in ((grid.x, grid.x_edges), (grid.y, grid.y_edges)):
        assert edges.shape == (len(axis) + 1,)
        assert edges[0] == -X and edges[-1] == X
        assert np.array_equal(edges[1:-1], 0.5 * (axis[1:] + axis[:-1]))
        assert np.all((edges[:-1] < axis) & (axis < edges[1:]))
        assert not edges.flags.writeable
    cells = np.outer(np.diff(grid.x_edges), np.diff(grid.y_edges))
    assert np.array_equal(grid.weights, cells.ravel())
    assert not grid.weights.flags.writeable


def test_axis_points_on_the_grid_edge_rejected():
    # a point on the grid square's edge sits on its own cell's outer edge,
    # where the kernel's self entry, the integral outside the cell, diverges
    geom = Circle(1e-6)
    film = FilmSpec()
    with compact_film(8.0, 10.0):
        axis = make_grid(geom, film, 24, 40.0).x
        build_grid(geom, film, axis, axis)
        X = film.half_extents(geom)[1]
        x = np.concatenate([[-X], axis[1:-1], [X]])
        for axes in ((x, x[1:-1]), (x[1:-1], x)):
            with pytest.raises(ConfigurationError, match="inside the grid square"):
                build_grid(geom, film, *axes)


def test_points_built_once_and_read_only():
    geom = Ellipse(1000e-9, 400e-9)
    film = FilmSpec()
    grid = make_grid(geom, film, 24, 125.0)
    assert grid.points is grid.points
    assert not grid.points.flags.writeable
    xx, yy = np.meshgrid(grid.x, grid.y, indexing="ij")
    assert np.array_equal(grid.points, np.column_stack([xx.ravel(), yy.ravel()]))
    # the region labels, made from the axes, belong to these points
    px, py = grid.points.T
    inside = geom.contains(px, py)
    beyond = np.maximum(np.abs(px), np.abs(py)) > film.half_extents(geom)[0]
    assert np.array_equal(grid.region == REGION_APERTURE, inside)
    assert np.array_equal(grid.region == REGION_EXTERIOR, beyond & ~inside)
    assert (grid.region == REGION_EXTERIOR).any() and inside.any()
