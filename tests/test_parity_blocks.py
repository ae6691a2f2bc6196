"""The mirror-parity block solver against dense whole-grid oracles.

The exact oracle assembles the whole-grid system from
`cell_integrated_kernel` and `dense_london`, with g on the film points
and the hole's one constant as unknowns, the film rows and the fluxoid row
(the cell-area-weighted sum of the hole rows) as rows, no parity split;
it scales every row by its largest entry and solves densely.  The limit
oracle keeps every hole point as an unknown with a finite Lambda boosted
by 1e8, whose solution tends to the exact hole as the boost grows.  The
field check rebuilds h_z = h_a + K g from the whole-grid kernel on every
row, film rows included.
"""

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from scaperture.constants import DEFAULT_MOMENT
from scaperture.experiments.grids import scenario_grid
from scaperture.geometry import Circle, ConfigurationError, Dipole, DogBone, Ellipse, FilmSpec
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR, REGION_FILM, Grid, build_grid
from scaperture.solver.kernel import folded_kernel_rows
from scaperture.solver.system import (
    BrandtSystem,
    _fold_kernel,
    _london_block,
    _mirror_views,
    _parity,
    _unfold,
)

from kernel_oracles import cell_integrated_kernel, dense_london

# (geometry, dipole x, dipole y); the probe sits 100 nm inside the right edge
CASES = {
    "centered": (Circle(1e-6), 0.0, 0.0),
    "shifted": (Circle(1e-6), -0.9e-6, 0.0),
    "off_axis": (Circle(1e-6), -0.3e-6, 0.2e-6),
    "coupling300": (Ellipse(250e-9, 100e-9), -150e-9, 0.0),
    "dogbone": (DogBone(250e-9, 1.5e-6, 100e-9), -0.9e-6, 0.0),
}


def build_case(name, n):
    geom, x0, y0 = CASES[name]
    film = FilmSpec()
    grid = scenario_grid(geom, film, n, dipole_x=x0, probe_x=geom.edge_x - 100e-9, y_line=5e-9)
    system = BrandtSystem(geom, film, grid)
    dipole = Dipole(position=[x0, y0, 0.0], moment=[0.0, 0.0, DEFAULT_MOMENT])
    return system, dipole


def row_scaled_solve(a, b):
    row_scale = np.abs(a).max(axis=1)
    return la.solve(a / row_scale[:, None], b / row_scale)


def dense_exact_solve(system, h_a):
    """g (amperes) and h_z from the whole-grid exact-hole system."""
    grid = system.grid
    kernel = cell_integrated_kernel(grid)
    hole = grid.region == REGION_APERTURE
    lam = np.where(hole, np.inf, system.film.pearl_length)
    full = kernel - dense_london(grid, lam)
    film = np.flatnonzero(grid.region == REGION_FILM)
    fluxoid = np.where(hole, grid.weights, 0.0)
    rows = np.vstack([full[film], fluxoid @ full])
    a = np.column_stack([rows[:, film], rows[:, hole].sum(axis=1)])
    u = row_scaled_solve(a, -np.append(h_a[film], fluxoid @ h_a))
    g = np.zeros(grid.n_points)
    g[film], g[hole] = u[:-1], u[-1]
    return g, h_a + kernel @ g


def dense_boost_solve(system, h_a, boost=1e8):
    """h_z from the whole-grid system with every hole point an unknown and
    the hole's Lambda boosted by `boost`."""
    grid = system.grid
    kernel = cell_integrated_kernel(grid)
    lam = np.full(grid.n_points, system.film.pearl_length)
    lam[grid.region == REGION_APERTURE] *= boost
    s = np.flatnonzero(grid.region != REGION_EXTERIOR)
    a = kernel[np.ix_(s, s)] - dense_london(grid, lam)[np.ix_(s, s)]
    g = np.zeros(grid.n_points)
    g[s] = row_scaled_solve(a, -h_a[s])
    return h_a + kernel @ g


def dense_maps(system):
    """Per parity block, dense maps between the quadrant and the block's
    unknowns: `collapse` gives quadrant g from the unknowns (g on the film
    points, then in block 0 the hole's constant I), `fold` the block's rows
    from quadrant rows (the film rows, then in block 0 the fluxoid row)."""
    nq, film, hole = len(system._quad), system._film_q, system._hole_q
    maps = []
    for b in range(4):
        n_unknowns = len(film) + (b == 0)
        collapse, fold = np.zeros((nq, n_unknowns)), np.zeros((n_unknowns, nq))
        collapse[film, np.arange(len(film))] = fold[np.arange(len(film)), film] = 1.0
        if b == 0:
            collapse[hole, -1] = 1.0
            fold[-1, hole] = system._hole_w
        maps.append((collapse, fold))
    return maps


SIZES = [("centered", 40), ("shifted", 40), ("off_axis", 36), ("coupling300", 40), ("dogbone", 32)]


@pytest.mark.parametrize("name,n", SIZES)
def test_blocks_match_dense_oracle(name, n):
    system, dipole = build_case(name, n)
    sol = system.solve(dipole)
    g, hz = dense_exact_solve(system, sol.h_a.values)
    assert np.abs(sol.h_z.values - hz).max() <= 1e-9 * np.abs(hz).max()
    assert np.abs(sol.g.values - g).max() <= 1e-8 * np.abs(g).max()
    region = system.grid.region
    assert np.all(sol.g.values[region == REGION_EXTERIOR] == 0.0)
    assert np.all(sol.g.values[region == REGION_APERTURE] == sol.aperture_current)


@pytest.mark.parametrize("name,n", SIZES)
def test_exact_hole_is_the_boost_limit(name, n):
    system, dipole = build_case(name, n)
    sol = system.solve(dipole)
    hz = dense_boost_solve(system, sol.h_a.values)
    assert np.abs(sol.h_z.values - hz).max() <= 1e-6 * np.abs(hz).max()


@pytest.mark.parametrize("name,n", SIZES)
def test_hz_matches_kernel_oracle_on_every_row(name, n):
    # the solver reads film h_z off the London operator and keeps kernel rows
    # only elsewhere; on every row h_z must be h_a + K g with the whole-grid K
    system, dipole = build_case(name, n)
    sol = system.solve(dipole)
    kernel = cell_integrated_kernel(system.grid)
    want = sol.h_a.values + kernel @ sol.g.values
    assert np.abs(sol.h_z.values - want).max() <= 1e-12 * np.abs(want).max()


def test_quadrant_kernel_rows_match_cell_integrated_kernel():
    system, dipole = build_case("off_axis", 32)
    system.solve(dipole)  # an off-axis source factors all four blocks
    grid = system.grid
    nx, ny = grid.n_x, grid.n_y
    hx, hy = nx // 2, ny // 2
    quad_rows = ((hx + np.arange(hx))[:, None] * ny + hy + np.arange(hy)[None, :]).ravel()
    # the film square is the quadrant's first (m_x, m_y) cells: every film
    # and hole point is on it, and an exterior ring lies beyond
    inside = (grid.region[quad_rows] != REGION_EXTERIOR).reshape(hx, hy)
    mx, my = cells = inside.any(axis=1).sum(), inside.any(axis=0).sum()
    assert mx < hx and my < hy
    assert not inside[mx:].any() and not inside[:, my:].any()

    # the rows as the solver batches them, one quadrant x column per call
    calls = [folded_kernel_rows(grid, quad_rows[a:a + hy], cells, range(4))
             for a in range(0, hx * hy, hy)]
    blocks = [np.concatenate(parts) for parts in zip(*calls)]

    # unfolded onto the film square's whole-grid cells, they are the
    # whole-grid rows there
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    qx, qy = np.where(ix < hx, hx - 1 - ix, ix - hx), np.where(iy < hy, hy - 1 - iy, iy - hy)
    square = ((qx < mx) & (qy < my)).ravel()
    x_image, y_image = (ix < hx).ravel()[square], (iy < hy).ravel()[square]
    quad_col = (qx * my + qy).ravel()[square]
    # blocks in the order (even x, even y), (odd x, even y), (even x, odd y), (odd x, odd y)
    rows = np.zeros((hx * hy, square.sum()))
    for block, (px, py) in zip(blocks, [(1, 1), (-1, 1), (1, -1), (-1, -1)]):
        sign = np.where(x_image, px, 1) * np.where(y_image, py, 1)
        rows += 0.25 * sign * block[:, quad_col]
    full = cell_integrated_kernel(grid, quad_rows)
    err = np.abs(rows - full[:, square]).max(axis=1) / np.abs(full).max(axis=1)
    assert err.max() <= 1e-12

    # entry for entry the parity fold of the whole-grid rows; the table is
    # folded before it is differenced, so only the order of additions
    # differs, and the round-off is on the scale of the whole row's peak
    # (a fold near a mirror axis nearly cancels)
    images = _mirror_views(full.reshape(hx * hy, nx, ny))
    folded = [_parity(*images, b).reshape(hx * hy, hx * hy) for b in range(4)]
    on_square = (np.arange(hx)[:, None] < mx) & (np.arange(hy)[None, :] < my)
    peak = np.abs(full).max(axis=1)

    def close(got, want, rows=slice(None)):
        return np.all(np.abs(got - want).max(axis=1) <= 1e-13 * peak[rows])

    for block, want in zip(blocks, folded):
        assert close(block, want[:, on_square.ravel()])

    # the build's maps: film rows on the block's unknowns, then in the
    # even-even block the fluxoid row; the build kept the hole's rows
    film = np.flatnonzero(grid.region[quad_rows] == REGION_FILM)
    systems, kept = _fold_kernel(grid, quad_rows, film, system._hole_q, system._hole_w,
                                 [0, 1, 2, 3])
    assert [len(b) for b in systems] == [len(film) + 1] + [len(film)] * 3
    for want, buffer, rows_kept, built, (collapse, fold) in zip(
            folded, systems, kept, system._kernel, dense_maps(system)):
        assert buffer.flags.f_contiguous
        assert close(buffer[:len(film)], want[film] @ collapse, film)
        assert np.array_equal(built, rows_kept)
        assert close(built, want[system._hole_q] @ collapse, system._hole_q)
        # the fluxoid row sums hole rows weighted by cell area, so its
        # round-off scale is that sum of the rows' peaks
        fluxoid = (fold @ want @ collapse)[len(film):]
        gap = np.abs(buffer[len(film):] - fluxoid).max(axis=1)
        assert np.all(gap <= 1e-13 * (fold @ peak)[len(film):])


@pytest.mark.parametrize("name,n", [("off_axis", 28), ("coupling300", 32), ("dogbone", 28)])
def test_folded_stencil_is_the_parity_fold_of_the_dense_operator(name, n):
    # each block's London entries, applied to its unknowns, are the
    # whole-grid operator applied to the g of that parity, on the block's
    # rows: the mirror images of the quadrant carry sx, sy and sx sy times g
    system, _ = build_case(name, n)
    grid = system.grid
    lam = np.where(grid.region == REGION_APERTURE, np.inf, system.film.pearl_length)
    london = dense_london(grid, lam)
    rng = np.random.default_rng(11)
    quad_shape = (grid.n_x // 2, grid.n_y // 2)
    for b, (collapse, fold) in enumerate(dense_maps(system)):
        rows, cols, values = _london_block(system._stencil, system._film_q, system._hole_q,
                                           system._hole_w, b)
        block = np.zeros((len(fold),) * 2)
        np.add.at(block, (rows, cols), values)
        u = rng.standard_normal(len(block))
        parts = [np.zeros(quad_shape)] * 4
        parts[b] = (collapse @ u).reshape(quad_shape)
        g = _unfold(parts, (grid.n_x, grid.n_y))
        want = fold @ (london @ g)[system._quad]
        scale = np.abs(fold) @ (np.abs(london) @ np.abs(g))[system._quad]
        assert np.all(np.abs(block @ u - want) <= 1e-13 * scale)
        assert np.any(block != 0.0)


# integer values, so every signed sum is exact
even_shapes = st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda h: (2 * h[0], 2 * h[1]))
integer_grids = arrays(np.float64, even_shapes, elements=st.integers(-1000, 1000).map(float))


@given(integer_grids)
def test_fold_then_unfold_is_four_times_the_grid(a):
    images = _mirror_views(a)
    parts = [_parity(*images, b) for b in range(4)]
    assert np.array_equal(_unfold(parts, a.shape), 4 * a.ravel())


def test_rejects_grid_without_mirror_symmetry():
    geom = Circle(1e-6)
    film = FilmSpec()
    grid = scenario_grid(geom, film, 24, probe_x=0.9e-6)
    BrandtSystem(geom, film, grid)

    shifted = build_grid(geom, film, grid.x + 1e-9, grid.y)
    with pytest.raises(ConfigurationError, match="x axis"):
        BrandtSystem(geom, film, shifted)

    region = grid.region.copy()
    region[np.flatnonzero(region == REGION_FILM)[0]] = REGION_EXTERIOR
    relabeled = Grid(x=grid.x, y=grid.y, half_extent=grid.half_extent, region=region)
    with pytest.raises(ConfigurationError, match="region labels"):
        BrandtSystem(geom, film, relabeled)
