"""The mirror-parity block solver against a dense whole-grid oracle.

The oracle assembles the full system from `cell_integrated_kernel` and
`div_lambda_grad`, scales every row by its largest entry and solves it
densely, which is how the solver worked before it was split into parity
blocks.  The field check rebuilds h_z = h_a + K g from the whole-grid
kernel on every row, film rows included.
"""

import numpy as np
import pytest
import scipy.linalg as la

from scaperture.constants import DEFAULT_MOMENT
from scaperture.experiments.grids import scenario_grid
from scaperture.geometry import Circle, ConfigurationError, Dipole, DogBone, Ellipse, default_film
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR, REGION_FILM, Grid, build_grid
from scaperture.solver.kernel import cell_integrated_kernel
from scaperture.solver.laplacian import div_lambda_grad
from scaperture.solver.system import (
    APERTURE_LAMBDA_BOOST,
    BrandtSystem,
    _fold_kernel,
    _hadamard,
    _mirror_views,
)

# (geometry, dipole x, dipole y); the probe sits 100 nm inside the right edge
CASES = {
    "centered": (Circle(1e-6), 0.0, 0.0),
    "shifted": (Circle(1e-6), -0.9e-6, 0.0),
    "off_axis": (Circle(1e-6), -0.3e-6, 0.2e-6),
    "coupling300": (Ellipse(250e-9, 100e-9), -150e-9, 0.0),
    "dogbone": (DogBone(250e-9, 1.5e-6, 100e-9), -0.9e-6, 0.0),
}


def scaled_grid(grid, scale):
    return Grid(x=grid.x / scale, y=grid.y / scale, half_extent=grid.half_extent / scale,
                region=grid.region, weights=grid.weights / scale**2)


def build_case(name, n):
    geom, x0, y0 = CASES[name]
    film = default_film(geom)
    grid = scenario_grid(geom, film, n, dipole_x=x0, probe_x=geom.edge_x - 100e-9, y_line=5e-9)
    system = BrandtSystem(geom, film, grid)
    dipole = Dipole(position=[x0, y0, 0.0], moment=[0.0, 0.0, DEFAULT_MOMENT])
    return system, dipole


def dense_solve(system, h_a):
    """g (amperes) and h_z from the whole-grid system, row-scaled and solved densely."""
    grid, scale = system.grid, system.scale
    sgrid = scaled_grid(grid, scale)
    kernel = cell_integrated_kernel(sgrid)
    lam = np.full(grid.n_points, system.film.pearl_length / scale)
    lam[grid.region == REGION_APERTURE] *= APERTURE_LAMBDA_BOOST
    s = np.flatnonzero(grid.region != REGION_EXTERIOR)
    a = kernel[np.ix_(s, s)] - div_lambda_grad(sgrid, lam).toarray()[np.ix_(s, s)]
    row_scale = np.abs(a).max(axis=1)
    g_hat = np.zeros(grid.n_points)
    g_hat[s] = la.solve(a / row_scale[:, None], -h_a[s] / row_scale)
    return g_hat * scale, h_a + kernel @ g_hat


SIZES = [("centered", 40), ("shifted", 40), ("off_axis", 36), ("coupling300", 40), ("dogbone", 32)]


@pytest.mark.parametrize("name,n", SIZES)
def test_blocks_match_dense_oracle(name, n):
    system, dipole = build_case(name, n)
    sol = system.solve(dipole)
    g, hz = dense_solve(system, sol.h_a.values)
    assert np.abs(sol.h_z.values - hz).max() <= 1e-9 * np.abs(hz).max()
    # g carries the rounding of a system with condition ~1e9
    assert np.abs(sol.g.values - g).max() <= 1e-8 * np.abs(g).max()
    assert np.all(sol.g.values[system.grid.region == REGION_EXTERIOR] == 0.0)


@pytest.mark.parametrize("name,n", SIZES)
def test_hz_matches_kernel_oracle_on_every_row(name, n):
    # the solver reads film h_z off the London operator and keeps kernel rows
    # only elsewhere; on every row h_z must be h_a + K g with the whole-grid K
    system, dipole = build_case(name, n)
    sol = system.solve(dipole)
    kernel = cell_integrated_kernel(scaled_grid(system.grid, system.scale))
    want = sol.h_a.values + kernel @ (sol.g.values / system.scale)
    assert np.abs(sol.h_z.values - want).max() <= 1e-12 * np.abs(want).max()


def test_quadrant_kernel_rows_match_cell_integrated_kernel():
    system, _ = build_case("off_axis", 32)
    grid = system.grid
    sgrid = scaled_grid(grid, system.scale)
    nx, ny = grid.n_x, grid.n_y
    hx, hy = nx // 2, ny // 2
    quad_rows = ((hx + np.arange(hx))[:, None] * ny + hy + np.arange(hy)[None, :]).ravel()
    sq = system._solve_q
    # the assembly with every quadrant row kept: 8 chunks of kernel rows here
    systems, kept = _fold_kernel(sgrid, quad_rows, sq, np.arange(hx * hy))

    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    x_image, y_image = (ix < hx).ravel(), (iy < hy).ravel()
    quad_col = (np.where(ix < hx, hx - 1 - ix, ix - hx) * hy
                + np.where(iy < hy, hy - 1 - iy, iy - hy)).ravel()
    # blocks in the order (even x, even y), (odd x, even y), (even x, odd y), (odd x, odd y)
    rows = np.zeros((hx * hy, grid.n_points))
    for block, (px, py) in zip(kept, [(1, 1), (-1, 1), (1, -1), (-1, -1)]):
        sign = np.where(x_image, px, 1) * np.where(y_image, py, 1)
        rows += 0.25 * sign * block[:, quad_col]
    full = cell_integrated_kernel(sgrid)[quad_rows]
    err = np.abs(rows - full).max(axis=1) / np.abs(full).max(axis=1)
    assert err.max() <= 1e-12

    # entry for entry the fold of the whole-grid rows, in the same order of
    # additions; the system buffers hold rows and columns sq of it
    folded = _hadamard(*_mirror_views(full.reshape(hx * hy, nx, ny)))
    for block, want, buffer in zip(kept, folded, systems):
        assert np.array_equal(block, want.reshape(hx * hy, hx * hy))
        assert buffer.flags.f_contiguous
        assert np.array_equal(buffer, block[np.ix_(sq, sq)])
    # and the build kept exactly its rows `_keep`
    for block, want in zip(system._kernel, kept):
        assert np.array_equal(block[:len(system._keep)], want[system._keep])
        assert not block[len(system._keep):].any()


def test_rejects_grid_without_mirror_symmetry():
    geom = Circle(1e-6)
    film = default_film(geom)
    grid = scenario_grid(geom, film, 24, probe_x=0.9e-6)
    BrandtSystem(geom, film, grid)

    shifted = build_grid(geom, film, grid.x + 1e-9, grid.y)
    with pytest.raises(ConfigurationError, match="x axis"):
        BrandtSystem(geom, film, shifted)

    region = grid.region.copy()
    region[np.flatnonzero(region == REGION_FILM)[0]] = REGION_EXTERIOR
    relabeled = Grid(x=grid.x, y=grid.y, half_extent=grid.half_extent,
                     region=region, weights=grid.weights)
    with pytest.raises(ConfigurationError, match="region labels"):
        BrandtSystem(geom, film, relabeled)
