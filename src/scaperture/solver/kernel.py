"""Dense kernel matrices for the perpendicular field of sheet currents.

The kernel gives the z field at r of a unit z dipole at r'; its diagonal is
fixed by a sum rule so that a constant stream function over the infinite
plane produces zero field: the row sum over the grid must equal the exact
kernel integral over everything outside the grid rectangle.
"""

from __future__ import annotations

import numpy as np

from scaperture.grid import Grid


def boundary_correction(grid: Grid) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) over the plane outside the grid square."""
    pts = grid.points
    X = grid.half_extent
    out = np.zeros(grid.n_points)
    for p in (-1.0, 1.0):
        for q in (-1.0, 1.0):
            out += np.sqrt((X - p * pts[:, 0]) ** -2 + (X - q * pts[:, 1]) ** -2)
    return out / (4 * np.pi)


def _corner(u, v, vv, v_zero):
    """Antiderivative corner term of the cell-integrated 1/s^3 kernel.

    `vv` is v * v and `v_zero` is v == 0.  The zero value on the axes is the
    correct limit: corner differences across u = 0 or v = 0 vanish.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.sqrt(u * u + vv) / (u * v)
    return np.where((u == 0.0) | v_zero, 0.0, f)


def kernel_rows(grid: Grid, rows) -> np.ndarray:
    """Rows `rows` (flat point indices) of the cell-integrated kernel.

    Entry (i, j) is minus the integral of 1/(4 pi s^3) over cell j seen from
    point i; each row's self entry carries the sum rule.  A cell integral is
    the second difference of `_corner` over the cell's four corners, and
    neighboring cells share corners, so every (corner, point) value is
    evaluated once and differenced column strip by column strip.
    """
    rows = np.asarray(rows)
    X = grid.half_extent
    xm = np.concatenate([[-X], 0.5 * (grid.x[1:] + grid.x[:-1]), [X]])
    ym = np.concatenate([[-X], 0.5 * (grid.y[1:] + grid.y[:-1]), [X]])
    pts = grid.points[rows]
    px, py = pts[:, 0], pts[:, 1]
    v = ym[None, :] - py[:, None]
    vv, v_zero = v * v, v == 0.0
    ny = grid.n_y
    out = np.empty((len(rows), grid.n_points))
    left = _corner((xm[0] - px)[:, None], v, vv, v_zero)
    for jx in range(grid.n_x):
        right = _corner((xm[jx + 1] - px)[:, None], v, vv, v_zero)
        strip = right[:, 1:] - left[:, 1:]
        strip -= right[:, :-1]
        strip += left[:, :-1]
        np.divide(strip, 4 * np.pi, out=out[:, jx * ny:(jx + 1) * ny])
        left = right
    own = (np.arange(len(rows)), rows)
    out[own] = 0.0
    out[own] = boundary_correction(grid)[rows] - out.sum(axis=1)
    return out


def cell_integrated_kernel(grid: Grid) -> np.ndarray:
    """Every row of `kernel_rows`: the kernel integrated exactly over every
    Voronoi cell, whose exact near-singular entries the edge fields need."""
    return kernel_rows(grid, np.arange(grid.n_points))
