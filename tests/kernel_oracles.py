"""Whole-grid forms of the solver's kernel, for tests.

The solver only ever makes parity-folded quadrant rows a batch at a time
(`folded_kernel_rows`); these give the whole unfolded matrix and the sum
rule's outside integral per point, so that tests can check the folded rows,
the sum rule and quadrature against them and rebuild h_z = h_a + K g.
"""

import numpy as np

from scaperture.grid import Grid
from scaperture.solver.kernel import _inverse_offsets


def _outside(X, px, py) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) outside the square [-X, X]^2, seen from (px, py)."""
    out = np.zeros(len(px))
    for p in (-1.0, 1.0):
        for q in (-1.0, 1.0):
            out += np.sqrt((X - p * px) ** -2 + (X - q * py) ** -2)
    return out / (4 * np.pi)


def boundary_correction(grid: Grid) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) over the plane outside the grid square,
    the sum rule's target, seen from every point."""
    return _outside(grid.half_extent, grid.points[:, 0], grid.points[:, 1])


def cell_integrated_kernel(grid: Grid, rows=None) -> np.ndarray:
    """The kernel integrated exactly over every cell, from every point or
    from the points `rows` (flat indices).

    Entry (i, j) is the second difference of F = sign(u) sign(v)
    sqrt(u^-2 + v^-2) / (4 pi) over cell j's corners, offsets (u, v) from
    point i, with no pass of its own for the self entry: over the own cell
    it is the integral outside that cell, so a row sums to
    `boundary_correction`.
    """
    rows = np.arange(grid.n_points) if rows is None else np.asarray(rows)
    px, py = grid.points[rows, 0], grid.points[rows, 1]
    a, b = _inverse_offsets(grid.x_edges, px), _inverse_offsets(grid.y_edges, py)
    corners = np.sqrt((a * a)[:, :, None] + (b * b)[:, None, :])
    corners *= np.sign(a)[:, :, None] * np.sign(b)[:, None, :]
    dy = corners[:, :, 1:] - corners[:, :, :-1]
    return (dy[:, 1:] - dy[:, :-1]).reshape(len(rows), grid.n_points)
