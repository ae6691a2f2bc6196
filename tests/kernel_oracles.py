"""Whole-grid forms of the solver's kernel and London operator, for tests.

The solver only ever makes parity-folded quadrant rows a batch at a time
(`folded_kernel_rows`); these give the whole unfolded matrix and the sum
rule's outside integral per point, so that tests can check the folded rows,
the sum rule and quadrature against them and rebuild h_z = h_a + K g.  The
solver keeps the London operator as five-point coefficients
(`div_lambda_grad`); `dense_london` gives its whole-grid matrix.
`compact_film` builds grids with a film and grid of a few scale radii.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from scaperture import geometry
from scaperture.grid import Grid
from scaperture.solver.kernel import _inverse_offsets
from scaperture.solver.laplacian import STENCIL, div_lambda_grad


@contextmanager
def compact_film(film_factor, grid_factor):
    """Within this context `FilmSpec.half_extents` gives a film and grid of
    `film_factor` and `grid_factor` scale radii, not the defaults' 90 and 100:
    a small grid whose spacing stays near the aperture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "DEFAULT_FILM_FACTOR", film_factor)
        patch.setattr(geometry, "DEFAULT_GRID_FACTOR", grid_factor)
        yield


def outside_square(X, px, py) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) outside the square [-X, X]^2, seen from (px, py)."""
    out = np.zeros(len(px))
    for p in (-1.0, 1.0):
        for q in (-1.0, 1.0):
            out += np.sqrt((X - p * px) ** -2 + (X - q * py) ** -2)
    return out / (4 * np.pi)


def boundary_correction(grid: Grid) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) over the plane outside the grid square,
    the sum rule's target, seen from every point."""
    return outside_square(grid.half_extent, grid.points[:, 0], grid.points[:, 1])


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


def dense_london(grid: Grid, lam) -> np.ndarray:
    """The whole-grid matrix of `div_lambda_grad(grid, lam)`: row p holds
    point p's coefficients at its neighbours' columns; the grid's boundary
    ring has empty rows."""
    coef = div_lambda_grad(grid, lam)
    ix, iy = np.meshgrid(np.arange(1, grid.n_x - 1), np.arange(1, grid.n_y - 1), indexing="ij")
    p = ix * grid.n_y + iy
    out = np.zeros((grid.n_points, grid.n_points))
    for c, (dx, dy) in zip(coef, STENCIL):
        out[p, p + dx * grid.n_y + dy] = c[ix, iy]
    return out
