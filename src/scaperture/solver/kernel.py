"""Rows of the cell-integrated kernel for the perpendicular field of sheet currents.

The kernel gives the z field at r of a unit z dipole at r'; its diagonal is
fixed by a sum rule so that a constant stream function over the infinite
plane produces zero field: the row sum over the grid must equal the exact
kernel integral over everything outside the grid rectangle.

The cells are the grid's own (`Grid.x_edges` by `Grid.y_edges`).  A cell
integral of 1/(4 pi s^3) is the second difference over the cell's corners
(u, v), offsets from the field point, of the antiderivative
F = sign(u) sign(v) sqrt(u^-2 + v^-2) / (4 pi), that is sqrt(u^2 + v^2) /
(4 pi u v) with the 1/(4 pi) in the per-axis factors 1/(4 pi u), 1/(4 pi v).
"""

from __future__ import annotations

import numpy as np

from scaperture.grid import Grid


def _outside(X, px, py) -> np.ndarray:
    """Exact integral of 1/(4 pi s^3) outside the square [-X, X]^2, seen from (px, py)."""
    out = np.zeros(len(px))
    for p in (-1.0, 1.0):
        for q in (-1.0, 1.0):
            out += np.sqrt((X - p * px) ** -2 + (X - q * py) ** -2)
    return out / (4 * np.pi)


def _inverse_offsets(edges: np.ndarray, p: np.ndarray) -> np.ndarray:
    """1 / (4 pi (edge - p)) per point p and cell edge; 0 where the edge passes
    through p, so that F takes its zero limit on the axes u = 0 and v = 0."""
    d = edges[None, :] - p[:, None]
    with np.errstate(divide="ignore"):
        inv = 1.0 / (4 * np.pi * d)
    inv[d == 0.0] = 0.0
    return inv


def kernel_rows(grid: Grid, rows) -> np.ndarray:
    """Rows `rows` (flat point indices) of the cell-integrated kernel.

    Entry (i, j) is minus the integral of 1/(4 pi s^3) over cell j seen from
    point i; each row's self entry carries the sum rule.  F is evaluated
    once on the batch's whole (rows, n_x + 1, n_y + 1) table of the grid's
    cell corners, since neighbouring cells share corners, and differenced
    along y, then along x; the transient is about three times the output.
    Rows are computed independently, so a row does not depend on the batch
    it is made in.
    """
    rows = np.asarray(rows)
    px, py = grid.points[rows, 0], grid.points[rows, 1]
    a, b = _inverse_offsets(grid.x_edges, px), _inverse_offsets(grid.y_edges, py)
    corners = np.add((a * a)[:, :, None], (b * b)[:, None, :])
    np.sqrt(corners, out=corners)
    corners *= np.sign(a)[:, :, None]
    corners *= np.sign(b)[:, None, :]
    dy = corners[:, :, 1:] - corners[:, :, :-1]
    del corners
    out = np.empty((len(rows), grid.n_points))
    np.subtract(dy[:, 1:], dy[:, :-1], out=out.reshape(len(rows), grid.n_x, grid.n_y))
    own = (np.arange(len(rows)), rows)
    out[own] = 0.0
    out[own] = _outside(grid.half_extent, px, py) - out.sum(axis=1)
    return out
