"""Rows of the cell-integrated kernel for the perpendicular field of sheet
currents, folded by mirror parity onto the +x,+y quadrant.

The kernel gives the z field at r of a unit z dipole at r'.  Its entry for
a grid cell (`Grid.x_edges` by `Grid.y_edges`) is the second difference over
the cell's corners (u, v), offsets from the field point, of
F = sign(u) sign(v) sqrt(u^-2 + v^-2) / (4 pi): minus the integral of
1/(4 pi s^3) over the cell, or over the row's own cell the integral outside
it, so that a row sums to the integral outside the grid square (the sum
rule: a constant stream function produces zero field).
"""

from __future__ import annotations

import numpy as np

from scaperture.grid import Grid


def _inverse_offsets(edges: np.ndarray, p: np.ndarray) -> np.ndarray:
    """1 / (4 pi (edge - p)) per point p and cell edge; 0 where the edge passes
    through p, so that F takes its zero limit on the axes u = 0 and v = 0."""
    d = edges[None, :] - p[:, None]
    with np.errstate(divide="ignore"):
        inv = 1.0 / (4 * np.pi * d)
    inv[d == 0.0] = 0.0
    return inv


def folded_kernel_rows(grid: Grid, rows, cells, blocks) -> list:
    """Rows `rows` (flat indices of +x,+y quadrant points) of the kernel
    folded into each parity block of `blocks` (the order of `_parity`), on
    the quadrant's first `cells` = (m_x, m_y) cells: one (rows, m_x * m_y)
    array per block.  Entry (i, j) of block (sx, sy) is cell j's entry plus
    sx, sy and sx sy times its mirror images'.  Folding and differencing are
    linear, so F is folded first on the quadrant's cell corners (x, y >= 0),
    F(x - px, y - py) - sx F(-x - px, y - py) - sy F(x - px, -y - py)
    + sx sy F(-x - px, -y - py), then differenced along y and along x;
    -x - px and -y - py are negative.  Rows are computed independently, so
    a row does not depend on the batch it is made in.
    """
    rows = np.asarray(rows)
    hx, hy = grid.n_x // 2, grid.n_y // 2
    xe, ye = grid.x_edges[hx:hx + cells[0] + 1], grid.y_edges[hy:hy + cells[1] + 1]
    px, py = grid.points[rows, 0], grid.points[rows, 1]
    a, a_m = _inverse_offsets(xe, px), _inverse_offsets(-xe, px)
    # each step writes in place where it can, so at most three corner tables
    # are live for one x parity, five for both

    def table(u, v, sign=None):
        t = (u * u)[:, :, None] + (v * v)[:, None, :]
        np.sqrt(t, out=t)
        return t if sign is None else np.multiply(t, sign, out=t)

    def fold(p, q, parities):
        """{0: p + q, 1: p - q} for the sorted `parities`, the last in p's place."""
        out = {0: p + q} if len(parities) == 2 else {}
        out[parities[-1]] = (np.subtract if parities[-1] else np.add)(p, q, out=p)
        return out

    # folded over x with parity sx, per y image: sign(v) (sign(u) S(u, v)
    # + sx S(-x - px, v)) for v = y - py, and the bracket alone for -y - py
    xs, x_folds = sorted({k & 1 for k in blocks}), []
    b, b_m = _inverse_offsets(ye, py), _inverse_offsets(-ye, py)
    for v in (b, b_m):
        x_folds.append(fold(table(a, v, np.sign(a)[:, :, None]), table(a_m, v), xs))
    for t in x_folds[0].values():
        t *= np.sign(b)[:, None, :]
    out = {}
    for sx in xs:
        ys = sorted(k >> 1 for k in blocks if k & 1 == sx)
        for sy, t in fold(x_folds[0].pop(sx), x_folds[1].pop(sx), ys).items():
            dy = t[:, :, 1:] - t[:, :, :-1]
            out[sx | sy << 1] = (dy[:, 1:] - dy[:, :-1]).reshape(len(rows), cells[0] * cells[1])
    return [out[k] for k in blocks]
