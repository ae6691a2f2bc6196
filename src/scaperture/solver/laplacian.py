"""Finite-difference operators on the non-equidistant tensor grid."""

from __future__ import annotations

import numpy as np

from scaperture.grid import Grid

# the (x, y) offsets of `div_lambda_grad`'s planes, in flat index order
STENCIL = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def div_lambda_grad(grid: Grid, lam: np.ndarray) -> np.ndarray:
    """Flux-form operator div(Lambda grad g) with harmonic face means, as
    five-point coefficients (5, n_x, n_y): each point's couplings to its
    neighbours at the offsets `STENCIL`, zero on the boundary ring (no row).

    For uniform Lambda this equals Lambda times the five-point Laplacian on
    any spacing.  Lambda may be infinite (on an aperture): a face mean
    2 / (1/Lambda + 1/Lambda') is then 2 Lambda' toward a finite neighbor
    and 0 between two infinite points, so every coefficient stays finite.
    """
    inv = 1.0 / np.asarray(lam, dtype=float).reshape(grid.n_x, grid.n_y)

    def face(inv_a, inv_b):
        total = inv_a + inv_b
        return np.divide(2.0, total, out=np.zeros_like(total), where=total > 0)

    # face means between neighbours along x and along y, on the interior rows
    lf_x, lf_y = face(inv[:-1, 1:-1], inv[1:, 1:-1]), face(inv[1:-1, :-1], inv[1:-1, 1:])
    lfl, lfr, lfd, lfu = lf_x[:-1], lf_x[1:], lf_y[:, :-1], lf_y[:, 1:]
    hx, hy = np.diff(grid.x)[:, None], np.diff(grid.y)[None, :]
    hxl, hxr, hyl, hyr = hx[:-1], hx[1:], hy[:, :-1], hy[:, 1:]
    wx, wy = 0.5 * (hxl + hxr), 0.5 * (hyl + hyr)
    coef = np.zeros((len(STENCIL), grid.n_x, grid.n_y))
    coef[:, 1:-1, 1:-1] = (
        lfl / (hxl * wx),
        lfd / (hyl * wy),
        -(lfl / hxl + lfr / hxr) / wx - (lfd / hyl + lfu / hyr) / wy,
        lfu / (hyr * wy),
        lfr / (hxr * wx),
    )
    return coef


def apply_stencil(coef: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The operator with coefficients `coef` applied to the flat values g, flat."""
    n_x, n_y = coef.shape[1:]
    padded = np.zeros((n_x + 2, n_y + 2))  # np.pad took a third of this call's time
    padded[1:-1, 1:-1] = g.reshape(n_x, n_y)
    return sum(c * padded[1 + dx:n_x + 1 + dx, 1 + dy:n_y + 1 + dy]
               for c, (dx, dy) in zip(coef, STENCIL)).ravel()
