"""Finite-difference operators on the non-equidistant tensor grid."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from scaperture.grid import Grid


def div_lambda_grad(grid: Grid, lam: np.ndarray) -> sp.csr_matrix:
    """Flux-form operator div(Lambda grad g) with harmonic face means.

    For uniform Lambda this equals Lambda times the five-point Laplacian on
    any spacing.  Lambda may be infinite (on an aperture): a face mean
    2 / (1/Lambda + 1/Lambda') is then 2 Lambda' toward a finite neighbor
    and 0 between two infinite points, so the matrix stays finite.
    """
    nx, ny = grid.n_x, grid.n_y
    inv = 1.0 / np.asarray(lam, dtype=float).reshape(nx, ny)
    hx = np.diff(grid.x)
    hy = np.diff(grid.y)

    ix = np.arange(1, nx - 1)
    iy = np.arange(1, ny - 1)
    ixg, iyg = np.meshgrid(ix, iy, indexing="ij")
    p = (ixg * ny + iyg).ravel()
    ixf, iyf = ixg.ravel(), iyg.ravel()

    inv_c = inv[ixf, iyf]

    def face(inv_other):
        total = inv_c + inv_other
        return np.divide(2.0, total, out=np.zeros_like(total), where=total > 0)

    hxl, hxr = hx[ixf - 1], hx[ixf]
    wx = 0.5 * (hxl + hxr)
    lfl = face(inv[ixf - 1, iyf])
    lfr = face(inv[ixf + 1, iyf])
    hyl, hyr = hy[iyf - 1], hy[iyf]
    wy = 0.5 * (hyl + hyr)
    lfd = face(inv[ixf, iyf - 1])
    lfu = face(inv[ixf, iyf + 1])

    offsets = (-ny, ny, -1, 1, 0)
    vals = (
        lfl / (hxl * wx),
        lfr / (hxr * wx),
        lfd / (hyl * wy),
        lfu / (hyr * wy),
        -(lfl / hxl + lfr / hxr) / wx - (lfd / hyl + lfu / hyr) / wy,
    )
    cols = np.concatenate([p + d for d in offsets])
    return sp.csr_matrix((np.concatenate(vals), (np.tile(p, len(offsets)), cols)),
                         shape=(grid.n_points, grid.n_points))
