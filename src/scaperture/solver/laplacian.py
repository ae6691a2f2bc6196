"""Finite-difference operators on the non-equidistant tensor grid."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from scaperture.grid import Grid


def div_lambda_grad(grid: Grid, lam: np.ndarray) -> sp.csr_matrix:
    """Flux-form operator div(Lambda grad g) with harmonic face means.

    For uniform Lambda this equals Lambda times the five-point Laplacian on
    any spacing.  The divergence form is what suppresses currents inside
    huge-Lambda regions (apertures); scaling Laplacian rows by a per-point
    Lambda would only penalize curvature and let current leak through.
    """
    nx, ny = grid.n_x, grid.n_y
    lamg = np.asarray(lam, dtype=float).reshape(nx, ny)
    hx = np.diff(grid.x)
    hy = np.diff(grid.y)

    rows, cols, vals = [], [], []
    ix = np.arange(1, nx - 1)
    iy = np.arange(1, ny - 1)
    ixg, iyg = np.meshgrid(ix, iy, indexing="ij")
    p = (ixg * ny + iyg).ravel()
    ixf, iyf = ixg.ravel(), iyg.ravel()

    lc = lamg[ixf, iyf]

    def face(lother):
        return 2.0 * lc * lother / (lc + lother)

    hxl, hxr = hx[ixf - 1], hx[ixf]
    wx = 0.5 * (hxl + hxr)
    lfl = face(lamg[ixf - 1, iyf])
    lfr = face(lamg[ixf + 1, iyf])
    hyl, hyr = hy[iyf - 1], hy[iyf]
    wy = 0.5 * (hyl + hyr)
    lfd = face(lamg[ixf, iyf - 1])
    lfu = face(lamg[ixf, iyf + 1])

    for dcol, val in (
        (-ny, lfl / (hxl * wx)),
        (ny, lfr / (hxr * wx)),
        (-1, lfd / (hyl * wy)),
        (1, lfu / (hyr * wy)),
        (0, -(lfl / hxl + lfr / hxr) / wx - (lfd / hyl + lfu / hyr) / wy),
    ):
        rows.append(p)
        cols.append(p + dcol)
        vals.append(val)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_points, grid.n_points))
