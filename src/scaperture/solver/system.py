"""Finite-penetration-depth stream-function solver.

Builds the dense system coupling the sheet-current kernel with the 2D
London relation and solves for the stream function g, from which the
perpendicular field follows by the discretized Ampere sum.  As in Brandt's
treatment of holes in thin films (E. H. Brandt, PRB 72, 024529 (2005)), g
on the aperture is one unknown constant, the circulating current I, closed
by one fluxoid row: the cell-area-weighted sum of the aperture rows.
Exterior points carry g = 0 and are eliminated.

Grid and aperture are mirror-symmetric in x and in y, so the system splits
into four blocks, one per parity (even/odd in x times even/odd in y), each
over the +x,+y quadrant; I is even-even, so the odd blocks have g = 0 on
the aperture.  A block is assembled and factored the first time a source
has a nonzero part of its parity (a centred dipole excites only the
even-even block): the quadrant's kernel rows are folded into the blocks a
few rows at a time, and the blocks are factored in place.  On a film row
the system row is the London relation, so h_z there is the sparse operator
applied to g; kernel rows, for h_z = h_a + K g, are kept only elsewhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp

from scaperture.geometry import ApertureGeometry, ConfigurationError, Dipole, FilmSpec, SolverError
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR, REGION_FILM, FieldMap, Grid
from scaperture.solver.kernel import folded_kernel_rows
from scaperture.solver.laplacian import div_lambda_grad


def _z_moment(dipole: Dipole) -> float:
    m = dipole.moment
    if abs(m[2]) < 0.999999 * np.linalg.norm(m):
        raise ConfigurationError("the numeric engine requires a z-oriented dipole")
    return float(m[2])


def core_radii(grid: Grid, dipole: Dipole):
    """Return-flux core semi-axes: as small as grid support allows.

    The raw tail should survive everywhere the physics is read off, so the
    core only needs to cover a couple of cells around the dipole, 2.2 times
    the grid interval that contains it along each axis; the bump itself is
    restricted to aperture points.
    """
    radii = []
    for axis, value in ((grid.x, dipole.position[0]), (grid.y, dipole.position[1])):
        i = min(max(int(np.searchsorted(axis, value, side="right")) - 1, 0), len(axis) - 2)
        radii.append(2.2 * float(axis[i + 1] - axis[i]))
    return tuple(radii)


def compensated_source(dipole: Dipole, grid: Grid) -> FieldMap:
    """Applied field m / (2 pi r^3) (A/m) with the dipole's return flux restored.

    r is the in-plane distance to the dipole.  The raw 1/r^3 sample has
    grid-dependent net flux, while the true in-plane dipole carries none;
    the field inside an elliptical core around the dipole is replaced by a
    smooth bump over aperture points sized so the sampled source has
    exactly zero net flux.
    """
    if dipole.position[2] != 0.0:
        raise ConfigurationError("the numeric engine takes in-plane sources (z = 0)")
    m = _z_moment(dipole)
    rcx, rcy = core_radii(grid, dipole)
    pts = grid.points
    dx = pts[:, 0] - dipole.position[0]
    dy = pts[:, 1] - dipole.position[1]
    r = np.hypot(dx, dy)
    e2 = (dx / rcx) ** 2 + (dy / rcy) ** 2
    values = np.divide(m, 2 * np.pi * r**3, out=np.zeros_like(r), where=e2 >= 1.0)
    bump = np.where((e2 < 1.0) & (grid.region == REGION_APERTURE), (1.0 - e2) ** 2, 0.0)
    support = bump @ grid.weights
    if not support > 0:
        raise ConfigurationError(
            "return-flux core has no aperture grid points; refine the grid "
            "near the dipole"
        )
    values = values - (values @ grid.weights) * bump / support
    return FieldMap(grid, values)


def _check_mirror_symmetric(grid: Grid) -> None:
    for name, axis in (("x", grid.x), ("y", grid.y)):
        if not (np.array_equal(axis, -axis[::-1]) and np.all(axis != 0.0)):
            raise ConfigurationError(
                f"grid {name} axis must be the exact negation of itself with no "
                "point at 0; the solver splits the system by mirror parity"
            )
    region = grid.region.reshape(grid.n_x, grid.n_y)
    if not (np.array_equal(region, region[::-1, :]) and np.array_equal(region, region[:, ::-1])):
        raise ConfigurationError("grid region labels must be mirror-symmetric in x and y")


def _mirror_views(a: np.ndarray):
    """Views of the last two (x, y) axes on the +x,+y quadrant and on its
    images under x -> -x, y -> -y and both, each indexed outward from the axes."""
    hx, hy = a.shape[-2] // 2, a.shape[-1] // 2
    px, mx = slice(hx, None), slice(hx - 1, None, -1)
    py, my = slice(hy, None), slice(hy - 1, None, -1)
    return a[..., px, py], a[..., mx, py], a[..., px, my], a[..., mx, my]


def _parity(q, qx, qy, qxy, b):
    """Parity block b of four quadrant arrays: q + sx qx + sy qy + sx sy qxy,
    summed as (q + sx qx) + sy (qy + sx qxy).

    b = 0, 1, 2, 3 is (sx, sy) = (+, +), (-, +), (+, -), (-, -): even x even
    y, odd x even y, even x odd y, odd x odd y.  Applied to the four mirror
    images (the order of _mirror_views) it folds them into parity blocks;
    the sign table is symmetric, so applied to the four parity parts it
    unfolds them into mirror images.
    """
    x, y = (q - qx, qy - qxy) if b & 1 else (q + qx, qy + qxy)
    return x - y if b & 2 else x + y


def _unfold(parts, shape) -> np.ndarray:
    """Whole-grid values (flat) from the four parity parts on the quadrant."""
    out = np.empty(shape)
    for b, view in enumerate(_mirror_views(out)):
        view[...] = _parity(*parts, b)
    return out.ravel()


def _block_maps(film: np.ndarray, hole, weights: np.ndarray):
    """Sparse maps between the quadrant and one parity block's unknowns: g on
    the quadrant points `film`, then, given a `hole`, the aperture's constant I.

    `collapse` gives quadrant g from the unknowns (0 elsewhere); `fold` gives
    the block's rows from quadrant rows: the film rows, then with a hole the
    fluxoid row, the sum of the hole rows weighted by `weights` (cell areas).
    """
    points = film if hole is None else np.concatenate([film, hole])
    unknowns = np.minimum(np.arange(len(points)), len(film))  # the hole's are all I
    shape = (len(weights), len(film) + (hole is not None))
    collapse = sp.csr_matrix((np.ones(len(points)), (points, unknowns)), shape=shape)
    fold = sp.csr_matrix((weights[points], (unknowns, points)), shape=shape[::-1])
    return collapse, fold


def _fold_kernel(grid: Grid, quad: np.ndarray, film: np.ndarray, keep: np.ndarray, maps):
    """Kernel rows of the quadrant points `quad`, folded into the parity blocks.

    Block b's kernel part is fold @ K_b @ collapse with the `maps[b]` of
    `_block_maps`; it is returned in a Fortran-order system buffer, with the
    block's rows `keep` on its unknowns (unscaled).  A block whose `maps[b]`
    is None is skipped and gets None for both.  Folded rows are made n_y / 2
    at a time, and since g = 0 on the exterior, only on the corner rectangle
    of the quadrant's cells that holds every film and hole point; the
    fluxoid row sums kept hole rows.
    """
    nq, chunk = len(quad), grid.n_y // 2
    used = (grid.region[quad] != REGION_EXTERIOR).reshape(-1, chunk)
    cells = tuple(len(np.trim_zeros(used.any(axis=k), "b")) for k in (1, 0))
    on_cells = np.arange(nq).reshape(used.shape)[:cells[0], :cells[1]].ravel()
    wanted = [b for b, m in enumerate(maps) if m is not None]
    systems, kept = [None] * len(maps), [None] * len(maps)
    # rows @ collapse is (collapse.T @ rows.T).T: transpose the maps once
    collapse_t = [None if m is None else m[0][on_cells].T for m in maps]
    for b in wanted:
        n_unknowns = maps[b][1].shape[0]
        systems[b] = np.empty((n_unknowns, n_unknowns), order="F")
        kept[b] = np.empty((len(keep), n_unknowns))
    for a in range(0, nq, chunk):
        blocks = folded_kernel_rows(grid, quad[a:a + chunk], cells, wanted)
        # the chunk's rows of film and of keep are consecutive in the buffers
        f0, f1 = np.searchsorted(film, [a, a + chunk])
        k0, k1 = np.searchsorted(keep, [a, a + chunk])
        for b, block in zip(wanted, blocks):
            systems[b][f0:f1] = (collapse_t[b] @ block[film[f0:f1] - a].T).T
            kept[b][k0:k1] = (collapse_t[b] @ block[keep[k0:k1] - a].T).T
    for b in wanted:
        systems[b][len(film):] = maps[b][1][len(film):, keep] @ kept[b]
    return systems, kept


@dataclass(frozen=True)
class StreamSolution:
    """Stream function g and reconstructed field."""

    g: FieldMap                  # amperes
    h_z: FieldMap                # A/m
    h_a: FieldMap                # the source actually applied, A/m
    aperture_current: float      # g on the aperture, amperes


class BrandtSystem:
    """Assembled system for one geometry, film and grid.

    A parity block is assembled and factored the first time a solve has a
    nonzero source part of its parity, and reused for every later solve.
    """

    def __init__(self, geometry: ApertureGeometry, film: FilmSpec, grid: Grid):
        film.check_against(geometry)
        _check_mirror_symmetric(grid)
        lam_film = film.pearl_length
        if lam_film <= 0:
            raise ConfigurationError("pearl length must be positive")
        self.geometry = geometry
        self.film = film
        self.grid = grid

        h_min = min(np.diff(grid.x).min(), np.diff(grid.y).min())
        if lam_film < 0.05 * h_min:
            warnings.warn(
                "pearl length is far below the finest grid spacing; the "
                "screening boundary layer is unresolved and the inversion "
                "may be rough",
                stacklevel=2,
            )

        # Lambda is infinite on the aperture: no face between two aperture
        # points carries current, and a film-aperture face carries 2 Lambda
        lattice = div_lambda_grad(grid, np.where(grid.region == REGION_APERTURE, np.inf, lam_film))
        # the system row of a film point with an operator row is the London
        # relation, so h_z there is the operator applied to g
        film_rows = (grid.region == REGION_FILM) & (np.diff(lattice.indptr) > 0)
        self._film = np.flatnonzero(film_rows)
        self._london = lattice[self._film]

        self.solve_idx = np.flatnonzero(grid.region == REGION_FILM)
        flat = np.arange(grid.n_points).reshape(grid.n_x, grid.n_y)
        images = [v.ravel() for v in _mirror_views(flat)]
        quad = self._quad = images[0]
        region_q = grid.region[quad]
        self._film_q = np.flatnonzero(region_q == REGION_FILM)
        hole_q = np.flatnonzero(region_q == REGION_APERTURE)
        weights = np.where(region_q == REGION_APERTURE, grid.weights[quad], 1.0)
        # I is even in x and in y, so the odd blocks have g = 0 on the hole
        self._maps = [_block_maps(self._film_q, hole_q if b == 0 else None, weights)
                      for b in range(4)]
        self._keep = np.flatnonzero(~film_rows[quad])
        lattice_q = lattice[quad]
        lattice_images = [lattice_q[:, cols] for cols in images]
        self._lattice = [(fold @ _parity(*lattice_images, b) @ collapse).tocoo()
                         for b, (collapse, fold) in enumerate(self._maps)]
        # per block, filled by _factor: LU factors with the row scale, the
        # kept kernel rows and the reciprocal condition estimate
        self._factors, self._kernel, self._rcond = [None] * 4, [None] * 4, [None] * 4

    @property
    def condition_estimate(self) -> float:
        """Largest 1-norm condition estimate over the blocks factored so far;
        the even-even block, the worst conditioned on every preset, is
        factored first if none is."""
        if not any(self._factors):
            self._factor([0])
        rcond = min(r for r in self._rcond if r is not None)
        # LAPACK's estimate is good to a small factor, and gecon's last digits
        # vary between runs with the same factors: keep 3 significant digits
        return float(f"{1.0 / max(rcond, 1e-300):.3g}")

    def _factor(self, blocks) -> None:
        """Assemble, row-scale and LU-factor the parity `blocks` in place, all
        from one pass over the kernel rows."""
        maps = [m if b in blocks else None for b, m in enumerate(self._maps)]
        systems, kept = _fold_kernel(self.grid, self._quad, self._film_q, self._keep, maps)
        for b in blocks:
            system, lat = systems[b], self._lattice[b]
            system[lat.row, lat.col] -= lat.data  # a product: no repeated entry
            row_scale = np.maximum(system.max(axis=1), -system.min(axis=1))
            if np.any(row_scale == 0.0):
                raise SolverError("system has an empty row; grid is degenerate")
            system /= row_scale[:, None]
            # np.linalg.norm(system, 1), without a temporary |system|
            anorm = max(np.abs(system[:, j:j + 256]).sum(axis=0).max()
                        for j in range(0, len(system), 256))
            try:
                lu_piv = la.lu_factor(system, overwrite_a=True, check_finite=True)
            except la.LinAlgError as exc:
                raise SolverError(f"factorization failed: {exc}") from exc
            rcond = _reciprocal_condition(lu_piv[0], anorm)
            if rcond < 1e-14:
                raise SolverError(
                    f"system is numerically singular (condition ~ {1.0 / max(rcond, 1e-300):.2e})"
                )
            self._factors[b], self._kernel[b], self._rcond[b] = (lu_piv, row_scale), kept[b], rcond

    def solve_applied(self, h_a: FieldMap) -> StreamSolution:
        """Solve for an explicit applied-field map (A/m)."""
        shape = (self.grid.n_x, self.grid.n_y)
        images = _mirror_views(h_a.values.reshape(shape))
        parts = [_parity(*images, b) for b in range(4)]
        # a part that is exactly zero has zero g and K g
        excited = [b for b, part in enumerate(parts) if part.any()]
        missing = [b for b in excited if self._factors[b] is None]
        if missing:
            self._factor(missing)
        current, g_parts, kg_parts = 0.0, [], []
        for b, part in enumerate(parts):
            g_part, kg_part = np.zeros(part.size), np.zeros(part.size)
            if b in excited:
                (lu_piv, row_scale), (collapse, fold) = self._factors[b], self._maps[b]
                u = la.lu_solve(lu_piv, -0.25 * (fold @ part.ravel()) / row_scale)
                g_part = collapse @ u
                kg_part[self._keep] = self._kernel[b] @ u
                if b == 0:
                    current = u[-1]  # I, even-even
            g_parts.append(g_part.reshape(part.shape))
            kg_parts.append(kg_part.reshape(part.shape))
        g = _unfold(g_parts, shape)
        hz = h_a.values + _unfold(kg_parts, shape)
        hz[self._film] = self._london @ g
        return StreamSolution(g=FieldMap(self.grid, g), h_z=FieldMap(self.grid, hz),
                              h_a=h_a, aperture_current=float(current))

    def solve(self, dipole: Dipole) -> StreamSolution:
        if not self.geometry.contains(dipole.position[0], dipole.position[1]):
            raise ConfigurationError("dipole must sit inside the aperture")
        return self.solve_applied(compensated_source(dipole, self.grid))


def _reciprocal_condition(lu, anorm) -> float:
    """LAPACK 1-norm estimate from the LU factors and the matrix's 1-norm."""
    gecon = la.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, anorm, norm="1")
    return float(rcond)
