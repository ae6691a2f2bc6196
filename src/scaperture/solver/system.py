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
few rows at a time, the folded five-point London stencil is added in, and
the blocks are factored in place.  Every film point has a London row (a
grid whose film reaches its edge ring is refused), so h_z there is the
stencil applied to g; kernel rows, for h_z = h_a + K g, are kept only for
the hole, and made for the exterior when its h_z is first read.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from ctypes import CDLL, POINTER, c_char_p, c_double, c_int64, c_size_t, c_void_p
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np
from numpy._core import _multiarray_umath

from scaperture.geometry import ApertureGeometry, ConfigurationError, Dipole, FilmSpec, SolverError
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR, REGION_FILM, FieldMap, Grid
from scaperture.solver.kernel import folded_kernel_rows
from scaperture.solver.laplacian import STENCIL, apply_stencil, div_lambda_grad


# LAPACK's argument types in the ILP64 OpenBLAS that numpy >= 2 wheels bundle:
# 64-bit integers, and a trailing length (c_size_t) for each character argument
_C, _I, _D, _L = c_char_p, POINTER(c_int64), POINTER(c_double), c_size_t
_A, _P = (np.ctypeslib.ndpointer(dtype, flags="F_CONTIGUOUS") for dtype in (np.float64, np.int64))


def _routine(lib, name: str, restype, *argtypes):
    """LAPACK routine `name` of numpy's OpenBLAS `lib`, typed."""
    symbol = f"scipy_{name}_64_"
    try:
        routine = getattr(lib, symbol)
    except AttributeError:
        raise ImportError(f"{lib._name} resolves no LAPACK symbol {symbol}") from None
    routine.restype, routine.argtypes = restype, argtypes
    return routine


# numpy's core extension links its OpenBLAS: one BLAS and one thread pool per process
_openblas = CDLL(_multiarray_umath.__file__)
_dgetrf = _routine(_openblas, "dgetrf", None, _I, _I, _A, _I, _P, _I)
_dgetrs = _routine(_openblas, "dgetrs", None, _C, _I, _I, _A, _I, _P, _A, _I, _I, _L)
_dgecon = _routine(_openblas, "dgecon", None, _C, _I, _A, _I, _D, _D, _A, _P, _I, _L)
_dlange = _routine(_openblas, "dlange", c_double, _C, _I, _I, _A, _I, c_void_p, _L)


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
    """Physical H_z = -m / (4 pi r^3) (A/m) of the z dipole in its own plane,
    with the dipole's return flux restored.

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
    values = np.divide(-m, 4 * np.pi * r**3, out=np.zeros_like(r), where=e2 >= 1.0)
    bump = np.where((e2 < 1.0) & (grid.region == REGION_APERTURE), (1.0 - e2) ** 2, 0.0)
    support = bump @ grid.weights
    if not support > 0:
        raise ConfigurationError(
            "return-flux core has no aperture grid points; refine the grid "
            "near the dipole"
        )
    values = values - (values @ grid.weights) * bump / support
    return FieldMap(grid, values)


def _check_grid(grid: Grid) -> None:
    """The solver's grid assumptions: mirror symmetry, and no film on the edge ring."""
    for name, axis in (("x", grid.x), ("y", grid.y)):
        if not (np.array_equal(axis, -axis[::-1]) and np.all(axis != 0.0)):
            raise ConfigurationError(
                f"grid {name} axis must be the exact negation of itself with no "
                "point at 0; the solver splits the system by mirror parity"
            )
    region = grid.region.reshape(grid.n_x, grid.n_y)
    if not (np.array_equal(region, region[::-1, :]) and np.array_equal(region, region[:, ::-1])):
        raise ConfigurationError("grid region labels must be mirror-symmetric in x and y")
    if REGION_FILM in region[[0, -1]] or REGION_FILM in region[:, [0, -1]]:
        raise ConfigurationError("the film reaches the grid edge, where the London stencil has "
                                 "no row; raise n so that the grid extends beyond the film")


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


def _london_block(stencil: np.ndarray, film, hole, hole_w, b):
    """Entries (rows, columns, values) of parity block b's London part, from
    the coefficients `stencil`.  The unknowns are g on the quadrant points
    `film`, then in block 0 the constant I of the `hole` points, whose rows
    weighted by their cell areas `hole_w` sum to the fluxoid row.  The -x
    link of the first quadrant column and the -y link of the first row reach
    the point's own mirror image, so they fold into the centre with sx, sy.
    """
    c = _mirror_views(stencil)[0].copy()
    # planes 0, 1, 2 are the -x, -y and centre links (STENCIL)
    c[2, 0] += (-1.0 if b & 1 else 1.0) * c[0, 0]
    c[2, :, 0] += (-1.0 if b & 2 else 1.0) * c[1, :, 0]
    c[0, 0] = c[1, :, 0] = 0.0
    unknown, weight = np.full(c.shape[1:], -1), np.ones(c.shape[1:])  # -1: no unknown
    unknown.flat[film] = np.arange(len(film))
    if b == 0:
        unknown.flat[hole], weight.flat[hole] = len(film), hole_w
    # a link that wraps around has a zero coefficient: folded, or on the boundary ring
    cols = np.stack([np.roll(unknown, (-dx, -dy), axis=(0, 1)) for dx, dy in STENCIL])
    on = (unknown >= 0) & (cols >= 0) & (c != 0.0)
    return np.broadcast_to(unknown, cols.shape)[on], cols[on], (weight * c)[on]


_FOLD_VALUES = 2**16  # per corner table of a batch (512 KiB); 2**14 folds n = 120 1.5x slower


def _fold_kernel(grid: Grid, quad: np.ndarray, film, hole, hole_w, blocks, rows=None):
    """Kernel rows of the quadrant points `quad`, folded into the parity
    `blocks` on the unknowns of `_london_block`, per block (None if not in
    `blocks`): without `rows`, the system buffer in Fortran order (film rows,
    then in block 0 the fluxoid row, which sums the hole rows) and the hole
    rows; given `rows`, those rows alone.  Rows are made per quadrant column of
    n_y / 2 points, in windows whose corner tables hold at most `_FOLD_VALUES`
    values, from the first to the last asked for in each, and, since g = 0 on the
    exterior, only on the corner rectangle of quadrant cells that holds every film and hole point.
    """
    nq, chunk, n_film = len(quad), grid.n_y // 2, len(film)
    used = (grid.region[quad] != REGION_EXTERIOR).reshape(-1, chunk)
    cells = tuple(len(np.trim_zeros(used.any(axis=k), "b")) for k in (1, 0))
    # a quadrant point's column on that rectangle
    film_c, hole_c = (p // chunk * cells[1] + p % chunk for p in (film, hole))
    systems, kept = [None] * 4, [None] * 4
    for b in blocks:
        n = n_film + (b == 0)
        systems[b] = np.empty((n, n), order="F") if rows is None else None
        kept[b] = np.empty((len(hole if rows is None else rows), n))
    targets = [(film, systems), (hole, kept)] if rows is None else [(rows, kept)]
    step = max(1, _FOLD_VALUES // ((cells[0] + 1) * (cells[1] + 1)))  # rows per window
    windows = [(w, min(w + step, a + chunk)) for a in range(0, nq, chunk)
               for w in range(a, a + chunk, step)]
    for window in windows:
        # the window's points of each target are consecutive in its buffers
        spans = [np.searchsorted(points, window) for points, _ in targets]
        asked = np.concatenate([points[i:j] for (points, _), (i, j) in zip(targets, spans)])
        if not asked.size:
            continue
        lo = asked.min()
        folded = folded_kernel_rows(grid, quad[lo:asked.max() + 1], cells, blocks)
        for b, block in zip(blocks, folded):
            for (points, buffers), (i, j) in zip(targets, spans):
                out, at = buffers[b][i:j], points[i:j] - lo
                out[:, :n_film] = block[np.ix_(at, film_c)]
                if b == 0:
                    out[:, n_film] = block[np.ix_(at, hole_c)].sum(axis=1)
    if rows is None and 0 in blocks:
        systems[0][n_film] = hole_w @ kept[0]
    return (systems, kept) if rows is None else kept


@dataclass(frozen=True)
class StreamSolution:
    """Stream function g and reconstructed field.  h_z is made on its first
    read; `h_z_at` reads points on the film and in the aperture without
    folding the exterior's kernel rows."""

    g: FieldMap                  # amperes
    h_a: FieldMap                # the source actually applied, A/m
    aperture_current: float      # g on the aperture, amperes
    _h_z: Callable = field(repr=False)   # exterior -> h_z, beyond the film h_a unless exterior

    @cached_property
    def h_z(self) -> FieldMap:   # A/m
        return FieldMap(self.g.grid, self._h_z(True))

    def h_z_at(self, points):
        """h_z (A/m) at flat grid indices `points`; folds no row unless one is beyond the film."""
        return self._h_z(np.any(self.g.grid.region[points] == REGION_EXTERIOR))[points]


class BrandtSystem:
    """Assembled system for one geometry, film and grid.

    A parity block is assembled and factored the first time a solve has a
    nonzero source part of its parity, and reused for every later solve.
    """

    def __init__(self, geometry: ApertureGeometry, film: FilmSpec, grid: Grid):
        _check_grid(grid)
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
        self._stencil = div_lambda_grad(
            grid, np.where(grid.region == REGION_APERTURE, np.inf, lam_film))
        # a film point's system row is the London relation, so h_z there is
        # the operator applied to g; perfbench counts these as the unknowns
        self.solve_idx = np.flatnonzero(grid.region == REGION_FILM)
        flat = np.arange(grid.n_points).reshape(grid.n_x, grid.n_y)
        quad = self._quad = _mirror_views(flat)[0].ravel()
        region_q = grid.region[quad]
        self._film_q = np.flatnonzero(region_q == REGION_FILM)
        # I is even in x and in y, so the odd blocks have g = 0 on the hole
        self._hole_q = np.flatnonzero(region_q == REGION_APERTURE)
        self._hole_w = grid.weights[quad[self._hole_q]]
        self._outside = np.flatnonzero(region_q == REGION_EXTERIOR)
        # per block: LU factors with the row scale and the reciprocal condition
        # estimate, the hole's kernel rows (both by _factor), the exterior rows (by _h_z)
        self._factors, self._kernel, self._outside_rows = [None] * 4, [None] * 4, [None] * 4

    @property
    def condition_estimate(self) -> float:
        """Largest 1-norm condition estimate over the blocks factored so far;
        the even-even block, the worst conditioned on every preset, is
        factored first if none is."""
        if not any(self._factors):
            self._factor([0])
        rcond = min(factors[3] for factors in self._factors if factors is not None)
        # LAPACK's estimate is good to a small factor, and gecon's last digits
        # vary between runs with the same factors: keep 3 significant digits
        return float(f"{1.0 / max(rcond, 1e-300):.3g}")

    def _factor(self, blocks) -> None:
        """Assemble, row-scale and LU-factor the parity `blocks` in place, all
        from one pass over the kernel rows."""
        unknowns = (self._film_q, self._hole_q, self._hole_w)
        systems, kept = _fold_kernel(self.grid, self._quad, *unknowns, blocks)
        for b in blocks:
            system, (rows, cols, values) = systems[b], _london_block(self._stencil, *unknowns, b)
            np.add.at(system, (rows, cols), -values)
            row_scale = np.maximum(system.max(axis=1), -system.min(axis=1))
            # max and min propagate NaN and +-inf: this sees every entry
            if not np.isfinite(row_scale).all():
                raise SolverError("system has a non-finite entry")
            if np.any(row_scale == 0.0):
                raise SolverError("system has an empty row; grid is degenerate")
            system /= row_scale[:, None]
            n, piv, info = c_int64(len(system)), np.empty(len(system), np.int64), c_int64()
            anorm = _dlange(b"1", n, n, system, n, None, 1)  # work: only for norm "I"
            _dgetrf(n, n, system, n, piv, info)  # in place; piv is 1-based
            if info.value != 0:  # > 0: U has an exact zero on its diagonal
                raise SolverError(f"LU factorization failed: getrf info {info.value}")
            rcond = _reciprocal_condition(system, anorm)
            if rcond < 1e-14:
                raise SolverError(f"system is numerically singular (rcond {rcond:.2e} < 1e-14)")
            self._factors[b], self._kernel[b] = (system, piv, row_scale, rcond), kept[b]

    def solve_applied(self, h_a: FieldMap) -> StreamSolution:
        """Solve for an explicit applied-field map (A/m)."""
        shape = (self.grid.n_x, self.grid.n_y)
        images = _mirror_views(h_a.values.reshape(shape))
        parts = [_parity(*images, b).ravel() for b in range(4)]
        # a part that is exactly zero has zero g and K g
        excited = [b for b, part in enumerate(parts) if part.any()]
        missing = [b for b in excited if self._factors[b] is None]
        if missing:
            self._factor(missing)
        current, us, g_parts = 0.0, [None] * 4, np.zeros((4, len(self._quad)))
        for b in excited:
            lu, piv, row_scale, _ = self._factors[b]
            fluxoid = [self._hole_w @ parts[b][self._hole_q]] if b == 0 else []
            u = us[b] = -0.25 * np.append(parts[b][self._film_q], fluxoid) / row_scale
            n, one, info = c_int64(len(lu)), c_int64(1), c_int64()
            _dgetrs(b"N", n, one, lu, n, piv, u, n, info, 1)  # u: rhs, then solution
            if info.value != 0:
                raise SolverError(f"LU solve failed: getrs info {info.value}")
            g_parts[b][self._film_q] = u[:len(self._film_q)]
            if b == 0:
                current = g_parts[0][self._hole_q] = u[-1]  # I, even-even
        g = _unfold(g_parts.reshape(4, *images[0].shape), shape)
        return StreamSolution(g=FieldMap(self.grid, g), h_a=h_a, aperture_current=float(current),
                              _h_z=partial(self._h_z, h_a.values, g, us))

    def _h_z(self, h_a, g, us, exterior) -> np.ndarray:
        """h_z from h_a, g and the block solutions `us` (None if not excited): the
        London stencil on film rows, h_a + K g elsewhere, h_a alone beyond the film
        unless `exterior`.  Exterior rows an excited block lacks are folded first, once."""
        excited = [b for b, u in enumerate(us) if u is not None]
        missing = [b for b in excited if self._outside_rows[b] is None]
        if exterior and missing:
            folded = _fold_kernel(self.grid, self._quad, self._film_q, self._hole_q, self._hole_w,
                                  missing, rows=self._outside)
            for b in missing:
                self._outside_rows[b] = folded[b]
        parts = np.zeros((4, len(self._quad)))
        for b in excited:
            parts[b][self._hole_q] = self._kernel[b] @ us[b]
            if exterior:
                parts[b][self._outside] = self._outside_rows[b] @ us[b]
        hz = h_a + _unfold(parts.reshape(4, self.grid.n_x // 2, -1), (self.grid.n_x, self.grid.n_y))
        hz[self.solve_idx] = apply_stencil(self._stencil, g)[self.solve_idx]
        return hz

    def solve(self, dipole: Dipole) -> StreamSolution:
        if not self.geometry.contains(dipole.position[0], dipole.position[1]):
            raise ConfigurationError("dipole must sit inside the aperture")
        return self.solve_applied(compensated_source(dipole, self.grid))


def _reciprocal_condition(lu, anorm: float) -> float:
    """LAPACK 1-norm estimate from the LU factors and the matrix's 1-norm."""
    n, info, rcond = c_int64(len(lu)), c_int64(), c_double()
    work, iwork = np.empty(4 * len(lu)), np.empty(len(lu), np.int64)
    _dgecon(b"1", n, lu, n, c_double(anorm), rcond, work, iwork, info, 1)
    if info.value != 0:
        raise SolverError(f"condition estimate failed: gecon info {info.value}")
    return rcond.value
