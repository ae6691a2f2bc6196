import numpy as np
import pytest
import scipy.sparse as sp

from scaperture.geometry import Circle, FilmSpec
from scaperture.grid import Grid, make_grid
from scaperture.solver.laplacian import apply_stencil, div_lambda_grad

from kernel_oracles import compact_film, dense_london


# the plain five-point Laplacian, the reference div_lambda_grad reduces to
# for uniform Lambda
def _stencil_1d(coords):
    """(left, center, right) second-derivative coefficients per interior point."""
    n = len(coords)
    out = np.zeros((n, 3))
    h = np.diff(coords)
    hl, hr = h[:-1], h[1:]
    out[1:-1, 0] = 2.0 / (hl * (hl + hr))
    out[1:-1, 1] = -2.0 / (hl * hr)
    out[1:-1, 2] = 2.0 / (hr * (hl + hr))
    return out


def assemble_laplacian(grid: Grid) -> sp.csr_matrix:
    """Five-point Laplacian, exact for separable quadratics on any spacing.

    Grid-boundary points get empty rows; they are eliminated from every
    solve as exterior points.
    """
    nx, ny = grid.n_x, grid.n_y
    sx = _stencil_1d(grid.x)
    sy = _stencil_1d(grid.y)
    rows, cols, vals = [], [], []
    ix = np.arange(1, nx - 1)
    iy = np.arange(1, ny - 1)
    ixg, iyg = np.meshgrid(ix, iy, indexing="ij")
    p = (ixg * ny + iyg).ravel()
    ixf, iyf = ixg.ravel(), iyg.ravel()
    for dcol, val in (
        (-ny, sx[ixf, 0]),
        (0, sx[ixf, 1] + sy[iyf, 1]),
        (ny, sx[ixf, 2]),
        (-1, sy[iyf, 0]),
        (1, sy[iyf, 2]),
    ):
        rows.append(p)
        cols.append(p + dcol)
        vals.append(val)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.n_points, grid.n_points))


def grid_with_ratio(n, ratio):
    with compact_film(8.0, 10.0):
        return make_grid(Circle(1.0), FilmSpec(), n, ratio)


def interior_mask(grid):
    m = np.zeros((grid.n_x, grid.n_y), dtype=bool)
    m[1:-1, 1:-1] = True
    return m.ravel()


def test_constant_annihilated():
    grid = grid_with_ratio(24, 30.0)
    lap = assemble_laplacian(grid)
    out = lap @ np.ones(grid.n_points)
    assert np.abs(out[interior_mask(grid)]).max() < 1e-8


def test_exact_on_quadratics_uniform():
    grid = grid_with_ratio(24, 1.0)
    lap = assemble_laplacian(grid)
    pts = grid.points
    g = pts[:, 0] ** 2 + pts[:, 1] ** 2
    out = lap @ g
    inner = interior_mask(grid)
    assert np.allclose(out[inner], 4.0, rtol=1e-12)


def test_exact_on_separable_quadratics_nonuniform():
    grid = grid_with_ratio(24, 40.0)
    lap = assemble_laplacian(grid)
    pts = grid.points
    g = 3.0 * pts[:, 0] ** 2 - 2.0 * pts[:, 1] ** 2
    out = lap @ g
    inner = interior_mask(grid)
    assert np.allclose(out[inner], 2.0, rtol=1e-7)


def test_cubic_error_scales_with_spacing():
    # error on x^3 at a fixed physical location shrinks as the grid refines
    errs = []
    for n in (20, 40, 80):
        grid = grid_with_ratio(n, 10.0)
        lap = assemble_laplacian(grid)
        pts = grid.points
        out = lap @ pts[:, 0] ** 3
        p = grid.index_of(4.0, 4.0)
        errs.append(abs(out[p] - 6.0 * grid.points[p, 0]))
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_divergence_form_reduces_to_laplacian_for_uniform_lambda():
    grid = grid_with_ratio(20, 25.0)
    lam = np.full(grid.n_points, 0.37)
    op = dense_london(grid, lam)
    ref = 0.37 * assemble_laplacian(grid).toarray()
    scale = np.abs(ref).max()
    assert np.abs(op - ref).max() < 1e-12 * scale


def test_divergence_form_blocks_gradient_through_barrier():
    # a huge-Lambda stripe forces the flux operator to suppress the response
    # to a linear ramp inside the stripe
    grid = grid_with_ratio(20, 1.0)
    lam = np.ones(grid.n_points)
    pts = grid.points
    stripe = np.abs(pts[:, 0]) < 2.0
    lam[stripe] = 1e8
    op = dense_london(grid, lam)
    g = pts[:, 0].copy()
    out = op @ g
    inner = interior_mask(grid)
    # rows fully inside the stripe see a uniform gradient: flux form gives
    # (huge) * 0 curvature contributions that cancel; rows at the stripe
    # boundary must produce enormous values, penalizing the through-current
    boundary_rows = inner & (np.abs(np.abs(pts[:, 0]) - 2.0) < 1.2)
    assert np.abs(out[boundary_rows]).max() > 1e6


def test_infinite_lambda_is_the_boost_limit():
    # an infinite-Lambda stripe: faces inside it carry 0, faces toward the
    # finite side carry the large-Lambda limit 2 Lambda, no entry is infinite
    grid = grid_with_ratio(20, 1.0)
    lam = np.ones(grid.n_points)
    stripe = np.abs(grid.points[:, 0]) < 2.0
    lam[stripe] = np.inf
    op = dense_london(grid, lam)
    assert np.all(np.isfinite(op))
    boosted = lam.copy()
    boosted[stripe] = 1e12
    limit = dense_london(grid, boosted)
    scale = np.abs(op).max()
    # rows off the stripe, and the stripe rows' couplings off the stripe
    assert np.abs(op[~stripe] - limit[~stripe]).max() <= 1e-9 * scale
    assert np.abs(op[np.ix_(stripe, ~stripe)] - limit[np.ix_(stripe, ~stripe)]).max() <= 1e-9 * scale
    inside = op[np.ix_(stripe, stripe)]
    assert not (inside - np.diag(np.diag(inside))).any()
    # constants are still annihilated
    assert np.abs(op.sum(axis=1)).max() <= 1e-12 * scale


def test_coefficients_and_their_application():
    # zero on the boundary ring; applied to g they are the dense operator's product
    grid = grid_with_ratio(20, 25.0)
    lam = np.where(np.abs(grid.points[:, 0]) < 2.0, np.inf, 0.37)
    coef = div_lambda_grad(grid, lam)
    assert coef.shape == (5, grid.n_x, grid.n_y)
    ring = ~interior_mask(grid).reshape(grid.n_x, grid.n_y)
    assert not coef[:, ring].any()
    g = np.random.default_rng(3).standard_normal(grid.n_points)
    want = dense_london(grid, lam) @ g
    assert np.abs(apply_stencil(coef, g) - want).max() <= 1e-14 * np.abs(want).max()
