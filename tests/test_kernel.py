import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scaperture.experiments.grids import scenario_grid
from scaperture.geometry import Circle, FilmSpec, default_film
from scaperture.grid import Grid, make_grid
from scaperture.solver.kernel import folded_kernel_rows
from scaperture.solver.system import _mirror_views, _parity

from kernel_oracles import boundary_correction, cell_integrated_kernel


def assemble_kernel(grid: Grid) -> np.ndarray:
    """Point-sampled kernel times cell weights (midpoint quadrature).

    Off-diagonal entries are -w_j / (4 pi |r_i - r_j|^3); the diagonal
    carries the sum rule.
    """
    pts = grid.points
    d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 + (pts[:, None, 1] - pts[None, :, 1]) ** 2
    np.fill_diagonal(d2, 1.0)
    qw = -grid.weights[None, :] / (4 * np.pi * d2**1.5)
    np.fill_diagonal(qw, 0.0)
    np.fill_diagonal(qw, boundary_correction(grid) - qw.sum(axis=1))
    return qw


def strip_kernel_rows(grid: Grid, rows) -> np.ndarray:
    """Rows of the cell-integrated kernel, assembled column strip by column
    strip from the corner term sqrt(u^2 + v^2) / (u v), set to 0 where u = 0
    or v = 0, and divided by 4 pi after differencing."""
    rows = np.asarray(rows)
    X = grid.half_extent
    xm = np.concatenate([[-X], 0.5 * (grid.x[1:] + grid.x[:-1]), [X]])
    ym = np.concatenate([[-X], 0.5 * (grid.y[1:] + grid.y[:-1]), [X]])
    px, py = grid.points[rows, 0], grid.points[rows, 1]
    v = ym[None, :] - py[:, None]

    def corner(u):
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.sqrt(u * u + v * v) / (u * v)
        return np.where((u == 0.0) | (v == 0.0), 0.0, f)

    ny = grid.n_y
    out = np.empty((len(rows), grid.n_points))
    for jx in range(grid.n_x):
        left, right = corner((xm[jx] - px)[:, None]), corner((xm[jx + 1] - px)[:, None])
        strip = right[:, 1:] - left[:, 1:] - right[:, :-1] + left[:, :-1]
        out[:, jx * ny:(jx + 1) * ny] = strip / (4 * np.pi)
    own = (np.arange(len(rows)), rows)
    out[own] = 0.0
    with np.errstate(divide="ignore"):
        out[own] = boundary_correction(grid)[rows] - out.sum(axis=1)
    return out


def fold(grid: Grid, whole_rows, cells) -> list:
    """The four parity folds of whole-grid rows of quadrant points, on the
    quadrant's first `cells` cells: what `folded_kernel_rows` returns."""
    images = _mirror_views(whole_rows.reshape(-1, grid.n_x, grid.n_y))
    return [_parity(*images, b)[:, :cells[0], :cells[1]].reshape(len(whole_rows), -1)
            for b in range(4)]


def quadrant(grid: Grid):
    """Flat indices of the +x,+y quadrant's points and its (n_x / 2, n_y / 2) cells."""
    hx, hy = grid.n_x // 2, grid.n_y // 2
    rows = ((hx + np.arange(hx))[:, None] * grid.n_y + hy + np.arange(hy)[None, :]).ravel()
    return rows, (hx, hy)


def row_error(got, want):
    """Largest |got - want| in each row over the row's largest |want|."""
    return np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)


def graded_grid(n):
    geom = Circle(1e-6)
    return scenario_grid(geom, default_film(geom), n, probe_x=0.9e-6)


def small_grid(n=16, ratio=1.0):
    geom = Circle(1.0)
    film = FilmSpec(film_half_extent=8.0, grid_half_extent=10.0)
    return make_grid(geom, film, n, n, ratio)


def test_offdiagonal_power_law():
    grid = small_grid()
    qw = assemble_kernel(grid)
    x = grid.x
    # uniform grid: pick pairs along one row separated by k and 2k columns
    iy = grid.n_y // 2
    p = 2 * grid.n_y + iy
    j1 = 4 * grid.n_y + iy   # distance 2 dx
    j2 = 6 * grid.n_y + iy   # distance 4 dx
    d1 = x[4] - x[2]
    d2 = x[6] - x[2]
    assert d2 == pytest.approx(2 * d1, rel=1e-9)
    assert qw[p, j2] / qw[p, j1] == pytest.approx(1 / 8, rel=1e-9)


def test_symmetry_with_uniform_weights():
    grid = small_grid()
    qw = assemble_kernel(grid)
    off = qw - np.diag(np.diag(qw))
    assert np.allclose(off, off.T, rtol=1e-12, atol=1e-18)


def test_boundary_correction_against_quadrature():
    # adaptive quadrature of 1/(4 pi s^3) over the plane outside the grid
    # square (four strips plus four corners), for one off-center point
    from scipy.integrate import dblquad

    grid = small_grid()
    X = grid.half_extent
    p = grid.index_of(3.3, -1.7)
    px, py = grid.points[p]

    def integrand(v, u):
        return 1.0 / (4 * np.pi * ((u - px) ** 2 + (v - py) ** 2) ** 1.5)

    regions = [
        (X, np.inf, -X, X),       # right strip
        (-np.inf, -X, -X, X),     # left strip
        (-X, X, X, np.inf),       # top strip
        (-X, X, -np.inf, -X),     # bottom strip
        (X, np.inf, X, np.inf),   # corners
        (X, np.inf, -np.inf, -X),
        (-np.inf, -X, X, np.inf),
        (-np.inf, -X, -np.inf, -X),
    ]
    val = sum(
        dblquad(integrand, u1, u2, v1, v2, epsabs=1e-12, epsrel=1e-10)[0]
        for u1, u2, v1, v2 in regions
    )
    got = boundary_correction(grid)[p]
    assert got == pytest.approx(val, rel=1e-8)


def test_sum_rule_row_sums():
    grid = small_grid()
    qw = assemble_kernel(grid)
    c = boundary_correction(grid)
    assert np.allclose(qw.sum(axis=1), c, rtol=1e-10)
    qwc = cell_integrated_kernel(grid)
    assert np.allclose(qwc.sum(axis=1), c, rtol=1e-10)


def test_uniform_patch_far_field_small():
    # constant g over a small central patch: the field a few patch sizes
    # away is tiny compared with the near field (screening is local)
    grid = small_grid()
    pts = grid.points
    patch = (np.abs(pts[:, 0]) < 1.0) & (np.abs(pts[:, 1]) < 1.0)
    g = patch.astype(float)
    qw = cell_integrated_kernel(grid)
    h = qw @ g
    near = np.abs(h[patch]).max()
    far = np.abs(h[(np.abs(pts[:, 0]) > 6.0) & (np.abs(pts[:, 1]) > 6.0)]).max()
    assert far < 2e-3 * near


def test_cell_integration_matches_brute_force():
    grid = small_grid(n=16)
    qwc = cell_integrated_kernel(grid)
    x, y = grid.x, grid.y
    X = grid.half_extent
    xm = np.concatenate([[-X], 0.5 * (x[1:] + x[:-1]), [X]])
    ym = np.concatenate([[-X], 0.5 * (y[1:] + y[:-1]), [X]])
    p = 3 * grid.n_y + 5
    px, py = grid.points[p]
    rng = np.random.default_rng(0)
    for _ in range(5):
        jx = rng.integers(0, grid.n_x)
        jy = rng.integers(0, grid.n_y)
        j = jx * grid.n_y + jy
        if j == p:
            continue
        xs = np.linspace(xm[jx], xm[jx + 1], 400)
        ys = np.linspace(ym[jy], ym[jy + 1], 400)
        xc = 0.5 * (xs[1:] + xs[:-1])
        yc = 0.5 * (ys[1:] + ys[:-1])
        XX, YY = np.meshgrid(xc, yc, indexing="ij")
        s2 = (XX - px) ** 2 + (YY - py) ** 2
        brute = -np.sum(1 / (4 * np.pi * s2**1.5)) * (xs[1] - xs[0]) * (ys[1] - ys[0])
        assert qwc[p, j] == pytest.approx(brute, rel=2e-4)


def test_cell_integration_approaches_midpoint_far_away():
    grid = small_grid()
    qw = assemble_kernel(grid)
    qwc = cell_integrated_kernel(grid)
    p = grid.index_of(-8.0, -8.0)
    j = grid.index_of(8.0, 8.0)
    assert qwc[p, j] == pytest.approx(qw[p, j], rel=1e-2)


@pytest.mark.parametrize("n", [40, 60, 120])
def test_oracle_rows_sum_to_the_outside_integral(n):
    # the sum rule, which the folded rows get from their plain second
    # difference: a row telescopes to the integral outside the grid square.
    # Summing cancels the self entry, about 1e4 times the outside integral
    # on these grids, so the bound is on the row's own scale
    grid = graded_grid(n)
    rows = np.sort(np.random.default_rng(n).choice(grid.n_points, 100, replace=False))
    kernel = cell_integrated_kernel(grid, rows)
    own = kernel[np.arange(len(rows)), rows]
    assert np.all(own == np.abs(kernel).max(axis=1))
    gap = np.abs(kernel.sum(axis=1) - boundary_correction(grid)[rows])
    assert np.all(gap <= 1e-13 * own)


@pytest.mark.parametrize("n", [16, 32, 48, 64])
def test_kernel_rows_match_strip_oracle(n):
    grid = graded_grid(n)
    quad, cells = quadrant(grid)
    rng = np.random.default_rng(n)
    # the quadrant's corners, the points next to the aperture edge and a sample
    edge = np.flatnonzero(np.abs(np.hypot(*grid.points[quad].T) - 1e-6) < 0.1e-6)
    picks = np.concatenate([[0, cells[1] - 1, len(quad) - cells[1], len(quad) - 1], edge,
                            rng.choice(len(quad), 50, replace=False)])
    rows = quad[np.unique(picks)]
    got = folded_kernel_rows(grid, rows, cells, range(4))
    whole = strip_kernel_rows(grid, rows)
    # the round-off of a fold is on the scale of the whole row's peak
    peak = np.abs(whole).max(axis=1)
    for block, want in zip(got, fold(grid, whole, cells)):
        assert np.all(np.abs(block - want).max(axis=1) <= 1e-14 * peak)


def test_kernel_rows_on_the_grid_edge_match_strip_oracle():
    # points on the grid square's edges x = X and y = X put u = 0 and v = 0
    # on outer cell corners, where the corner term takes its zero limit
    X = 1.0
    x = np.concatenate([[-X], np.linspace(-0.8, 0.8, 8), [X]])
    y = np.concatenate([[-X], np.linspace(-0.7, 0.7, 6), [X]])
    grid = Grid(x=x, y=y, half_extent=X, region=np.zeros(len(x) * len(y), dtype=np.uint8))
    rows, cells = quadrant(grid)
    got = folded_kernel_rows(grid, rows, cells, range(4))
    with np.errstate(divide="ignore"):
        folded = fold(grid, strip_kernel_rows(grid, rows), cells)
    # the oracle's sum rule diverges on the grid's edge, and only in a row's
    # own cell: there the outside integral is infinite
    on_edge = (grid.points[rows, 0] == X) | (grid.points[rows, 1] == X)
    own = np.eye(len(rows), dtype=bool)
    for block, want in zip(got, folded):
        assert np.all(np.isfinite(block))
        assert np.array_equal(~np.isfinite(want), own & on_edge[:, None])
        finite = np.where(np.isfinite(want), want, 0.0)
        assert row_error(np.where(np.isfinite(want), block, 0.0), finite).max() <= 1e-14


BATCH_GRID = graded_grid(24)
QUADRANT, QUADRANT_CELLS = quadrant(BATCH_GRID)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, len(QUADRANT)), min_size=2, max_size=6))
def test_kernel_rows_do_not_depend_on_the_batch(bounds):
    # _fold_kernel makes a block's rows a batch at a time: any split of a run
    # of quadrant rows must give the rows of one call bit for bit
    bounds = sorted(bounds)
    rows = QUADRANT[bounds[0]:bounds[-1]]
    pieces = [folded_kernel_rows(BATCH_GRID, QUADRANT[a:b], QUADRANT_CELLS, range(4))
              for a, b in zip(bounds, bounds[1:])]
    whole = folded_kernel_rows(BATCH_GRID, rows, QUADRANT_CELLS, range(4))
    for b in range(4):
        assert np.array_equal(np.concatenate([piece[b] for piece in pieces]), whole[b])
