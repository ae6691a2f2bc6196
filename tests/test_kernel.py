import numpy as np
import pytest

from scaperture.geometry import Circle, FilmSpec
from scaperture.grid import Grid, make_grid
from scaperture.solver.kernel import boundary_correction, cell_integrated_kernel


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
