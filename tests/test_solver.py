import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.linalg as la

from scaperture.constants import DEFAULT_MOMENT, ELECTRON_G, BOHR_MAGNETON
from scaperture.experiments.grids import scenario_grid
from scaperture.geometry import Circle, ConfigurationError, Dipole, FilmSpec, default_film
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR, REGION_FILM, FieldMap, make_grid
from scaperture.io.config import preset_config
from scaperture.solver import system as system_module
from scaperture.solver.system import BrandtSystem, compensated_source

from kernel_oracles import cell_integrated_kernel

R = 1e-6
D_PROBE = 100e-9


def z_dipole(m=DEFAULT_MOMENT, x=0.0, y=0.0):
    return Dipole(position=[x, y, 0.0], moment=[0.0, 0.0, m])


def centered_grid(n=40, ratio=125.0):
    geom = Circle(R)
    film = default_film(geom)
    grid = make_grid(
        geom,
        film,
        n,
        n,
        ratio,
        refine_x=[0.0],
        refine_y=[0.0],
        anchor_x=[R - D_PROBE],
        anchor_y=[5e-9],
    )
    return geom, film, grid


def test_applied_field_magnitude():
    # independent constants arithmetic: m = 2 g mu_B evaluated directly;
    # outside the return-flux core the source is m / (2 pi r^3)
    m = 2 * ELECTRON_G * BOHR_MAGNETON
    assert m == pytest.approx(3.7139e-23, rel=1e-4)
    geom, film, grid = centered_grid(n=24)
    ha = compensated_source(z_dipole(m), grid)
    p = grid.index_of(1e-6, 0.0)
    r = np.hypot(*grid.points[p])
    assert ha.values[p] == pytest.approx(m / (2 * np.pi * r**3), rel=1e-12)


def test_applied_field_inverse_cube():
    geom, film, grid = centered_grid(n=24)
    ha = compensated_source(z_dipole(), grid).values
    pts = grid.points
    r = np.hypot(pts[:, 0], pts[:, 1])
    i = np.argmin(np.abs(r - 2e-6))
    j = np.argmin(np.abs(r - 4e-6))
    expect = (r[i] / r[j]) ** 3
    assert ha[j] / ha[i] == pytest.approx(1 / expect**0 * (r[i] ** 3 / r[j] ** 3), rel=1e-12)


def test_applied_field_azimuthal_symmetry():
    geom, film, grid = centered_grid(n=24)
    ha = compensated_source(z_dipole(), grid).values.reshape(grid.n_x, grid.n_y)
    # symmetric grid: mirror symmetry in both axes
    assert np.allclose(ha, ha[::-1, :], rtol=1e-12)
    assert np.allclose(ha, ha[:, ::-1], rtol=1e-12)


def test_compensated_source_zero_net_flux():
    geom, film, grid = centered_grid()
    src = compensated_source(z_dipole(), grid)
    total = src.values @ grid.weights
    scale = np.abs(src.values) @ grid.weights
    assert abs(total) < 1e-12 * scale


def test_zero_applied_gives_zero_solution():
    geom, film, grid = centered_grid(n=32)
    system = BrandtSystem(geom, film, grid)
    sol = system.solve_applied(FieldMap(grid, np.zeros(grid.n_points)))
    assert np.all(sol.g.values == 0.0)
    assert np.all(sol.h_z.values == 0.0)


def test_exterior_g_exactly_zero():
    geom, film, grid = centered_grid(n=32)
    sol = BrandtSystem(geom, film, grid).solve(z_dipole())
    ext = grid.region == REGION_EXTERIOR
    assert ext.any()
    assert np.all(sol.g.values[ext] == 0.0)


def test_linearity_in_moment():
    geom, film, grid = centered_grid(n=32)
    system = BrandtSystem(geom, film, grid)
    base = system.solve(z_dipole(DEFAULT_MOMENT))
    for alpha in (2.0, -1.0, 1e6):
        scaled = system.solve(z_dipole(alpha * DEFAULT_MOMENT))
        want = alpha * base.g.values
        assert np.abs(scaled.g.values - want).max() <= 1e-12 * np.abs(want).max()
        resp_base = base.h_z.values - base.h_a.values
        resp_scaled = scaled.h_z.values - scaled.h_a.values
        err = np.abs(resp_scaled - alpha * resp_base).max()
        assert err <= 1e-12 * np.abs(alpha * resp_base).max()


def test_mirror_symmetry():
    geom, film, grid = centered_grid(n=32)
    sol = BrandtSystem(geom, film, grid).solve(z_dipole())
    g = sol.g.values.reshape(grid.n_x, grid.n_y)
    hz = sol.h_z.values.reshape(grid.n_x, grid.n_y)
    gmax = np.abs(g).max()
    hmax = np.abs(hz).max()
    assert np.abs(g - g[::-1, :]).max() < 1e-9 * gmax
    assert np.abs(g - g[:, ::-1]).max() < 1e-9 * gmax
    assert np.abs(hz - hz[::-1, :]).max() < 1e-9 * hmax
    assert np.abs(hz - hz[:, ::-1]).max() < 1e-9 * hmax


def assert_hole_exact(sol, grid):
    """g is one constant on the aperture, and that constant is the current."""
    g_hole = sol.g.values[grid.region == REGION_APERTURE]
    assert g_hole.size and np.all(g_hole == sol.aperture_current)


def test_aperture_stream_constant():
    geom, film, grid = centered_grid(n=40)
    sol = BrandtSystem(geom, film, grid).solve(z_dipole())
    assert_hole_exact(sol, grid)
    assert sol.aperture_current != 0.0


def test_current_conservation_exact():
    # J = (dg/dy, -dg/dx): tensor-product difference operators commute, so
    # the discrete divergence vanishes identically
    geom, film, grid = centered_grid(n=32)
    sol = BrandtSystem(geom, film, grid).solve(z_dipole())
    g = sol.g.values.reshape(grid.n_x, grid.n_y)

    def ddx(f):
        out = np.zeros_like(f)
        out[1:-1, :] = (f[2:, :] - f[:-2, :]) / (grid.x[2:] - grid.x[:-2])[:, None]
        return out

    def ddy(f):
        out = np.zeros_like(f)
        out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (grid.y[2:] - grid.y[:-2])[None, :]
        return out

    jx = ddy(g)
    jy = -ddx(g)
    div = ddx(jx) + ddy(jy)
    jscale = max(np.abs(jx).max(), np.abs(jy).max())
    width = np.diff(grid.x).min()
    assert np.abs(div).max() * width < 1e-9 * jscale


def kept_kernel_rows(grid):
    """Quadrant points whose h_z needs a kernel row: aperture and exterior
    points, and grid-boundary points, where div_lambda_grad has no row."""
    h = grid.n_x // 2
    region = grid.region.reshape(grid.n_x, grid.n_y)[h:, h:]
    boundary = np.zeros((h, h), dtype=bool)
    boundary[-1, :] = boundary[:, -1] = True
    return np.flatnonzero((region != REGION_FILM) | boundary)


def fig7a_grid():
    cfg = preset_config("fig7a", "solve")
    grid = scenario_grid(cfg.geometry, cfg.film, cfg.n_x, dipole_x=cfg.dipole_x,
                         probe_x=cfg.geometry.edge_x - cfg.sweep_d, y_line=cfg.y_offset,
                         ratio=cfg.ratio)
    return cfg, grid


def test_build_memory_and_kept_kernel_rows():
    # fig7a scene at n = 60 with its centred dipole: the source is even in x
    # and in y, so the build and the solve factor only the 751^2 even-even
    # block (4.3 MiB); factoring all four blocks at build time peaked at 27 MiB
    cfg, grid = fig7a_grid()
    tracemalloc.start()
    try:
        system = BrandtSystem(cfg.geometry, cfg.film, grid)
        system.solve(z_dipole(x=cfg.dipole_x, y=cfg.dipole_y))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20

    want = kept_kernel_rows(grid)
    assert np.array_equal(system._keep, want)
    assert len(want) < 0.2 * (grid.n_x // 2) ** 2
    system.solve(z_dipole(x=-0.3e-6, y=0.2e-6))  # off-axis: every block factored
    for kernel in system._kernel:
        assert kernel.shape[0] == len(want)


def count_lu_factor(monkeypatch):
    """Sizes of the blocks the solver LU-factors from now on, recorded by a
    stand-in for the module's `la`."""
    sizes = []
    proxy = types.ModuleType(la.__name__)
    proxy.__dict__.update(vars(la))

    def lu_factor(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return la.lu_factor(a, *args, **kwargs)

    proxy.lu_factor = lu_factor
    monkeypatch.setattr(system_module, "la", proxy)
    return sizes


@pytest.mark.parametrize("x,y,blocks", [
    (0.0, 0.0, 1),           # even in x and in y
    (-0.5 * R, 0.0, 2),      # even in y
    (-0.3 * R, 0.2 * R, 4),  # no mirror symmetry
])
def test_solve_factors_only_the_excited_blocks(monkeypatch, x, y, blocks):
    sizes = count_lu_factor(monkeypatch)
    geom, film, grid = centered_grid(n=32)
    system = BrandtSystem(geom, film, grid)
    assert sizes == []
    system.solve(z_dipole(x=x, y=y))
    assert len(sizes) == blocks
    system.solve(z_dipole(x=x, y=y))
    assert len(sizes) == blocks


def test_zero_field_factors_nothing(monkeypatch):
    sizes = count_lu_factor(monkeypatch)
    geom, film, grid = centered_grid(n=24)
    sol = BrandtSystem(geom, film, grid).solve_applied(FieldMap(grid, np.zeros(grid.n_points)))
    assert sizes == []
    assert sol.aperture_current == 0.0


def test_blocks_factored_later_match_a_fresh_system():
    geom, film, grid = centered_grid(n=32)
    off_axis = z_dipole(x=-0.3 * R, y=0.2 * R)
    system = BrandtSystem(geom, film, grid)
    system.solve(z_dipole())  # factors the even-even block only
    later = system.solve(off_axis)
    fresh = BrandtSystem(geom, film, grid).solve(off_axis)
    assert np.array_equal(later.h_z.values, fresh.h_z.values)
    assert np.array_equal(later.g.values, fresh.g.values)


def test_condition_estimate_needs_no_solve():
    # read first, it factors the even-even block, the worst conditioned one
    cfg, grid = fig7a_grid()
    fresh = BrandtSystem(cfg.geometry, cfg.film, grid).condition_estimate
    system = BrandtSystem(cfg.geometry, cfg.film, grid)
    system.solve(z_dipole(x=cfg.dipole_x, y=cfg.dipole_y))
    assert fresh == system.condition_estimate == 3.67e3


def test_exact_hole_keeps_the_system_well_conditioned():
    # a hole kept as unknowns with Lambda boosted 1e6 read 1.38e8 here
    cfg, grid = fig7a_grid()
    assert BrandtSystem(cfg.geometry, cfg.film, grid).condition_estimate <= 1e4


def test_kernel_rows_kept_for_film_on_the_grid_edge():
    # a film reaching the grid edge has film points without an operator row
    geom = Circle(R)
    film = FilmSpec(film_half_extent=20 * R, grid_half_extent=20 * R)
    grid = make_grid(geom, film, 24, 24, 40.0)
    assert not np.any(grid.region == REGION_EXTERIOR)
    system = BrandtSystem(geom, film, grid)
    assert np.array_equal(system._keep, kept_kernel_rows(grid))

    sol = system.solve(z_dipole())
    rebuilt = sol.h_a.values + cell_integrated_kernel(grid) @ sol.g.values
    assert np.abs(sol.h_z.values - rebuilt).max() <= 1e-12 * np.abs(rebuilt).max()


def test_reconstruct_identity_and_far_field():
    geom, film, grid = centered_grid(n=32)
    sol = BrandtSystem(geom, film, grid).solve(z_dipole())
    kernel_si = cell_integrated_kernel(grid)
    rebuilt = sol.h_a.values + kernel_si @ sol.g.values
    assert np.allclose(rebuilt, sol.h_z.values, rtol=1e-9, atol=1e-18)


def test_far_field_approaches_applied_for_isolated_patch():
    # uniform applied field over a small film patch: the screening response
    # decays like a dipole, so a few patch sizes away H_z returns to H_a
    geom = Circle(R)
    film = FilmSpec(film_half_extent=5 * R, grid_half_extent=100 * R)
    grid = make_grid(geom, film, 40, 40, 40.0)
    system = BrandtSystem(geom, film, grid)
    sol = system.solve_applied(FieldMap(grid, np.ones(grid.n_points)))
    pts = grid.points
    rr = np.hypot(pts[:, 0], pts[:, 1])
    far = rr > 50 * R
    assert far.any()
    ratio = np.abs(sol.h_z.values[far] - sol.h_a.values[far]) / sol.h_a.values[far]
    assert np.median(ratio) < 0.01


def test_pearl_length_trend():
    # a smaller penetration depth localizes the aperture field toward the
    # edge: the radius of max |H_z| must not decrease as lambda shrinks
    geom = Circle(R)
    positions = []
    for lam in (100e-9, 50e-9, 25e-9):
        film = FilmSpec(london_depth=lam, thickness=80e-9,
                        film_half_extent=90 * R, grid_half_extent=100 * R)
        grid = make_grid(
            geom, film, 40, 40, 125.0,
            refine_x=[0.0],
            refine_y=[0.0],
            anchor_y=[5e-9],
        )
        sol = BrandtSystem(geom, film, grid).solve(z_dipole())
        line, _ = grid.x_line(5e-9)
        xs = grid.points[line, 0]
        inside = (xs > 0.2 * R) & (xs < R)
        vals = np.abs(sol.h_z.values[line][inside])
        positions.append(xs[inside][np.argmax(vals)])
    assert positions[1] >= positions[0] - 1e-12
    assert positions[2] >= positions[1] - 1e-12


def test_convergence_cauchy():
    # refining the grid changes the extracted edge field by a shrinking step
    geom = Circle(R)
    film = default_film(geom)
    vals = []
    for n in (40, 60, 80):
        grid = make_grid(
            geom, film, n, n, 125.0,
            refine_x=[0.0],
            refine_y=[0.0],
            anchor_x=[R - D_PROBE],
            anchor_y=[5e-9],
        )
        sol = BrandtSystem(geom, film, grid).solve(z_dipole())
        p = grid.index_of(R - D_PROBE, 5e-9)
        vals.append(sol.h_z.values[p])
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1


def test_dipole_outside_aperture_rejected():
    geom, film, grid = centered_grid(n=24)
    system = BrandtSystem(geom, film, grid)
    with pytest.raises(ConfigurationError):
        system.solve(z_dipole(x=2 * R))


def test_return_flux_core_left_of_nearest_grid_point():
    # the dipole lies left of its nearest grid point; the core used to take
    # the interval right of that point and miss every aperture point
    geom = Circle(R)
    grid = scenario_grid(geom, default_film(geom), 60, probe_x=0.9e-6, y_line=5e-9)
    dipole = z_dipole(x=6.349884729052447e-07, y=-4.708942752498045e-08)
    h_a = compensated_source(dipole, grid)
    net = h_a.values @ grid.weights
    assert abs(net) <= 1e-12 * (np.abs(h_a.values) @ grid.weights)


def test_source_of_a_dipole_on_a_grid_point_does_not_warn():
    # max(r, 1e-300)**3 underflowed to 0 at the dipole's own grid point
    geom = Circle(R)
    grid = scenario_grid(geom, default_film(geom), 40, probe_x=0.9e-6, y_line=5e-9)
    dipole = z_dipole(x=-0.9e-6, y=5e-9)
    assert np.hypot(*(grid.points - [-0.9e-6, 5e-9]).T).min() == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h_a = compensated_source(dipole, grid)
    assert np.all(np.isfinite(h_a.values))
    assert abs(h_a.values @ grid.weights) <= 1e-12 * (np.abs(h_a.values) @ grid.weights)


def test_off_plane_dipole_rejected():
    geom, film, grid = centered_grid(n=24)
    dipole = Dipole(position=[0.0, 0.0, 1e-9], moment=[0.0, 0.0, DEFAULT_MOMENT])
    with pytest.raises(ConfigurationError):
        compensated_source(dipole, grid)


def test_dogbone_solve_smoke():
    from scaperture.geometry import DogBone, default_film
    from scaperture.experiments.grids import scenario_grid

    geom = DogBone(end_radius=250e-9, center_distance=1.5e-6,
                   channel_half_width=100e-9)
    film = default_film(geom)
    x0 = -(geom.edge_x - 100e-9)
    grid = scenario_grid(geom, film, 40, dipole_x=x0,
                         probe_x=geom.edge_x - 100e-9, y_line=5e-9)
    dipole = Dipole(position=[x0, 0.0, 0.0], moment=[0, 0, DEFAULT_MOMENT])
    sol = BrandtSystem(geom, film, grid).solve(dipole)
    assert_hole_exact(sol, grid)
    assert np.all(np.isfinite(sol.h_z.values))


def test_reconstruct_zero_stream_returns_applied():
    geom, film, grid = centered_grid(n=24)
    ha = compensated_source(z_dipole(), grid)
    kernel_si = cell_integrated_kernel(grid)
    out = ha.values + kernel_si @ np.zeros(grid.n_points)
    assert np.array_equal(out, ha.values)
