import tracemalloc
import warnings

import numpy as np
import pytest

from scaperture.cli import EXIT_CONFIG, EXIT_SOLVER, main
from scaperture.constants import DEFAULT_MOMENT, ELECTRON_G, BOHR_MAGNETON, MU0
from scaperture.experiments.grids import place, scenario_grid
from scaperture.geometry import Circle, ConfigurationError, Dipole, FilmSpec
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR, REGION_FILM, FieldMap, make_grid
from scaperture.io.config import preset_config
from scaperture.solver import system as system_module
from scaperture.solver.system import BrandtSystem, SolverError, compensated_source

from analytic_oracles import free_dipole_field
from kernel_oracles import cell_integrated_kernel

R = 1e-6
D_PROBE = 100e-9


def z_dipole(m=DEFAULT_MOMENT, x=0.0, y=0.0):
    return Dipole(position=[x, y, 0.0], moment=[0.0, 0.0, m])


def centered_grid(n=40, ratio=125.0):
    geom = Circle(R)
    film = FilmSpec()
    grid = make_grid(
        geom,
        film,
        n,
        ratio,
        refine_x=[0.0],
        refine_y=[0.0],
        anchor_x=R - D_PROBE,
        anchor_y=5e-9,
    )
    return geom, film, grid


def test_applied_field_magnitude():
    # independent constants arithmetic: m = 2 g mu_B evaluated directly;
    # outside the return-flux core the source is the physical H_z of the
    # free dipole in its own plane
    m = 2 * ELECTRON_G * BOHR_MAGNETON
    assert m == pytest.approx(3.7139e-23, rel=1e-4)
    geom, film, grid = centered_grid(n=24)
    ha = compensated_source(z_dipole(m), grid).values
    rcx, rcy = system_module.core_radii(grid, z_dipole(m))
    x, y = grid.points.T
    outside = (x / rcx) ** 2 + (y / rcy) ** 2 >= 1.0
    assert outside.sum() > grid.n_points // 2
    free = free_dipole_field([0.0, 0.0, m], np.column_stack([x, y, 0 * x])[outside])[:, 2] / MU0
    assert np.all(free < 0)
    assert np.all(np.abs(ha[outside] - free) <= 1e-14 * np.abs(free))


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
    """Quadrant points whose kernel row the build keeps: the aperture points,
    since every film point has a London row.  An exterior point's row is
    made only when h_z there is read."""
    h = grid.n_x // 2
    return np.flatnonzero(grid.region.reshape(grid.n_x, grid.n_y)[h:, h:] == REGION_APERTURE)


def fig7a_scene():
    """The fig7a preset's config, scenario grid and dipole, placed as `solve` places them."""
    cfg = preset_config("fig7a", "solve")
    dipole_x, probe_x = place(cfg.scenario, cfg.geometry, cfg.sweep_d)
    grid = scenario_grid(cfg.geometry, cfg.film, cfg.n, dipole_x=dipole_x, probe_x=probe_x)
    return cfg, grid, z_dipole(x=dipole_x)


def test_build_memory_and_kept_kernel_rows():
    # fig7a scene at n = 60 with its centred dipole: the source is even in x
    # and in y, so the build and the solve factor only the 751^2 even-even
    # block (4.3 MiB); factoring all four blocks at build time peaked at 27 MiB,
    # sparse London blocks with kernel tables made out of place at 7.9 MiB,
    # and keeping the exterior points' kernel rows at 6.35 MiB.  It measures
    # 5.63 MiB; the bound leaves 0.37 MiB of margin
    cfg, grid, dipole = fig7a_scene()
    tracemalloc.start()
    try:
        system = BrandtSystem(cfg.geometry, cfg.film, grid)
        system.solve(dipole)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * 2**20

    want = kept_kernel_rows(grid)
    assert np.array_equal(system._hole_q, want)
    assert len(want) < 0.05 * (grid.n_x // 2) ** 2  # 34 of the 900 quadrant points
    system.solve(z_dipole(x=-0.3e-6, y=0.2e-6))  # off-axis: every block factored
    for kernel in system._kernel:
        assert kernel.shape[0] == len(want)


def count_lu_factor(monkeypatch, before=None):
    """Sizes of the blocks the solver LU-factors from now on, recorded by a
    stand-in for the module's `dgetrf` binding; `before(a)` runs on each block
    ahead of the factorization."""
    sizes, dgetrf = [], system_module._dgetrf

    def counted(m, n, a, *args):
        sizes.append(a.shape[0])
        if before is not None:
            before(a)
        return dgetrf(m, n, a, *args)

    monkeypatch.setattr(system_module, "_dgetrf", counted)
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


def test_exterior_rows_are_folded_once_on_first_read(monkeypatch):
    # perfbench's dipole scan solves one system for many dipoles and reads the
    # whole-grid h_z each time: only the first read folds the exterior rows
    folded, fold = [], system_module.folded_kernel_rows

    def spy(grid, rows, *args):
        folded.append(rows)
        return fold(grid, rows, *args)

    monkeypatch.setattr(system_module, "folded_kernel_rows", spy)
    geom, film, grid = centered_grid(n=32)
    system = BrandtSystem(geom, film, grid)
    sol = system.solve(z_dipole(x=-0.3 * R, y=0.2 * R))  # every block excited
    outside = grid.region == REGION_EXTERIOR
    assert not outside[np.concatenate(folded)].any()
    near = sol.h_z_at(np.flatnonzero(~outside))

    folded.clear()
    h_z = sol.h_z.values
    assert np.array_equal(np.sort(np.concatenate(folded)), np.sort(system._quad[system._outside]))
    assert np.array_equal(h_z[~outside], near)
    assert np.array_equal(sol.h_z_at(np.flatnonzero(outside)), h_z[outside])

    folded.clear()
    system.solve(z_dipole(x=-0.2 * R, y=-0.4 * R)).h_z
    assert folded == []


def test_fold_windows_stay_in_one_column_and_change_no_bit(monkeypatch):
    # at n = 120 a quadrant column of 60 rows is too long for one batch: its
    # windows hold at most _FOLD_VALUES per corner table and never cross a
    # column, and the folded systems and kept rows are those of whole columns
    geom, film, grid = centered_grid(n=120)
    system = BrandtSystem(geom, film, grid)
    args = (grid, system._quad, system._film_q, system._hole_q, system._hole_w, [0])
    batches, fold = [], system_module.folded_kernel_rows

    def spy(grid, rows, cells, blocks):
        batches.append((np.searchsorted(system._quad, rows), cells))
        return fold(grid, rows, cells, blocks)

    monkeypatch.setattr(system_module, "folded_kernel_rows", spy)
    systems, kept = system_module._fold_kernel(*args)
    chunk = grid.n_y // 2
    for at, cells in batches:
        budget = system_module._FOLD_VALUES // ((cells[0] + 1) * (cells[1] + 1))
        assert budget < chunk
        assert len(at) <= budget and at[0] // chunk == at[-1] // chunk

    batches.clear()
    monkeypatch.setattr(system_module, "_FOLD_VALUES", 10**9)
    whole_systems, whole_kept = system_module._fold_kernel(*args)
    assert max(len(at) for at, _ in batches) > budget
    assert np.array_equal(systems[0], whole_systems[0])
    assert np.array_equal(kept[0], whole_kept[0])


def test_condition_estimate_needs_no_solve():
    # read first, it factors the even-even block, the worst conditioned one
    cfg, grid, dipole = fig7a_scene()
    fresh = BrandtSystem(cfg.geometry, cfg.film, grid).condition_estimate
    system = BrandtSystem(cfg.geometry, cfg.film, grid)
    system.solve(dipole)
    assert fresh == system.condition_estimate == 3.67e3


def test_non_finite_system_is_a_solver_error(monkeypatch, tmp_path):
    # a NaN kernel entry reached LAPACK and escaped as scipy's ValueError
    folded_kernel_rows = system_module.folded_kernel_rows

    def one_nan(*args, **kwargs):
        blocks = folded_kernel_rows(*args, **kwargs)
        blocks[0][0, 0] = np.nan
        return blocks

    monkeypatch.setattr(system_module, "folded_kernel_rows", one_nan)
    cfg, grid, dipole = fig7a_scene()
    system = BrandtSystem(cfg.geometry, cfg.film, grid)
    with pytest.raises(SolverError, match="non-finite"):
        system.solve(dipole)
    code = main(["solve", "--preset", "fig7a", "--grid", "20", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER


def test_exactly_singular_block_is_a_solver_error(monkeypatch, tmp_path):
    # getrf's info > 0 reached scipy's LinAlgWarning and then the rcond check
    def zero_column(a):
        a[:, 1] = 0.0  # getrf meets an exact zero pivot in column 2

    sizes = count_lu_factor(monkeypatch, before=zero_column)
    cfg, grid, dipole = fig7a_scene()
    system = BrandtSystem(cfg.geometry, cfg.film, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="getrf info 2"):
            system.solve(dipole)
    assert len(sizes) == 1
    code = main(["solve", "--preset", "fig7a", "--grid", "20", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER


def test_non_finite_applied_field_is_a_config_error(monkeypatch, tmp_path):
    # scipy's lu_solve checked its right-hand side for NaN and inf; the
    # direct LAPACK solve does not, and FieldMap rejects them up front
    sizes = count_lu_factor(monkeypatch)
    geom, film, grid = centered_grid(n=24)
    system = BrandtSystem(geom, film, grid)
    values = compensated_source(z_dipole(), grid).values.copy()
    values[np.flatnonzero(grid.region == REGION_FILM)[0]] = np.nan
    with pytest.raises(ConfigurationError, match="finite"):
        system.solve_applied(FieldMap(grid, values))
    assert sizes == []

    def with_inf(dipole, grid):
        source = compensated_source(dipole, grid)
        return FieldMap(grid, np.where(grid.region == REGION_FILM, np.inf, source.values))

    monkeypatch.setattr(system_module, "compensated_source", with_inf)
    code = main(["solve", "--preset", "fig7a", "--grid", "20", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert sizes == []


def test_exact_hole_keeps_the_system_well_conditioned():
    # a hole kept as unknowns with Lambda boosted 1e6 read 1.38e8 here
    cfg, grid, _ = fig7a_scene()
    assert BrandtSystem(cfg.geometry, cfg.film, grid).condition_estimate <= 1e4


def test_film_reaching_the_grid_edge_is_refused(tmp_path, capsys):
    # the fig7a scenario grid ends at 88.0 R at n = 16 and at 89.3 R at
    # n = 18, inside the 90 R film, whose points on the edge ring would have
    # no London row; from n = 20 the whole edge ring lies beyond the film
    cfg = preset_config("fig7a", "solve")
    geom, film = cfg.geometry, cfg.film
    dipole_x, probe_x = place(cfg.scenario, geom, cfg.sweep_d)
    grids = {n: scenario_grid(geom, film, n, dipole_x=dipole_x, probe_x=probe_x)
             for n in (16, 18, 20)}
    for n in (16, 18):
        with pytest.raises(ConfigurationError, match="film reaches the grid edge"):
            BrandtSystem(geom, film, grids[n])
    BrandtSystem(geom, film, grids[20])
    code = main(["solve", "--preset", "fig7a", "--grid", "16", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "film reaches the grid edge" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    film = FilmSpec(film_factor=5, grid_factor=100)
    grid = make_grid(geom, film, 40, 40.0)
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
                        film_factor=90, grid_factor=100)
        grid = make_grid(
            geom, film, 40, 125.0,
            refine_x=[0.0],
            refine_y=[0.0],
            anchor_y=5e-9,
        )
        sol = BrandtSystem(geom, film, grid).solve(z_dipole())
        line = grid.x_line(5e-9)
        xs = grid.points[line, 0]
        inside = (xs > 0.2 * R) & (xs < R)
        vals = np.abs(sol.h_z.values[line][inside])
        positions.append(xs[inside][np.argmax(vals)])
    assert positions[1] >= positions[0] - 1e-12
    assert positions[2] >= positions[1] - 1e-12


def test_convergence_cauchy():
    # refining the grid changes the extracted edge field by a shrinking step
    geom = Circle(R)
    film = FilmSpec()
    vals = []
    for n in (40, 60, 80):
        grid = make_grid(
            geom, film, n, 125.0,
            refine_x=[0.0],
            refine_y=[0.0],
            anchor_x=R - D_PROBE,
            anchor_y=5e-9,
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
    grid = scenario_grid(geom, FilmSpec(), 60, probe_x=0.9e-6, y_line=5e-9)
    dipole = z_dipole(x=6.349884729052447e-07, y=-4.708942752498045e-08)
    h_a = compensated_source(dipole, grid)
    net = h_a.values @ grid.weights
    assert abs(net) <= 1e-12 * (np.abs(h_a.values) @ grid.weights)


def test_source_of_a_dipole_on_a_grid_point_does_not_warn():
    # max(r, 1e-300)**3 underflowed to 0 at the dipole's own grid point
    geom = Circle(R)
    grid = scenario_grid(geom, FilmSpec(), 40, probe_x=0.9e-6, y_line=5e-9)
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
    from scaperture.geometry import DogBone
    from scaperture.experiments.grids import place, scenario_grid

    geom = DogBone(end_radius=250e-9, center_distance=1.5e-6,
                   channel_half_width=100e-9)
    film = FilmSpec()
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
