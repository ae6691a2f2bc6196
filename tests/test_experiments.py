import numpy as np
import pytest

from scaperture.analytic.centered import field_centered
from scaperture.analytic.shifted import field_shifted_bz_plane
from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MU0, PLANCK
from scaperture.experiments.compare import compare_engines
from scaperture.experiments.coupling import coupling_estimate, numeric_coupling
from scaperture.experiments.grids import place, solve_scenario
import scaperture.experiments.sweeps as sweeps
from scaperture.experiments.sweeps import sweep
from scaperture.geometry import Circle, ConfigurationError, DogBone, Ellipse, FilmSpec
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR
from scaperture.io.config import preset_config
from scaperture.solver import system as system_module

from analytic_oracles import free_dipole_field
from kernel_oracles import cell_integrated_kernel, compact_film


def test_analytic_centered_sweep_slope():
    radii = np.geomspace(1e3, 1e5, 15)
    res = sweep("centered", 1.0, radii, "analytic")
    assert res.fit.slope == pytest.approx(-2.5, abs=0.02)


def test_analytic_shifted_sweep_slope_and_prefactor():
    radii = np.geomspace(1e3, 1e5, 12)
    res = sweep("shifted", 1.0, radii, "analytic", moment=1.0)
    assert res.fit.slope == pytest.approx(-2.0, abs=0.02)
    prefactor = np.median(np.abs(res.fields) * res.lengths**2)
    assert prefactor == pytest.approx(MU0 / (4 * np.pi**2 * 1.0), rel=0.02)


def test_analytic_slopes_converge_toward_asymptote():
    # higher R/d windows land closer to the asymptotic exponents
    d = 1.0
    windows = [np.geomspace(30.0, 300.0, 8), np.geomspace(300.0, 3000.0, 8),
               np.geomspace(3000.0, 30000.0, 8)]
    for scenario, target in (("centered", -2.5), ("shifted", -2.0)):
        gaps = []
        for radii in windows:
            res = sweep(scenario, d, radii, "analytic")
            gaps.append(abs(res.fit.slope - target))
        assert gaps[1] < gaps[0]
        assert gaps[2] < gaps[1]


def test_sweep_validation():
    # the closed forms cover circles only
    with pytest.raises(ConfigurationError, match="circular"):
        sweep("shifted", 1.0, np.geomspace(10, 100, 6), "analytic", geometry=Ellipse(a=5, b=2))
    # the scenario only places the dipole: "ellipse" is no longer one
    with pytest.raises(ConfigurationError, match="centered or shifted"):
        sweep("ellipse", 1.0, np.geomspace(10, 100, 6), "analytic")
    with pytest.raises(ConfigurationError):
        sweep("centered", -1.0, np.geomspace(10, 100, 6), "analytic")
    with pytest.raises(ConfigurationError):
        sweep("sideways", 1.0, np.geomspace(10, 100, 6), "analytic")


@pytest.mark.parametrize("geometry", [
    Circle(1e-6),
    Ellipse(a=250e-9, b=100e-9),
    DogBone(end_radius=300e-9, center_distance=1.5e-6, channel_half_width=50e-9),
])
def test_place_puts_the_probe_d_inside_the_right_edge(geometry):
    edge = geometry.edge_x
    for d in edge * np.array([1e-9, 0.1, 0.37, 0.5, 0.9, 1.0 - 1e-12]):
        x0, probe = place("centered", geometry, d)
        assert (x0, probe) == (0.0, edge - d)
        assert probe - x0 == edge - d
        x0, probe = place("shifted", geometry, d)
        assert (x0, probe) == (d - edge, edge - d)
        assert probe - x0 == 2 * (edge - d)


def test_place_rejects_crossed_sites_and_unknown_scenarios():
    geometry = Ellipse(a=250e-9, b=100e-9)
    for d in (0.0, -1e-9, 250e-9, 300e-9):
        with pytest.raises(ConfigurationError, match="x semi-axis.*radius"):
            place("shifted", geometry, d)
    for scenario in ("sideways", "ellipse"):
        with pytest.raises(ConfigurationError, match="centered or shifted"):
            place(scenario, geometry, 100e-9)


def test_sweep_places_every_radius_before_solving(monkeypatch):
    # the last radius is not larger than d, so the sweep must fail before
    # the first radius is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_scenario called before every radius was placed")

    monkeypatch.setattr(sweeps, "solve_scenario", no_solve)
    for scenario in ("centered", "shifted"):
        for geometry in (None, Ellipse(a=1e-6, b=100e-9)):
            with pytest.raises(ConfigurationError, match="radius"):
                sweep(scenario, 100e-9, [500e-9, 1e-6, 2e-6, 4e-6, 100e-9], "numeric",
                      geometry=geometry)


def test_dogbone_sweep_raises_before_solving(monkeypatch):
    # a sweep varies a circle's radius or an ellipse's x semi-axis; a dog-bone
    # has neither, and the sweep says so before it solves anything
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_scenario called for a dog-bone sweep")

    monkeypatch.setattr(sweeps, "solve_scenario", no_solve)
    dogbone = DogBone(end_radius=300e-9, center_distance=1.5e-6, channel_half_width=50e-9)
    for engine in ("analytic", "numeric"):
        with pytest.raises(ConfigurationError, match="cannot sweep a DogBone"):
            sweep("centered", 100e-9, np.geomspace(0.5e-6, 2e-6, 5), engine, geometry=dogbone)


def test_centred_sweep_of_an_ellipse_varies_a_at_fixed_b(monkeypatch):
    # the sweep scales the configured ellipse: each radius r is Ellipse(a=r, b),
    # whatever the scenario; a centred ellipse sweep used to be rejected
    seen = []
    solve_scenario = sweeps.solve_scenario

    def solve_and_record(geometry, *args, **kwargs):
        seen.append(geometry)
        return solve_scenario(geometry, *args, **kwargs)

    monkeypatch.setattr(sweeps, "solve_scenario", solve_and_record)
    radii = np.geomspace(0.5e-6, 2e-6, 5)
    res = sweep("centered", 100e-9, radii, "numeric", n=24,
                geometry=Ellipse(a=1e-6, b=300e-9))
    assert seen == [Ellipse(a=r, b=300e-9) for r in radii]
    assert np.array_equal(res.lengths, radii - 100e-9)
    assert np.all(np.isfinite(res.fields))
    assert res.metadata == {"engine": "numeric", "n": 24, "b": 300e-9}


def test_sweep_with_too_few_radii_raises_before_solving(monkeypatch):
    # three radii used to return fit=None after solving all three; a repeated
    # radius adds no point to the fit, where numpy raised LinAlgError
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_scenario called before the radius count was checked")

    monkeypatch.setattr(sweeps, "solve_scenario", no_solve)
    for radii in ([500e-9, 1e-6, 2e-6, 4e-6], [1e-6] * 5, [500e-9, 1e-6, 1e-6, 2e-6, 4e-6]):
        for engine in ("analytic", "numeric"):
            with pytest.raises(ConfigurationError, match="at least 5 radii that differ"):
                sweep("centered", 100e-9, radii, engine)


def test_sweep_engines_read_one_line(monkeypatch):
    # the library default was 0 for analytic and 5 nm for numeric, so
    # switching only the engine moved the probe line; both now read the
    # probe on y = EVAL_Y
    heights = []
    solve_scenario = sweeps.solve_scenario

    def solve_and_record(*args, **kwargs):
        solved = solve_scenario(*args, **kwargs)
        heights.append(solved.grid.points[solved.line, 1])
        return solved

    monkeypatch.setattr(sweeps, "solve_scenario", solve_and_record)
    radii = np.geomspace(0.5e-6, 2e-6, 5)
    sweep("centered", 100e-9, radii, "numeric", n=40)
    assert len(heights) == len(radii)
    assert all(np.all(h == EVAL_Y) for h in heights)
    # the closed forms at the probe, one point per call, bit for bit
    for scenario in ("centered", "shifted"):
        fields = sweep(scenario, 100e-9, radii, "analytic").fields
        for radius, got in zip(radii, fields):
            x0, probe_x = place(scenario, Circle(radius), 100e-9)
            if scenario == "centered":
                want = field_centered([0, 0, DEFAULT_MOMENT], [probe_x, EVAL_Y, 0.0], radius)[2]
            else:
                want = field_shifted_bz_plane(DEFAULT_MOMENT, x0, [probe_x], EVAL_Y, radius)[0]
            assert got == want


# the scenario and configured aperture of each case: a centred circle sweep,
# and a shifted sweep of the b = 400 nm ellipse, whose a is < b, then > b
_SIZING_CASES = {"centered": ("centered", None),
                 "ellipse": ("shifted", Ellipse(a=1e-6, b=400e-9))}


@pytest.mark.parametrize("case, radii", [
    ("centered", np.geomspace(0.5e-6, 2e-6, 5)),
    ("ellipse", np.array([200e-9, 300e-9, 500e-9, 700e-9, 1e-6])),
])
def test_numeric_sweep_sizes_every_grid_by_the_film_factors(monkeypatch, case, radii):
    # each radius's grid spans DEFAULT_GRID_FACTOR scale radii of its own aperture
    scenario, geometry = _SIZING_CASES[case]
    seen = []
    solve_scenario = sweeps.solve_scenario

    def solve_and_record(geometry, film, *args, **kwargs):
        solved = solve_scenario(geometry, film, *args, **kwargs)
        seen.append((max(geometry.edge_x, geometry.edge_y), solved.grid.half_extent))
        return solved

    monkeypatch.setattr(sweeps, "solve_scenario", solve_and_record)
    with compact_film(40.0, 50.0):
        sweep(scenario, 100e-9, radii, "numeric", n=24, geometry=geometry, film=FilmSpec())
    assert len(seen) == len(radii)
    for scale, half_extent in seen:
        assert half_extent == 50.0 * scale


def test_solve_scenario_reads_b_z_off_the_solver_field():
    # the solver's H_z is the physical field, so B_z is mu0 H_z with no
    # second convention in between
    geometry = Circle(1e-6)
    solved = solve_scenario(geometry, FilmSpec(), 40, dipole_x=0.0,
                            moment=DEFAULT_MOMENT, probe_x=0.9e-6)
    h_line = solved.solution.h_z.values[solved.line]
    assert solved.b_probe == MU0 * h_line[solved.probe]


def test_sweep_and_coupling_fold_no_exterior_kernel_row(monkeypatch):
    # both read one probe inside the aperture, and compare reads its line's
    # film and hole points, so no kernel row of a point beyond the film is
    # ever made
    labels, fold = [], system_module.folded_kernel_rows

    def spy(grid, rows, *args):
        labels.append(grid.region[rows])
        return fold(grid, rows, *args)

    monkeypatch.setattr(system_module, "folded_kernel_rows", spy)
    cfg = preset_config("fig5c", "sweep")
    assert cfg.engine == "numeric"
    sweep(cfg.scenario, cfg.sweep_d, list(cfg.sweep_radii), cfg.engine,
          geometry=cfg.geometry, moment=cfg.moment, n=cfg.n, film=cfg.film)
    swept = len(labels)
    cfg = preset_config("coupling300", "coupling")
    numeric_coupling(cfg.geometry, cfg.sweep_d, moment=cfg.moment, n=cfg.n, film=cfg.film)
    coupled = len(labels)
    for name in ("fig5a", "fig5b"):
        cfg = preset_config(name, "compare")
        compare_engines(cfg.scenario, cfg.geometry, cfg.sweep_d, moment=cfg.moment, n=cfg.n,
                        film=cfg.film)
    assert 0 < swept < coupled < len(labels)
    assert not np.any(np.concatenate(labels) == REGION_EXTERIOR)


def test_sweep_lengths_follow_caption_relations():
    radii = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    cen = sweep("centered", 1.0, radii, "analytic")
    shf = sweep("shifted", 1.0, radii, "analytic")
    assert np.allclose(cen.lengths, radii - 1.0)
    assert np.allclose(shf.lengths, 2 * (radii - 1.0))


def test_numeric_sweep_small_smoke(monkeypatch):
    # desk-scale numeric sweep on a reduced budget: monotone decay and a
    # negative slope steeper than -1, with g one constant on every hole
    holes = []
    solve_scenario = sweeps.solve_scenario

    def solve_and_read_hole(*args, **kwargs):
        solved = solve_scenario(*args, **kwargs)
        g_hole = solved.solution.g.values[solved.grid.region == REGION_APERTURE]
        holes.append((g_hole, solved.solution.aperture_current))
        return solved

    monkeypatch.setattr(sweeps, "solve_scenario", solve_and_read_hole)
    radii = np.geomspace(0.5e-6, 2e-6, 5)
    res = sweep("centered", 100e-9, radii, "numeric", n=40)
    assert res.fit.slope < -1.0
    assert len(holes) == len(radii)
    assert all(g.size and np.all(g == current) for g, current in holes)
    assert np.all(np.diff(np.abs(res.fields)) < 0)


def test_compare_engines_centered_smoke():
    rep = compare_engines("centered", Circle(1e-6), 100e-9, n=40)
    assert rep.median_abs_db < 3.0
    assert rep.sign_agreement > 0.95


def test_coupling_estimate_zero_field():
    est = coupling_estimate(DEFAULT_MOMENT, 0.0, 300e-9)
    assert est.coupling == 0.0


def test_coupling_free_dipoles_order_of_magnitude():
    # two free dipoles 10 nm apart: same order of magnitude as 40 kHz
    b = free_dipole_field([0, 0, DEFAULT_MOMENT], [10e-9, 0.0, 0.0])
    est = coupling_estimate(DEFAULT_MOMENT, b[2], 10e-9)
    assert 4e3 <= est.coupling <= 4e5


def test_coupling_matches_planck_arithmetic():
    est = coupling_estimate(2.0e-23, 1.5e-10, 1e-6)
    assert est.coupling == pytest.approx(2.0e-23 * 1.5e-10 / PLANCK, rel=1e-12)


def test_numeric_coupling_ellipse_smoke():
    est = numeric_coupling(Ellipse(a=250e-9, b=100e-9), 100e-9, n=40)
    assert est.separation == pytest.approx(300e-9, rel=1e-12)
    assert est.coupling > 0


def test_numeric_centered_line_trend():
    # along the evaluation line the numeric solution tracks the closed form
    # point by point: largest magnitude toward the dipole, one sign, and
    # every sample within a few dB of the exact curve
    rep = compare_engines("centered", Circle(1e-6), 100e-9, n=60, band=(0.05, 0.95))
    vals = np.abs(rep.numeric_bz)
    inner = np.argmin(np.abs(rep.x_positions))
    assert vals[inner] == vals.max()
    assert rep.sign_agreement == 1.0
    assert np.abs(rep.delta_db).max() < 3.0


def test_probe_next_to_the_dipole_reads_its_point_field():
    # the probe (900, 5) nm lies 50 nm from the dipole at (850, 0) nm, within
    # a few cells of it; it reads the dipole's point field + K g like every
    # point off the film
    solved = solve_scenario(Circle(1e-6), FilmSpec(), 60, dipole_x=850e-9,
                            moment=DEFAULT_MOMENT, probe_x=0.9e-6)
    grid, p = solved.grid, solved.line[solved.probe]
    assert grid.region[p] == REGION_APERTURE
    point = free_dipole_field([0, 0, DEFAULT_MOMENT], [grid.points[p, 0] - 850e-9,
                                                       grid.points[p, 1], 0.0])[2]
    response = MU0 * (cell_integrated_kernel(grid, [p]) @ solved.solution.g.values)[0]
    assert solved.b_probe == pytest.approx(point + response, rel=1e-12)
    assert abs(response) < abs(point)
