import numpy as np
import pytest

from scaperture.constants import DEFAULT_MOMENT, MU0, PLANCK
from scaperture.experiments.compare import compare_engines
from scaperture.experiments.coupling import coupling_estimate, numeric_coupling
from scaperture.experiments.grids import DEFAULT_RATIO, solve_scenario
import scaperture.experiments.sweeps as sweeps
from scaperture.experiments.sweeps import sweep
from scaperture.geometry import Circle, ConfigurationError, Ellipse
from scaperture.grid import REGION_APERTURE
from scaperture.analytic.free_dipole import free_dipole_field


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
    with pytest.raises(ConfigurationError):
        sweep("ellipse", 1.0, np.geomspace(10, 100, 6), "analytic")
    with pytest.raises(ConfigurationError):
        sweep("centered", -1.0, np.geomspace(10, 100, 6), "analytic")
    with pytest.raises(ConfigurationError):
        sweep("sideways", 1.0, np.geomspace(10, 100, 6), "analytic")


def test_numeric_sweep_checks_smooth_window_before_solving(monkeypatch):
    # an even window used to surface as a ValueError from the smoother,
    # after every radius had been solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_scenario called before smooth_window was checked")

    monkeypatch.setattr(sweeps, "solve_scenario", no_solve)
    radii = [500e-9 * 2**k for k in range(5)]
    for window in (0, 2, 7):
        with pytest.raises(ConfigurationError, match="smooth_window"):
            sweep("centered", 100e-9, radii, "numeric", smooth_window=window)


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
    assert res.fit is not None
    assert res.fit.slope < -1.0
    assert len(holes) == len(radii)
    assert all(g.size and np.all(g == current) for g, current in holes)
    assert np.all(np.diff(np.abs(res.fields)) < 0)


def test_compare_engines_centered_smoke():
    rep = compare_engines("centered", Circle(1e-6), 100e-9, n=40)
    assert rep.median_abs_db < 3.0
    assert rep.sign_agreement > 0.95
    assert rep.exterior_peak_ratio < 0.01
    assert rep.convention_offset_db == pytest.approx(6.0206, abs=1e-3)


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


def test_probe_inside_return_flux_core_rejected():
    # core semi-axes 139 x 316 nm around (835.44, 126.4) nm hold the probe
    # (900, 5) nm at e^2 = 0.36; its reading was the core's bump
    solved = solve_scenario(Circle(1e-6), None, 60, ratio=DEFAULT_RATIO, dipole_x=835.44e-9,
                            dipole_y=126.4e-9, moment=DEFAULT_MOMENT, probe_x=0.9e-6,
                            y_line=5e-9)
    assert np.isfinite(solved.b_z).all()  # the line itself is still a solution
    with pytest.raises(ConfigurationError, match="return-flux core"):
        solved.b_probe
