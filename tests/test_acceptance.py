"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; tolerances
are pinned here and nowhere else.
"""

import numpy as np
import pytest

from scaperture.analytic.centered import field_centered
from scaperture.constants import DEFAULT_MOMENT, MU0
from scaperture.experiments.compare import compare_engines
from scaperture.experiments.coupling import numeric_coupling
from scaperture.experiments.sweeps import sweep
from scaperture.geometry import Circle, Dipole, Ellipse, FilmSpec
from scaperture.experiments.grids import place, scenario_grid
from scaperture.grid import REGION_APERTURE, REGION_EXTERIOR
from scaperture.solver.system import BrandtSystem

from analytic_oracles import free_dipole_field, vector_potential_centered

R_UM = 1e-6
D_EDGE = 100e-9
ENGINE_DB_TOL = 3.0  # analytic/numeric agreement, |20 log10 ratio|


def _report(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_free_dipole_limit():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(1000, 3))
    pts = pts[np.linalg.norm(pts, axis=1) > 0.2]
    while len(pts) < 1000:
        extra = rng.normal(size=(200, 3))
        pts = np.vstack([pts, extra[np.linalg.norm(extra, axis=1) > 0.2]])
    pts = pts[:1000]
    m = np.array([0.3, -1.1, 0.7])
    worst = 0.0
    big = 1e6 * np.linalg.norm(pts, axis=1).max()
    got = field_centered(m, pts, big)
    want = free_dipole_field(m, pts)
    worst = np.max(np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1))
    _report(1, "free-dipole limit", worst <= 1e-3,
            f"max rel err {worst:.2e} <= 1e-3 at 1000 points")


def test_criterion_02_boundary_vanishing():
    rng = np.random.default_rng(12)
    radius = R_UM
    rho = rng.uniform(radius, 100 * radius, 10000)
    phi = rng.uniform(0, 2 * np.pi, 10000)
    pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), np.zeros(10000)])
    m = np.array([0.4, 0.2, 1.0]) * DEFAULT_MOMENT
    a = vector_potential_centered(m, pts, radius)
    ref = MU0 * np.linalg.norm(m) / (4 * np.pi * radius**2)
    worst = np.max(np.linalg.norm(a, axis=1)) / ref
    _report(2, "vector potential on the superconductor", worst <= 1e-12,
            f"max |A|/A_ref {worst:.2e} <= 1e-12 at 10000 boundary points")


def test_criterion_03_centered_asymptote():
    radii = np.geomspace(1e3, 1e5, 25)
    res = sweep("centered", 1.0, radii, "analytic")
    ok = abs(res.fit.slope + 2.50) <= 0.02
    _report(3, "analytic centered sweep", ok,
            f"slope {res.fit.slope:+.4f} within -2.50 +- 0.02")


def test_criterion_04_shifted_asymptote():
    d = 1.0
    radii = np.geomspace(1e3, 1e5, 20)
    res = sweep("shifted", d, radii, "analytic", moment=1.0)
    slope_ok = abs(res.fit.slope + 2.00) <= 0.02
    prefactor = float(np.median(np.abs(res.fields) * res.lengths**2))
    want = MU0 / (4 * np.pi**2 * d)
    pref_ok = abs(prefactor - want) <= 0.02 * want
    _report(4, "analytic shifted sweep", slope_ok and pref_ok,
            f"slope {res.fit.slope:+.4f} within -2.00 +- 0.02; prefactor "
            f"{prefactor:.6e} vs mu0 m/(4 pi^2 d) = {want:.6e} within 2%")


def test_criterion_05_numeric_centered_sweep():
    radii = np.geomspace(0.5e-6, 8e-6, 8)
    res = sweep("centered", D_EDGE, radii, "numeric", n=60)
    ok = abs(res.fit.slope + 2.3) <= 0.3
    _report(5, "numeric centered sweep (60x60)", ok,
            f"slope {res.fit.slope:+.3f} within -2.3 +- 0.3")


def test_criterion_06_numeric_shifted_sweep():
    radii = np.geomspace(0.5e-6, 8e-6, 8)
    res = sweep("shifted", D_EDGE, radii, "numeric", n=60)
    ok = abs(res.fit.slope + 1.9) <= 0.3
    _report(6, "numeric shifted sweep (60x60)", ok,
            f"slope {res.fit.slope:+.3f} within -1.9 +- 0.3")


def test_criterion_07_numeric_ellipse_sweep():
    # the band checks an under-resolved slot: at a = 4 um the scenario grid
    # puts 2 points across |y| < b, and resolving it moves the slope out of
    # the band (README, criterion 7)
    radii = np.geomspace(0.5e-6, 4e-6, 8)
    res = sweep("shifted", D_EDGE, radii, "numeric", n=60, geometry=Ellipse(a=1e-6, b=100e-9))
    slot = Ellipse(a=radii[-1], b=100e-9)
    dipole_x, probe_x = place("shifted", slot, D_EDGE)
    y = scenario_grid(slot, FilmSpec(), 60, dipole_x=dipole_x, probe_x=probe_x).y
    ok = abs(res.fit.slope + 1.4) <= 0.5
    _report(7, "numeric ellipse sweep (b = 100 nm)", ok,
            f"slope {res.fit.slope:+.3f} within -1.4 +- 0.5; {np.sum(np.abs(y) < slot.b)} "
            f"grid y points inside the slot's |y| < b at a = 4 um")


def test_criterion_08_engine_cross_validation():
    rep = compare_engines("centered", Circle(R_UM), D_EDGE, n=60)
    ok = rep.median_abs_db < ENGINE_DB_TOL and rep.sign_agreement > 0.95
    _report(8, "engine cross-validation", ok,
            f"median |delta dB| {rep.median_abs_db:.3f} < {ENGINE_DB_TOL:g}, sign "
            f"agreement {rep.sign_agreement:.3f} > 0.95 over {len(rep.delta_db)} "
            f"band points")


def test_sweep_engines_share_one_field_convention():
    # not a numbered criterion: the numeric sweep reports the physical field,
    # so both engines agree in sign and within criterion 8's tolerance
    radii = np.geomspace(0.5e-6, 2e-6, 5)
    numeric = sweep("centered", D_EDGE, radii, "numeric", n=40)
    analytic = sweep("centered", D_EDGE, radii, "analytic")
    assert np.all(np.sign(numeric.fields) == np.sign(analytic.fields))
    delta_db = np.abs(20.0 * np.log10(numeric.fields / analytic.fields))
    assert delta_db.max() < ENGINE_DB_TOL, delta_db


def _centered_solution(n=60):
    geometry = Circle(R_UM)
    film = FilmSpec()
    grid = scenario_grid(geometry, film, n, dipole_x=0.0,
                         probe_x=R_UM - D_EDGE, y_line=5e-9)
    dipole = Dipole(position=[0, 0, 0], moment=[0, 0, DEFAULT_MOMENT])
    system = BrandtSystem(geometry, film, grid)
    return grid, system, system.solve(dipole)


def test_criterion_09_stream_function_invariants():
    grid, system, sol = _centered_solution()
    ext = grid.region == REGION_EXTERIOR
    exterior_zero = bool(np.all(sol.g.values[ext] == 0.0))
    g_hole = sol.g.values[grid.region == REGION_APERTURE]
    flat_ok = bool(g_hole.size and np.all(g_hole == sol.aperture_current))

    g = sol.g.values.reshape(grid.n_x, grid.n_y)

    def ddx(f):
        out = np.zeros_like(f)
        out[1:-1, :] = (f[2:, :] - f[:-2, :]) / (grid.x[2:] - grid.x[:-2])[:, None]
        return out

    def ddy(f):
        out = np.zeros_like(f)
        out[:, 1:-1] = (f[:, 2:] - f[:, :-2]) / (grid.y[2:] - grid.y[:-2])[None, :]
        return out

    jx, jy = ddy(g), -ddx(g)
    div = ddx(jx) + ddy(jy)
    j_scale = max(np.abs(jx).max(), np.abs(jy).max())
    div_rel = np.abs(div).max() * np.diff(grid.x).min() / j_scale
    div_ok = div_rel < 1e-9

    hz = sol.h_z.values.reshape(grid.n_x, grid.n_y)
    sym = max(
        np.abs(g - g[::-1, :]).max() / np.abs(g).max(),
        np.abs(g - g[:, ::-1]).max() / np.abs(g).max(),
        np.abs(hz - hz[::-1, :]).max() / np.abs(hz).max(),
        np.abs(hz - hz[:, ::-1]).max() / np.abs(hz).max(),
    )
    sym_ok = sym < 1e-9
    ok = exterior_zero and flat_ok and div_ok and sym_ok
    _report(9, "stream-function invariants", ok,
            f"exterior g = 0: {exterior_zero}; aperture g = I exactly: {flat_ok}; "
            f"div J {div_rel:.2e} < 1e-9; "
            f"mirror asymmetry {sym:.2e} < 1e-9")


def test_criterion_10_linearity_and_determinism():
    geometry = Circle(R_UM)
    film = FilmSpec()
    grid = scenario_grid(geometry, film, 40, dipole_x=0.0,
                         probe_x=R_UM - D_EDGE, y_line=5e-9)
    system = BrandtSystem(geometry, film, grid)
    base = system.solve(Dipole(position=[0, 0, 0], moment=[0, 0, DEFAULT_MOMENT]))
    worst = 0.0
    for alpha in (2.0, -1.0, 1e6):
        scaled = system.solve(
            Dipole(position=[0, 0, 0], moment=[0, 0, alpha * DEFAULT_MOMENT])
        )
        want = alpha * base.g.values
        worst = max(worst, np.abs(scaled.g.values - want).max() / np.abs(want).max())
    lin_ok = worst <= 1e-12

    system2 = BrandtSystem(geometry, film, grid)
    rerun = system2.solve(Dipole(position=[0, 0, 0], moment=[0, 0, DEFAULT_MOMENT]))
    det_ok = np.array_equal(base.g.values, rerun.g.values) and np.array_equal(
        base.h_z.values, rerun.h_z.values
    )
    _report(10, "linearity and determinism", lin_ok and det_ok,
            f"max linearity error {worst:.2e} <= 1e-12; repeated solve "
            f"bit-identical: {det_ok}")


def test_criterion_11_coupling_order_of_magnitude():
    # The abstract's claim at 300 nm: flux channelling by the aperture
    # enhances the dipole-dipole coupling.  `coupling300` geometry: ellipse
    # a = 250 nm, b = 100 nm, lambda = 50 nm, t = 80 nm, dipoles 100 nm inside
    # each edge.  References at the same separation and moment (Hz):
    #   free dipoles (criterion 1)                       7.7
    #   closed-form circle R = 250 nm (criteria 2-4)    16.2
    #   numeric circle n = 40/60/80                      18.9 / 17.8 / 17.2
    #   numeric ellipse n = 40/60/80                     47.0 / 41.1 / 39.7
    # The moment convention (DEFAULT_MOMENT = 2 g mu_B ~ 4.0 mu_B) cancels in
    # every ratio checked here, since coupling scales as m^2.
    from scaperture.analytic.shifted import field_shifted_bz_plane
    from scaperture.constants import PLANCK

    radius = 250e-9
    inset = radius - D_EDGE
    moment = [0.0, 0.0, DEFAULT_MOMENT]

    # m |B| / h written out here so the references share no code with
    # numeric_coupling, the path under test
    def hz(b_z):
        return DEFAULT_MOMENT * abs(b_z) / PLANCK

    free_hz = hz(free_dipole_field(moment, [2 * inset, 0.0, 0.0])[2])
    exact_hz = hz(field_shifted_bz_plane(DEFAULT_MOMENT, -inset, [inset], 0.0, radius)[0])
    ellipse_hz = numeric_coupling(Ellipse(a=radius, b=100e-9), D_EDGE, n=60).coupling
    circle_hz = numeric_coupling(Circle(radius), D_EDGE, n=60).coupling

    enhanced = ellipse_hz > free_hz and ellipse_hz > exact_hz
    decade = abs(np.log10(ellipse_hz / exact_hz)) <= 1.0
    engine_db = abs(20.0 * np.log10(circle_hz / exact_hz))
    engines_agree = engine_db < ENGINE_DB_TOL
    _report(11, "coupling at 300 nm", enhanced and decade and engines_agree,
            f"ellipse {ellipse_hz:.3g} Hz > free {free_hz:.3g} Hz and > closed-form "
            f"circle {exact_hz:.3g} Hz: {enhanced}; within a decade of the closed "
            f"form: {decade}; numeric circle {circle_hz:.3g} Hz is {engine_db:.2f} dB "
            f"from the closed form < {ENGINE_DB_TOL:g} dB: {engines_agree}")
