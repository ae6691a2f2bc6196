"""The axisymmetric reference at finite Pearl length checks itself, then
measures the numeric engine's fig5c sweep against it."""

import numpy as np
import pytest

from scaperture.analytic.centered import field_centered
from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MU0
from scaperture.experiments.fitting import fit_power_law
from scaperture.experiments.grids import place, scenario_grid
from scaperture.experiments.sweeps import sweep
from scaperture.geometry import Dipole, FilmSpec
from scaperture.io.config import preset_config
from scaperture.solver.system import BrandtSystem

from axisym_oracle import centred_sweep_reference, panel_edges, reference_bz, sheet_current

R = 1e-6
PROBE = np.hypot(R - 100e-9, EVAL_Y)  # fig5a's probe, 100 nm inside the edge on y = EVAL_Y
PEARL = FilmSpec().pearl_length


def test_reference_at_the_fig5a_probe():
    assert len(panel_edges(R, 90 * R)) - 1 == 148
    assert reference_bz(R, 90 * R, PEARL, PROBE) == pytest.approx(-1.1148e-11, abs=5e-16)


def test_panel_refinement_moves_the_probe_by_under_1e_4():
    coarse = reference_bz(R, 90 * R, PEARL, PROBE)
    fine = reference_bz(R, 90 * R, PEARL, PROBE, first=0.25e-9, growth=1.03)
    assert len(panel_edges(R, 90 * R, first=0.25e-9, growth=1.03)) > 2 * 148
    assert abs(fine / coarse - 1) < 1e-4


def test_trends_to_the_closed_form_as_the_pearl_length_vanishes():
    closed = field_centered([0, 0, DEFAULT_MOMENT], [R - 100e-9, EVAL_Y, 0.0], R)[2]
    gaps = [abs(reference_bz(R, 90 * R, pearl, PROBE) / closed - 1)
            for pearl in (3e-9, 3e-10, 3e-11)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-3


def test_film_radius_beyond_5_radii_does_not_move_the_probe():
    values = [reference_bz(R, f * R, PEARL, PROBE) for f in (5, 90, 900)]
    assert max(values) / min(values) - 1 < 2e-5


def test_free_dipole_limit_as_the_pearl_length_grows():
    free = -MU0 * DEFAULT_MOMENT / (4 * np.pi * PROBE**3)
    gaps = [abs(reference_bz(R, 90 * R, pearl, PROBE) / free - 1) for pearl in (1e-3, 1.0)]
    assert gaps[1] < gaps[0] < 1e-3
    assert gaps[1] < 1e-6


def test_fig5c_numeric_errors_against_the_reference():
    cfg = preset_config("fig5c", "sweep")
    radii = np.array(cfg.sweep_radii)
    ref = centred_sweep_reference(radii, cfg.sweep_d, cfg.film)
    ref_slope = fit_power_law(radii - cfg.sweep_d, ref).slope
    res = sweep("centered", cfg.sweep_d, radii, "numeric", n=cfg.n, film=cfg.film)
    errors = res.fields / ref - 1
    print(f"fig5c at n = {cfg.n} against the axisymmetric reference: errors "
          + " ".join(f"{e:+.3f}" for e in errors)
          + f"; slope {res.fit.slope:+.4f}, reference {ref_slope:+.4f}")
    assert ref_slope == pytest.approx(-2.5006, abs=0.002)
    # a guard against gross breakage, not a convergence claim: the largest
    # error at n = 60 is 0.293
    assert np.abs(errors).max() < 0.30


def test_aperture_current_converges_to_the_reference():
    # fig7a's scene, a centred dipole in the R = 1 um circle: the current I
    # round the hole against the reference's sum of K over its panels,
    # -5.044e-12 A.  The errors read +15.3 %, +6.7 % and +3.1 % at n = 60,
    # 100 and 140
    cfg = preset_config("fig7a", "solve")
    edges, current = sheet_current(R, cfg.film.half_extents(cfg.geometry)[0], PEARL, cfg.moment)
    ref = current @ np.diff(edges)
    assert ref == pytest.approx(-5.044e-12, abs=5e-16)
    dipole_x, probe_x = place(cfg.scenario, cfg.geometry, cfg.sweep_d)
    dipole = Dipole(position=[dipole_x, 0.0, 0.0], moment=[0.0, 0.0, cfg.moment])
    errors = []
    for n in (60, 100, 140):
        grid = scenario_grid(cfg.geometry, cfg.film, n, dipole_x=dipole_x, probe_x=probe_x)
        solution = BrandtSystem(cfg.geometry, cfg.film, grid).solve(dipole)
        errors.append(solution.aperture_current / ref - 1)
    print("fig7a aperture current against the reference at n = 60, 100, 140: "
          + " ".join(f"{e:+.3f}" for e in errors))
    assert abs(errors[2]) < abs(errors[1]) < abs(errors[0]) < 0.16
