"""Point-by-point comparison of the two engines on circular apertures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MU0
from scaperture.experiments.grids import place, solve_scenario
from scaperture.experiments.sweeps import closed_form_line
from scaperture.geometry import Circle, ConfigurationError, FilmSpec
from scaperture.grid import REGION_EXTERIOR
from scaperture.solver.system import core_radii


@dataclass(frozen=True)
class DeviationReport:
    scenario: str
    x_positions: np.ndarray
    numeric_bz: np.ndarray       # tesla
    analytic_bz: np.ndarray      # tesla
    delta_db: np.ndarray
    median_abs_db: float
    quantiles_abs_db: dict
    sign_agreement: float
    exterior_peak_ratio: float   # max numeric |H_z| on the film along the line / peak inside


def compare_engines(
    scenario: str,
    geometry: Circle,
    d: float = 100e-9,
    *,
    moment: float = DEFAULT_MOMENT,
    n: int = 60,
    band=(0.1, 0.8),
    film: FilmSpec = FilmSpec(),
) -> DeviationReport:
    """Compare both engines along the evaluation line y = EVAL_Y."""
    if not isinstance(geometry, Circle):
        raise ConfigurationError("the analytic engine covers circular apertures only")
    radius = geometry.radius
    x0, probe_x = place(scenario, geometry, d)
    solved = solve_scenario(geometry, film, n, dipole_x=x0, moment=moment, probe_x=probe_x)
    near = solved.grid.region[solved.line] != REGION_EXTERIOR  # h_z_at folds no exterior row
    xs = solved.grid.x[near]
    hz = solved.solution.h_z_at(solved.line[near])

    core = core_radii(solved.grid, solved.dipole)
    rho = np.hypot(xs, EVAL_Y)
    in_band = (rho > band[0] * radius) & (rho < band[1] * radius)
    # keep clear of the zeroed return-flux core around the dipole
    in_band &= np.hypot(xs - x0, EVAL_Y) > 1.5 * max(core)
    if not in_band.any():
        raise ConfigurationError(f"the comparison band ({band[0]} to {band[1]} R on the line, "
                                 "clear of the dipole's core) holds no grid points; refine the grid")

    numeric_bz = MU0 * hz[in_band]
    analytic_bz = closed_form_line(moment, radius, x0, xs[in_band])

    delta_db = 20.0 * np.log10(np.abs(numeric_bz / analytic_bz))
    sign_agreement = float(np.mean(np.sign(numeric_bz) == np.sign(analytic_bz)))

    peak_inside = np.abs(hz[rho < radius]).max()
    exterior_peak_ratio = float(np.abs(hz[rho > radius]).max() / peak_inside)

    return DeviationReport(
        scenario=scenario,
        x_positions=xs[in_band],
        numeric_bz=numeric_bz,
        analytic_bz=analytic_bz,
        delta_db=delta_db,
        median_abs_db=float(np.median(np.abs(delta_db))),
        quantiles_abs_db={
            q: float(np.quantile(np.abs(delta_db), q)) for q in (0.25, 0.5, 0.75, 0.9)
        },
        sign_agreement=sign_agreement,
        exterior_peak_ratio=exterior_peak_ratio,
    )
