"""Point-by-point comparison of the two engines on circular apertures."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MU0
from scaperture.experiments.grids import place, solve_scenario
from scaperture.experiments.sweeps import closed_form_line
from scaperture.geometry import Circle, ConfigurationError, FilmSpec


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
    rho = np.hypot(solved.grid.x, EVAL_Y)
    in_band = (rho > band[0] * radius) & (rho < band[1] * radius)
    if not in_band.any():
        raise ConfigurationError(f"the comparison band ({band[0]} to {band[1]} R on the line) "
                                 "holds no grid points; refine the grid")
    xs = solved.grid.x[in_band]

    numeric_bz = MU0 * solved.solution.h_z_at(solved.line[in_band])
    analytic_bz = closed_form_line(moment, radius, x0, xs)

    delta_db = 20.0 * np.log10(np.abs(numeric_bz / analytic_bz))
    sign_agreement = float(np.mean(np.sign(numeric_bz) == np.sign(analytic_bz)))

    return DeviationReport(
        scenario=scenario,
        x_positions=xs,
        numeric_bz=numeric_bz,
        analytic_bz=analytic_bz,
        delta_db=delta_db,
        median_abs_db=float(np.median(np.abs(delta_db))),
        quantiles_abs_db={
            q: float(np.quantile(np.abs(delta_db), q)) for q in (0.25, 0.5, 0.75, 0.9)
        },
        sign_agreement=sign_agreement,
    )
