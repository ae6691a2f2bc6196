"""Point-by-point comparison of the two engines on circular apertures.

Both fields are physical.  The solver's source formula is -2x the physical
in-plane dipole field, and the offset that skipping the conversion in
`solve_scenario` would add is reported alongside.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.analytic.centered import field_centered
from scaperture.analytic.shifted import field_shifted_bz_plane
from scaperture.constants import DEFAULT_MOMENT
from scaperture.experiments.grids import DEFAULT_RATIO, solve_scenario
from scaperture.geometry import Circle, ConfigurationError, FilmSpec
from scaperture.solver.system import core_radii


@dataclass(frozen=True)
class DeviationReport:
    scenario: str
    radius: float
    d: float
    y_line: float
    x_positions: np.ndarray
    numeric_bz: np.ndarray       # tesla
    analytic_bz: np.ndarray      # tesla
    delta_db: np.ndarray
    median_abs_db: float
    quantiles_abs_db: dict
    sign_agreement: float
    exterior_peak_ratio: float   # max numeric |H_z| outside / peak inside
    convention_offset_db: float  # what skipping the factor -2 would add


def compare_engines(
    scenario: str,
    geometry: Circle,
    d: float = 100e-9,
    *,
    moment: float = DEFAULT_MOMENT,
    n: int = 60,
    ratio: float = DEFAULT_RATIO,
    y_line: float = 5e-9,
    band=(0.1, 0.8),
    film: FilmSpec | None = None,
) -> DeviationReport:
    """Compare both engines along the evaluation line y = y_line.

    `film` defaults to `default_film(geometry)`.
    """
    if not isinstance(geometry, Circle):
        raise ConfigurationError("the analytic engine covers circular apertures only")
    if scenario not in ("centered", "shifted"):
        raise ConfigurationError("comparison scenarios: centered, shifted")
    radius = geometry.radius
    if not 0 < d < radius:
        raise ConfigurationError(f"d = {d * 1e9:g} nm must lie strictly between 0 and "
                                 f"the radius {radius * 1e9:g} nm")
    x0 = 0.0 if scenario == "centered" else -(radius - d)
    solved = solve_scenario(geometry, film, n, ratio=ratio, dipole_x=x0, moment=moment,
                            probe_x=radius - d, y_line=y_line)
    xs, y_actual = solved.grid.x, solved.y_line
    hz = solved.solution.h_z.values[solved.line]

    core = core_radii(solved.grid, solved.dipole)
    rho = np.hypot(xs, y_actual)
    in_band = (rho > band[0] * radius) & (rho < band[1] * radius)
    # keep clear of the zeroed return-flux core around the dipole
    in_band &= np.hypot(xs - x0, y_actual) > 1.5 * max(core)
    if not in_band.any():
        raise ConfigurationError(f"the comparison band ({band[0]} to {band[1]} R on the line, "
                                 "clear of the dipole's core) holds no grid points; refine the grid")

    numeric_bz = solved.b_z[in_band]
    if scenario == "centered":
        pts = np.column_stack([xs[in_band], np.full(in_band.sum(), y_actual),
                               np.zeros(in_band.sum())])
        analytic_bz = field_centered([0, 0, moment], pts, radius)[:, 2]
    else:
        analytic_bz = field_shifted_bz_plane(moment, x0, xs[in_band], y_actual, radius)

    delta_db = 20.0 * np.log10(np.abs(numeric_bz / analytic_bz))
    sign_agreement = float(np.mean(np.sign(numeric_bz) == np.sign(analytic_bz)))

    outside = rho > radius
    peak_inside = np.abs(hz[rho < radius]).max()
    exterior_peak_ratio = float(np.abs(hz[outside]).max() / peak_inside)

    return DeviationReport(
        scenario=scenario,
        radius=radius,
        d=d,
        y_line=float(y_actual),
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
        convention_offset_db=float(20.0 * np.log10(2.0)),
    )
