"""Scenario grids and the one scenario pipeline of the numeric engine.

One self-similar rule for all scenarios: `make_grid`'s grading at the
aperture edges, refined also at the dipole abscissa and at the midline (for
the evaluation line), with the probe position and evaluation line snapped
onto exact coordinates.

`solve_scenario` runs geometry -> grid -> system -> solve -> probe for every
numeric caller and is the one place where the solver's field becomes the
physical one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.constants import MU0
from scaperture.geometry import ApertureGeometry, ConfigurationError, Dipole, FilmSpec, default_film
from scaperture.grid import Grid, make_grid

# the module, not the class: BrandtSystem is looked up when a scenario is
# solved, so a substitute patched into scaperture.solver.system is used
from scaperture.solver import system as solver

DEFAULT_RATIO = 125.0


def scenario_grid(
    geometry: ApertureGeometry,
    film: FilmSpec,
    n: int,
    *,
    dipole_x: float = 0.0,
    probe_x: float | None = None,
    y_line: float = 5e-9,
    ratio: float = DEFAULT_RATIO,
) -> Grid:
    return make_grid(
        geometry, film, n, n, ratio,
        refine_x=[abs(dipole_x)],
        refine_y=[0.0],
        anchor_x=[probe_x] if probe_x is not None else [],
        anchor_y=[y_line] if y_line else [],
    )


@dataclass(frozen=True)
class ScenarioSolution:
    """A solved scenario and its physical field along the evaluation line."""

    grid: Grid
    system: solver.BrandtSystem
    solution: solver.StreamSolution  # h_z in the solver's source convention, A/m
    dipole: Dipole
    line: np.ndarray    # flat grid indices of the evaluation line, by increasing x
    y_line: float       # height of that line on the grid, m
    b_z: np.ndarray     # physical B_z on the line, tesla
    probe: int          # index of the probe on the line

    @property
    def b_probe(self) -> float:
        """Physical B_z at the probe, tesla.

        Inside the dipole's return-flux core the source is the compensating
        bump, not the dipole's field, so a probe there is a configuration error.
        """
        rcx, rcy = solver.core_radii(self.grid, self.dipole)
        dx = self.grid.x[self.probe] - self.dipole.position[0]
        dy = self.y_line - self.dipole.position[1]
        if (dx / rcx) ** 2 + (dy / rcy) ** 2 < 1.0:
            raise ConfigurationError(
                "the probe lies inside the dipole's return-flux core; move them "
                "apart or refine the grid near the dipole"
            )
        return float(self.b_z[self.probe])


def solve_scenario(
    geometry: ApertureGeometry,
    film: FilmSpec | None,
    n: int,
    *,
    ratio: float,
    dipole_x: float,
    dipole_y: float = 0.0,
    moment: float,
    probe_x: float,
    y_line: float,
) -> ScenarioSolution:
    """Solve a z dipole of `moment` at (dipole_x, dipole_y) on the scenario
    grid and read B_z along y = y_line and at the probe (probe_x, y_line).

    `film` None stands for `default_film(geometry)`.
    """
    if film is None:
        film = default_film(geometry)
    grid = scenario_grid(geometry, film, n, dipole_x=dipole_x, probe_x=probe_x,
                         y_line=y_line, ratio=ratio)
    dipole = Dipole(position=[dipole_x, dipole_y, 0.0], moment=[0.0, 0.0, moment])
    system = solver.BrandtSystem(geometry, film, grid)
    solution = system.solve(dipole)
    line, y_actual = grid.x_line(y_line)
    # the source formula H_a = m / (2 pi r^3) is -2x the physical in-plane
    # field of a z dipole, and so is every H_z the solver returns
    b_z = -0.5 * MU0 * solution.h_z.values[line]
    return ScenarioSolution(
        grid=grid,
        system=system,
        solution=solution,
        dipole=dipole,
        line=line,
        y_line=float(y_actual),
        b_z=b_z,
        probe=int(np.argmin(np.abs(grid.x - probe_x))),
    )
