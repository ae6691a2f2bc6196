"""Scenario placement, scenario grids and the one scenario pipeline of the
numeric engine.

`place` is the one placement rule of every numeric command: the dipole and
the probe sit on the x axis, and B_z is read along the evaluation line
y = EVAL_Y.  `scenario_grid` is the one self-similar grid rule: `make_grid`'s
grading at the aperture edges, at the fixed ratio `DEFAULT_RATIO`, refined
also at the dipole abscissa and at the midline (for the evaluation line),
with the probe abscissa and the evaluation line snapped onto exact
coordinates.
`solve_scenario` runs geometry -> grid -> system -> solve -> probe for every
numeric caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scaperture.constants import DEFAULT_RATIO, EVAL_Y, MU0
from scaperture.geometry import ApertureGeometry, ConfigurationError, Dipole, FilmSpec
from scaperture.grid import Grid, make_grid

# the module, not the class: BrandtSystem is looked up when a scenario is
# solved, so a substitute patched into scaperture.solver.system is used
from scaperture.solver import system as solver


def place(scenario: str, geometry: ApertureGeometry, d: float) -> tuple[float, float]:
    """(dipole_x, probe_x), m: the probe sits d inside the right edge, the
    dipole at the centre (`centered`) or d inside the left edge (`shifted`),
    on any aperture shape.  Needs 0 < d < the x semi-axis, so that the two
    do not cross.
    """
    if scenario not in ("centered", "shifted"):
        raise ConfigurationError(f"scenario must be centered or shifted, not {scenario!r}")
    edge = geometry.edge_x
    if not 0 < d < edge:
        raise ConfigurationError(f"d = {d * 1e9:g} nm must lie strictly between 0 and the x "
                                 f"semi-axis (the radius of a circle) {edge * 1e9:g} nm")
    probe_x = edge - d
    return (0.0 if scenario == "centered" else -probe_x), probe_x


def scenario_grid(
    geometry: ApertureGeometry,
    film: FilmSpec,
    n: int,
    *,
    dipole_x: float = 0.0,
    probe_x: float | None = None,
    y_line: float = EVAL_Y,
) -> Grid:
    return make_grid(geometry, film, n, DEFAULT_RATIO, refine_x=[abs(dipole_x)], refine_y=[0.0],
                     anchor_x=probe_x, anchor_y=y_line)


@dataclass(frozen=True)
class ScenarioSolution:
    """A solved scenario, its evaluation line and its probe."""

    grid: Grid
    system: solver.BrandtSystem
    solution: solver.StreamSolution
    line: np.ndarray    # flat grid indices of the line y = EVAL_Y, by increasing x
    probe: int          # index of the probe on the line

    @property
    def b_probe(self) -> float:
        """B_z at the probe, tesla."""
        return float(MU0 * self.solution.h_z_at(self.line[self.probe]))


def solve_scenario(
    geometry: ApertureGeometry,
    film: FilmSpec,
    n: int,
    *,
    dipole_x: float,
    moment: float,
    probe_x: float,
) -> ScenarioSolution:
    """Solve a z dipole of `moment` at (dipole_x, 0) on the scenario grid
    and find the line y = EVAL_Y and the probe (probe_x, EVAL_Y) on its grid.
    """
    grid = scenario_grid(geometry, film, n, dipole_x=dipole_x, probe_x=probe_x)
    dipole = Dipole(position=[dipole_x, 0.0, 0.0], moment=[0.0, 0.0, moment])
    system = solver.BrandtSystem(geometry, film, grid)
    return ScenarioSolution(
        grid=grid,
        system=system,
        solution=system.solve(dipole),
        line=grid.x_line(EVAL_Y),
        probe=int(np.argmin(np.abs(grid.x - probe_x))),
    )
