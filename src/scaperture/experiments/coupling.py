"""Dipole-dipole coupling rates from the field at the partner site."""

from __future__ import annotations

from dataclasses import dataclass

from scaperture.constants import DEFAULT_MOMENT, PLANCK
from scaperture.experiments.grids import place, solve_scenario
from scaperture.geometry import ApertureGeometry, FilmSpec


@dataclass(frozen=True)
class CouplingEstimate:
    separation: float   # m
    field: float        # tesla at the partner site
    coupling: float     # hertz

    def __post_init__(self):
        if self.coupling < 0:
            raise ValueError("coupling must be non-negative")


def coupling_estimate(m: float, b_tesla: float, separation: float) -> CouplingEstimate:
    """Coupling rate m |B| / h for a partner dipole m in field B."""
    return CouplingEstimate(
        separation=separation,
        field=b_tesla,
        coupling=m * abs(b_tesla) / PLANCK,
    )


def numeric_coupling(
    geometry: ApertureGeometry,
    d: float,
    *,
    moment: float = DEFAULT_MOMENT,
    n: int = 60,
    film: FilmSpec = FilmSpec(),
) -> CouplingEstimate:
    """Solve the geometry with a dipole d inside the left edge and estimate
    the coupling at the mirror site d inside the right edge.

    Needs 0 < d < the x semi-axis, so that the two sites do not cross.
    """
    x0, probe = place("shifted", geometry, d)
    solved = solve_scenario(geometry, film, n, dipole_x=x0, moment=moment, probe_x=probe)
    return coupling_estimate(moment, solved.b_probe, probe - x0)
