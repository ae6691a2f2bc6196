"""Aperture-size sweeps of the edge field, for both engines.

Each sweep places the dipole and the probe of every radius with `place`,
evaluates Bz at the probe on the line y = EVAL_Y, and records the value
against the dipole-to-probe separation L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scaperture.analytic.centered import field_centered
from scaperture.analytic.shifted import field_shifted_bz_plane
from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MIN_FIT_RADII
from scaperture.experiments.fitting import PowerLawFit, fit_power_law
from scaperture.experiments.grids import place, solve_scenario
from scaperture.geometry import Circle, ConfigurationError, Ellipse, FilmSpec

ENGINES = ("analytic", "numeric")


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    engine: str
    d: float
    lengths: np.ndarray          # dipole-to-probe separations, m
    fields: np.ndarray           # Bz at the probe, tesla
    fit: PowerLawFit
    metadata: dict = field(default_factory=dict)


def closed_form_line(scenario: str, moment: float, radius: float, dipole_x: float, xs):
    """Closed-form B_z (tesla) at the abscissae `xs` of the line y = EVAL_Y,
    from a z dipole of `moment` at (dipole_x, 0) in the circle of `radius`:
    the centred field for `centered` (dipole_x = 0), the shifted one otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    if scenario == "centered":
        pts = np.column_stack([xs, np.full(len(xs), EVAL_Y), np.zeros(len(xs))])
        return field_centered([0, 0, moment], pts, radius)[:, 2]
    return field_shifted_bz_plane(moment, dipole_x, xs, EVAL_Y, radius)


def sweep(
    scenario: str,
    d: float,
    radii,
    engine: str,
    *,
    moment: float = DEFAULT_MOMENT,
    n: int = 60,
    b: float = 100e-9,
    film: FilmSpec = FilmSpec(),
) -> SweepResult:
    """Evaluate the probe field across aperture radii and fit the decay.

    centered: dipole at the center, R = L + d.  shifted: dipole at distance
    d from the left edge, R = L/2 + d.  ellipse: like shifted with the x
    semi-axis varying at fixed b.  Every radius is placed (`place`) before
    any is solved.  The numeric engine gives each radius the film and grid
    of `film`'s factors times that aperture's scale radius.  Both engines
    read the probe on the line y = EVAL_Y.  The power-law fit needs at least
    MIN_FIT_RADII radii.
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"engine must be one of {ENGINES}")
    radii = np.sort(np.asarray(radii, dtype=float))
    if len(radii) < MIN_FIT_RADII:
        raise ConfigurationError(f"the power-law fit needs at least {MIN_FIT_RADII} radii")
    if engine == "analytic" and scenario == "ellipse":
        raise ConfigurationError("no closed form for elliptical apertures")

    geometries = [Ellipse(a=r, b=b) if scenario == "ellipse" else Circle(r) for r in radii]
    placed = [place(scenario, geometry, d) for geometry in geometries]
    lengths = np.array([probe_x - dipole_x for dipole_x, probe_x in placed])
    fields = np.empty_like(lengths)
    for i, (geometry, (dipole_x, probe_x)) in enumerate(zip(geometries, placed)):
        if engine == "analytic":
            fields[i] = closed_form_line(scenario, moment, radii[i], dipole_x, [probe_x])[0]
        else:
            # only the probe value outlives the call, so no two systems coexist
            fields[i] = solve_scenario(geometry, film, n, dipole_x=dipole_x, moment=moment,
                                       probe_x=probe_x).b_probe

    fit = fit_power_law(lengths, fields)
    meta = {"engine": engine}
    if engine == "numeric":
        meta["n"] = n
        if scenario == "ellipse":
            meta["b"] = b
    return SweepResult(
        scenario=scenario,
        engine=engine,
        d=d,
        lengths=lengths,
        fields=fields,
        fit=fit,
        metadata=meta,
    )
