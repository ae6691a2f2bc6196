"""Aperture-size sweeps of the edge field, for both engines.

Each sweep scales the configured aperture to every radius, places the
dipole and the probe with `place`, evaluates Bz at the probe on the line
y = EVAL_Y, and records the value against the dipole-to-probe separation L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scaperture.analytic.centered import field_centered
from scaperture.analytic.shifted import field_shifted_bz_plane
from scaperture.constants import DEFAULT_MOMENT, EVAL_Y, MIN_FIT_RADII
from scaperture.experiments.fitting import PowerLawFit, fit_power_law
from scaperture.experiments.grids import place, solve_scenario
from scaperture.geometry import (ApertureGeometry, Circle, ConfigurationError, Ellipse,
                                 FilmSpec, SolverError)

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


def closed_form_line(moment: float, radius: float, dipole_x: float, xs):
    """Closed-form B_z (tesla) at the abscissae `xs` of the line y = EVAL_Y,
    from a z dipole of `moment` at (dipole_x, 0) in the circle of `radius`:
    the centred field for dipole_x = 0, the shifted one otherwise.
    """
    xs = np.asarray(xs, dtype=float)
    if dipole_x == 0.0:
        pts = np.column_stack([xs, np.full(len(xs), EVAL_Y), np.zeros(len(xs))])
        return field_centered([0, 0, moment], pts, radius)[:, 2]
    return field_shifted_bz_plane(moment, dipole_x, xs, EVAL_Y, radius)


def sweep(
    scenario: str,
    d: float,
    radii,
    engine: str,
    *,
    geometry: ApertureGeometry | None = None,
    moment: float = DEFAULT_MOMENT,
    n: int = 60,
    film: FilmSpec = FilmSpec(),
) -> SweepResult:
    """Evaluate the probe field across aperture radii and fit the decay.

    Each radius r scales the configured `geometry` (circles when None):
    Circle(r), or Ellipse(a=r, b=geometry.b); a dog-bone cannot be swept.
    `place` puts the dipole at the centre (centered, L = r - d) or d inside
    the left edge (shifted, L = 2 (r - d)), every radius before any solve.
    The analytic engine needs circles; the numeric one sizes each radius's
    film and grid by `film.half_extents`.  Both read the probe on y = EVAL_Y.
    The power-law fit needs at least MIN_FIT_RADII distinct radii and B_z
    of one sign at all of them (SolverError otherwise).
    """
    if engine not in ENGINES:
        raise ConfigurationError(f"engine must be one of {ENGINES}")
    radii = np.sort(np.asarray(radii, dtype=float))
    if len(set(radii.tolist())) < MIN_FIT_RADII:
        raise ConfigurationError(f"the fit needs at least {MIN_FIT_RADII} radii that differ")
    if geometry is None or isinstance(geometry, Circle):
        geometries = [Circle(r) for r in radii]
    elif isinstance(geometry, Ellipse):
        geometries = [Ellipse(a=r, b=geometry.b) for r in radii]
    else:
        raise ConfigurationError(f"a sweep varies a circle's radius or an ellipse's x "
                                 f"semi-axis; it cannot sweep a {type(geometry).__name__}")
    if engine == "analytic" and not isinstance(geometries[0], Circle):
        raise ConfigurationError("the analytic engine requires a circular aperture")

    placed = [place(scenario, aperture, d) for aperture in geometries]
    lengths = np.array([probe_x - dipole_x for dipole_x, probe_x in placed])
    fields = np.empty_like(lengths)
    for i, (aperture, (dipole_x, probe_x)) in enumerate(zip(geometries, placed)):
        if engine == "analytic":
            fields[i] = closed_form_line(moment, radii[i], dipole_x, [probe_x])[0]
        else:
            # only the probe value outlives the call, so no two systems coexist
            fields[i] = solve_scenario(aperture, film, n, dipole_x=dipole_x, moment=moment,
                                       probe_x=probe_x).b_probe

    signs = np.sign(fields)
    odd = radii[signs != (1.0 if signs.sum() >= 0 else -1.0)]  # against the majority's sign
    if odd.size:
        raise SolverError(f"B_z at the probe is zero or of the other sign at radius "
                          f"{', '.join(f'{r:.6g}' for r in odd)} m, so no power law fits; "
                          "an under-resolved grid can do this")
    fit = fit_power_law(lengths, fields)
    meta = {"engine": engine}
    if engine == "numeric":
        meta["n"] = n
        if isinstance(geometry, Ellipse):
            meta["b"] = geometry.b
    return SweepResult(
        scenario=scenario,
        engine=engine,
        d=d,
        lengths=lengths,
        fields=fields,
        fit=fit,
        metadata=meta,
    )
