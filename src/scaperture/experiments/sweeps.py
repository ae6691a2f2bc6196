"""Aperture-size sweeps of the edge field, for both engines.

Each sweep places the dipole (center, or distance d from the left edge),
evaluates Bz at distance d inside the right edge, and records the value
against the dipole-to-probe separation L.  Both engines report the
physical field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from scaperture.analytic.inplane import field_inplane
from scaperture.analytic.centered import field_centered
from scaperture.analytic.shifted import field_shifted_bz_plane
from scaperture.constants import DEFAULT_MOMENT, MIN_FIT_RADII
from scaperture.experiments.fitting import PowerLawFit, fit_power_law
from scaperture.experiments.grids import DEFAULT_RATIO, solve_scenario
from scaperture.experiments.smoothing import smooth
from scaperture.geometry import (
    ApertureGeometry,
    Circle,
    ConfigurationError,
    Ellipse,
    FilmSpec,
    default_film,
)

SCENARIOS = ("centered", "shifted", "ellipse")
ENGINES = ("analytic", "numeric")


@dataclass(frozen=True)
class SweepResult:
    scenario: str
    engine: str
    d: float
    lengths: np.ndarray          # dipole-to-probe separations, m
    fields: np.ndarray           # Bz at the probe, tesla
    sigma: np.ndarray            # per-point errors, tesla
    fit: PowerLawFit | None
    y_offset: float
    metadata: dict = field(default_factory=dict)

    def points(self):
        return list(zip(self.lengths, self.fields, self.sigma))


def _separation(scenario: str, radius: float, d: float) -> float:
    if scenario == "centered":
        return radius - d
    return 2 * (radius - d)


def _analytic_point(scenario, m, radius, d, y_offset):
    probe = radius - d
    if scenario == "centered":
        if y_offset == 0.0:
            return field_inplane("z", m, probe, radius)[2]
        return field_centered([0, 0, m], [probe, y_offset, 0.0], radius)[2]
    if scenario == "shifted":
        return field_shifted_bz_plane(m, -(radius - d), [probe], y_offset, radius)[0]
    raise ConfigurationError("no closed form for elliptical apertures")


def sweep(
    scenario: str,
    d: float,
    radii,
    engine: str,
    *,
    moment: float = DEFAULT_MOMENT,
    y_offset: float | None = None,
    n: int = 60,
    ratio: float = DEFAULT_RATIO,
    b: float = 100e-9,
    film: Callable[[ApertureGeometry], FilmSpec] = default_film,
    smooth_window: int = 1,
) -> SweepResult:
    """Evaluate the probe field across aperture radii and fit the decay.

    centered: dipole at the center, R = L + d.  shifted: dipole at distance
    d from the left edge, R = L/2 + d.  ellipse: like shifted with the x
    semi-axis varying at fixed b.  `film` sizes the film for each radius's
    aperture (numeric engine).
    """
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"scenario must be one of {SCENARIOS}")
    if engine not in ENGINES:
        raise ConfigurationError(f"engine must be one of {ENGINES}")
    if d <= 0:
        raise ConfigurationError("d must be positive")
    radii = np.sort(np.asarray(radii, dtype=float))
    if np.any(radii <= d):
        raise ConfigurationError("all radii must exceed d")
    if not (smooth_window % 2 == 1 and 1 <= smooth_window <= len(radii)):
        raise ConfigurationError("smooth_window must be odd and 1 to the radius count")
    if engine == "analytic" and scenario == "ellipse":
        raise ConfigurationError("no closed form for elliptical apertures")
    if y_offset is None:
        y_offset = 0.0 if engine == "analytic" else 5e-9

    lengths = np.array([_separation(scenario, r, d) for r in radii])
    fields = np.empty_like(lengths)
    for i, radius in enumerate(radii):
        if engine == "analytic":
            fields[i] = _analytic_point(scenario, moment, radius, d, y_offset)
        else:
            geometry = Ellipse(a=radius, b=b) if scenario == "ellipse" else Circle(radius)
            # only the probe value outlives the call, so no two systems coexist
            fields[i] = solve_scenario(
                geometry, film(geometry), n, ratio=ratio,
                dipole_x=0.0 if scenario == "centered" else -(radius - d),
                moment=moment, probe_x=radius - d, y_line=y_offset,
            ).b_probe

    fields, sigma = smooth(fields, smooth_window)  # the identity for window 1

    fit = fit_power_law(lengths, fields, sigma) if len(lengths) >= MIN_FIT_RADII else None
    meta = {"engine": engine, "field_convention": "physical", "smooth_window": smooth_window}
    if engine == "numeric":
        meta.update({"n": n, "ratio": ratio})
        if scenario == "ellipse":
            meta["b"] = b
    return SweepResult(
        scenario=scenario,
        engine=engine,
        d=d,
        lengths=lengths,
        fields=fields,
        sigma=sigma,
        fit=fit,
        y_offset=y_offset,
        metadata=meta,
    )
