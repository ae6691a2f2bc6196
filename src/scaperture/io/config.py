"""Scenario configuration: JSON ingestion, validation and presets.

Configs are nested key-value documents; lengths are given in nanometers for
readability and converted to SI at this boundary.  One file describes one
scenario; sweeps carry explicit radius lists so runs stay reproducible.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from scaperture.constants import DEFAULT_MOMENT
from scaperture.geometry import (
    ApertureGeometry,
    Circle,
    ConfigurationError,
    DogBone,
    Ellipse,
    FilmSpec,
)

_NM = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: ApertureGeometry
    film: FilmSpec
    moment: float
    n: int
    engine: str
    scenario: str
    sweep_d: float
    sweep_radii: tuple
    analytic_kind: str
    analytic_samples: int
    raw: dict = field(repr=False, default_factory=dict)


# each shape's class and the fields its config gives in nanometers
_GEOMETRIES = {
    "circle": (Circle, ("radius",)),
    "ellipse": (Ellipse, ("a", "b")),
    "dogbone": (DogBone, ("end_radius", "center_distance", "channel_half_width")),
}
# the keys of each config section but the geometry, whose keys follow its kind
_SECTIONS = {
    "film": ("pearl_length_nm",),
    "dipole": ("moment",),
    "grid": ("n",),
    "sweep": ("d_nm", "radii_nm"),
    "analytic": ("kind", "samples"),
}
_TOP_LEVEL = (*_SECTIONS, "geometry", "engine", "scenario")


def _checked(doc, name: str, keys=None) -> dict:
    """`doc`, the config section `name`, if it is an object holding only `keys`."""
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{name} must be an object")
    unknown = [] if keys is None else sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigurationError(f"{name}: unknown key {unknown[0]!r}")
    return doc


def _number(doc, name: str, key, default=None, types=(int, float)):
    value = doc[key] if default is None else doc.get(key, default)
    if type(value) not in types or not abs(value) <= sys.float_info.max:
        kind = "a finite real number" if float in types else "an integer"
        raise ValueError(f"{name}.{key} must be {kind}, not {value!r}")
    return value


def _geometry_from(doc: dict) -> ApertureGeometry:
    kind = _checked(doc, "geometry").get("kind", "circle")
    if kind not in _GEOMETRIES:
        raise ConfigurationError(f"geometry.kind: unknown value {kind!r}")
    cls, fields = _GEOMETRIES[kind]
    _checked(doc, "geometry", ("kind", *(f"{f}_nm" for f in fields)))
    return cls(**{f: _number(doc, "geometry", f"{f}_nm") * _NM for f in fields})


def parse_config(doc: dict, command: str) -> ScenarioConfig:
    try:
        _checked(doc, "config", _TOP_LEVEL)
        film_doc, dipole_doc, grid_doc, sweep_doc, analytic_doc = (
            _checked(doc.get(name, {}), name, keys) for name, keys in _SECTIONS.items())
        geometry = _geometry_from(doc.get("geometry", {"kind": "circle", "radius_nm": 1000}))
        radii = sweep_doc.get("radii_nm", [])
        cfg = ScenarioConfig(
            geometry=geometry,
            film=FilmSpec(pearl_length=_number(film_doc, "film", "pearl_length_nm", 31.25) * _NM),
            moment=_number(dipole_doc, "dipole", "moment", DEFAULT_MOMENT),
            n=_number(grid_doc, "grid", "n", 60, (int,)),
            engine=doc.get("engine", "numeric"),
            scenario=doc.get("scenario", "centered"),
            sweep_d=_number(sweep_doc, "sweep", "d_nm", 100.0) * _NM,
            sweep_radii=tuple(_number(radii, "sweep.radii_nm", i) * _NM for i in range(len(radii))),
            analytic_kind=analytic_doc.get("kind", "curve"),
            analytic_samples=_number(analytic_doc, "analytic", "samples", 200, (int,)),
            raw=doc,
        )
        _validate(cfg, command)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"config field error: {exc}") from exc
    return cfg


def _validate(cfg: ScenarioConfig, command: str) -> None:
    if cfg.moment <= 0:
        raise ConfigurationError("dipole.moment must be positive")
    if cfg.engine not in ("analytic", "numeric"):
        raise ConfigurationError(f"engine: unknown value {cfg.engine!r}")
    # the closed forms cover circles only; sweep() checks its analytic engine itself
    if command == "analytic":
        if not isinstance(cfg.geometry, Circle):
            raise ConfigurationError("the analytic engine requires a circular aperture")
        if cfg.analytic_kind not in ("curve", "map"):
            raise ConfigurationError(f"analytic.kind: unknown value {cfg.analytic_kind!r}")
        if cfg.analytic_samples < 2:
            raise ConfigurationError("analytic.samples must be at least 2")
        # the largest array in doubles: the map's (samples^2, 3) field, or the curve
        k = float(cfg.analytic_samples)
        name, doubles = "analytic.samples", 3 * k * k if cfg.analytic_kind == "map" else k
    else:
        # the solver's even-even block of (n^2 / 4)^2 kernel entries
        k = float(cfg.n) * cfg.n / 4
        name, doubles = "grid.n", k * k
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * doubles > memory:
        raise ConfigurationError(f"{name} needs an array of {8 * doubles:.3g} bytes, more than "
                                 f"this machine's {memory / 2**30:.1f} GiB of memory")


def load_config(path: str | Path, command: str) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except ValueError as exc:  # an integer literal over Python's digit limit
        raise ConfigurationError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot read the config: {exc.strerror}") from exc
    if not isinstance(doc, dict) or not doc:
        raise ConfigurationError(f"{path}: config must be a non-empty object")
    return parse_config(doc, command)


def _doc(**over):
    doc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "film": {"pearl_length_nm": 31.25},  # lambda = 50 nm, d = 80 nm
        "grid": {"n": 60},
    }
    doc.update(over)
    return doc


_SWEEP_RADII_CIRCLE = [500.0 * 16 ** (k / 7) for k in range(8)]      # 0.5 to 8 um
_SWEEP_RADII_ELLIPSE = [500.0 * 8 ** (k / 7) for k in range(8)]      # 0.5 to 4 um
_ELLIPSE = {"kind": "ellipse", "a_nm": 1000, "b_nm": 100}

PRESETS: dict[str, dict] = {
    # closed-form field map of the centered dipole (streamline plotting data)
    "fig3": _doc(engine="analytic", analytic={"kind": "map", "samples": 81}),
    # in-plane decay curve of the z-oriented centered dipole
    "fig4": _doc(engine="analytic", analytic={"kind": "curve", "samples": 400}),
    # engine comparison along the y = 5 nm line
    "fig5a": _doc(scenario="centered", sweep={"d_nm": 100}),
    "fig5b": _doc(scenario="shifted", sweep={"d_nm": 100}),
    # numeric radius sweeps
    "fig5c": _doc(scenario="centered", sweep={"d_nm": 100, "radii_nm": _SWEEP_RADII_CIRCLE}),
    "fig5d": _doc(scenario="shifted", sweep={"d_nm": 100, "radii_nm": _SWEEP_RADII_CIRCLE}),
    # elliptical aperture, dipole d inside the left edge: field and
    # stream-function maps (also fig7c's), and a sweep of a at fixed b
    "fig6a": _doc(geometry=_ELLIPSE, scenario="shifted"),
    "fig6b": _doc(geometry=_ELLIPSE, scenario="shifted",
                  sweep={"d_nm": 100, "radii_nm": _SWEEP_RADII_ELLIPSE}),
    # stream-function maps of the circle, dipole centred and shifted
    "fig7a": _doc(),
    "fig7b": _doc(scenario="shifted"),
    # partner coupling at 300 nm separation
    "coupling300": _doc(geometry={"kind": "ellipse", "a_nm": 250, "b_nm": 100},
                        sweep={"d_nm": 100}),
}


def preset_config(name: str, command: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return parse_config(json.loads(json.dumps(PRESETS[name])), command)
