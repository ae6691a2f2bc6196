"""Scenario configuration: JSON ingestion, validation and presets.

Configs are nested key-value documents; lengths are given in nanometers for
readability and converted to SI at this boundary.  One file describes one
scenario; sweeps carry explicit radius lists so runs stay reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from scaperture.constants import DEFAULT_MOMENT, MIN_FIT_RADII
from scaperture.geometry import (
    ApertureGeometry,
    Circle,
    ConfigurationError,
    DogBone,
    Ellipse,
    FilmSpec,
    default_film,
)

_NM = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    command: str
    geometry: ApertureGeometry
    film: FilmSpec
    dipole_x: float
    dipole_y: float
    moment: float
    n_x: int
    n_y: int
    ratio: float
    engine: str
    scenario: str
    sweep_d: float
    sweep_radii: tuple
    smooth_window: int
    y_offset: float
    db_convention: str
    analytic_kind: str
    analytic_samples: int
    raw: dict = field(repr=False, default_factory=dict)


def _geometry_from(doc: dict) -> ApertureGeometry:
    kind = doc.get("kind", "circle")
    if kind == "circle":
        return Circle(doc["radius_nm"] * _NM)
    if kind == "ellipse":
        return Ellipse(a=doc["a_nm"] * _NM, b=doc["b_nm"] * _NM)
    if kind == "dogbone":
        return DogBone(
            end_radius=doc["end_radius_nm"] * _NM,
            center_distance=doc["center_distance_nm"] * _NM,
            channel_half_width=doc["channel_half_width_nm"] * _NM,
        )
    raise ConfigurationError(f"geometry.kind: unknown value {kind!r}")


def parse_config(doc: dict, command: str) -> ScenarioConfig:
    try:
        geometry = _geometry_from(doc.get("geometry", {"kind": "circle", "radius_nm": 1000}))
        film_doc = doc.get("film", {})
        film = default_film(
            geometry,
            london_depth=film_doc.get("london_depth_nm", 50) * _NM,
            thickness=film_doc.get("thickness_nm", 80) * _NM,
            film_factor=film_doc.get("film_factor", 90),
            grid_factor=film_doc.get("grid_factor", 100),
        )
        dipole_doc = doc.get("dipole", {})
        grid_doc = doc.get("grid", {})
        sweep_doc = doc.get("sweep", {})
        analytic_doc = doc.get("analytic", {})
        cfg = ScenarioConfig(
            command=command,
            geometry=geometry,
            film=film,
            dipole_x=dipole_doc.get("x_nm", 0.0) * _NM,
            dipole_y=dipole_doc.get("y_nm", 0.0) * _NM,
            moment=dipole_doc.get("moment", DEFAULT_MOMENT),
            n_x=int(grid_doc.get("n_x", 60)),
            n_y=int(grid_doc.get("n_y", 60)),
            ratio=float(grid_doc.get("ratio", 125.0)),
            engine=doc.get("engine", "numeric"),
            scenario=doc.get("scenario", "centered"),
            sweep_d=sweep_doc.get("d_nm", 100.0) * _NM,
            sweep_radii=tuple(r * _NM for r in sweep_doc.get("radii_nm", [])),
            smooth_window=int(sweep_doc.get("smooth_window", 1)),
            y_offset=doc.get("y_offset_nm", 5.0) * _NM,
            db_convention=doc.get("db_convention", "amplitude20"),
            analytic_kind=analytic_doc.get("kind", "curve"),
            analytic_samples=int(analytic_doc.get("samples", 200)),
            raw=doc,
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigurationError):
            raise
        raise ConfigurationError(f"config field error: {exc}") from exc
    _validate(cfg, command)
    return cfg


def _validate(cfg: ScenarioConfig, command: str) -> None:
    if cfg.moment <= 0:
        raise ConfigurationError("dipole.moment must be positive")
    if cfg.engine not in ("analytic", "numeric"):
        raise ConfigurationError(f"engine: unknown value {cfg.engine!r}")
    if cfg.engine == "analytic" and not isinstance(cfg.geometry, Circle):
        raise ConfigurationError("the analytic engine requires a circular aperture")
    if cfg.db_convention not in ("amplitude20", "power10"):
        raise ConfigurationError("db_convention must be amplitude20 or power10")
    if cfg.n_x != cfg.n_y:
        # every engine builds square grids from n_x
        raise ConfigurationError(f"grid: n_x = {cfg.n_x} and n_y = {cfg.n_y} must be equal")
    if command == "sweep":
        if len(cfg.sweep_radii) < MIN_FIT_RADII:
            raise ConfigurationError(f"sweep.radii_nm: the fit needs at least {MIN_FIT_RADII} radii")
        if cfg.sweep_d <= 0:
            raise ConfigurationError("sweep.d_nm must be positive")
    if command in ("solve", "compare", "coupling"):
        if not cfg.geometry.contains(cfg.dipole_x, cfg.dipole_y):
            raise ConfigurationError("dipole must sit inside the aperture")


def load_config(path: str | Path, command: str) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or not doc:
        raise ConfigurationError(f"{path}: config must be a non-empty object")
    return parse_config(doc, command)


def _doc(**over):
    doc = {
        "geometry": {"kind": "circle", "radius_nm": 1000},
        "film": {"london_depth_nm": 50, "thickness_nm": 80,
                 "film_factor": 90, "grid_factor": 100},
        "grid": {"n_x": 60, "n_y": 60, "ratio": 125.0},
        "y_offset_nm": 5.0,
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
    # elliptical aperture: field map and sweep at fixed b
    "fig6a": _doc(geometry=_ELLIPSE, dipole={"x_nm": -900.0}),
    "fig6b": _doc(geometry=_ELLIPSE, scenario="ellipse",
                  sweep={"d_nm": 100, "radii_nm": _SWEEP_RADII_ELLIPSE}),
    # stream-function maps for the three scenarios
    "fig7a": _doc(dipole={"x_nm": 0.0}),
    "fig7b": _doc(dipole={"x_nm": -900.0}),
    "fig7c": _doc(geometry=_ELLIPSE, dipole={"x_nm": -900.0}),
    # partner coupling at 300 nm separation
    "coupling300": _doc(geometry={"kind": "ellipse", "a_nm": 250, "b_nm": 100},
                        dipole={"x_nm": -150.0}, sweep={"d_nm": 100}),
}


def preset_config(name: str, command: str) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return parse_config(json.loads(json.dumps(PRESETS[name])), command)
