"""Batch command-line front end.

Each command handler imports only the library modules it calls.

Exit codes: 0 success, 2 usage, configuration or output error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from scaperture.geometry import ConfigurationError, SolverError
from scaperture.openblas import set_threads

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaperture",
        description="Dipole fields in apertures of superconducting thin films.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("analytic", "Closed-form circular-aperture fields (curve or map CSV)."),
        ("solve", "Finite-penetration-depth solve: stream function and H_z maps."),
        ("sweep", "Aperture-size sweep of the edge field with a power-law fit."),
        ("compare", "Analytic vs numeric deviation report on a circular aperture."),
        ("coupling", "Partner-site coupling estimate for the configured geometry."),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--preset", default=None, metavar="NAME",
                       help="built-in scenario (fig3..fig7*, coupling300)")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="JSON scenario file (lengths in nanometers)")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="output directory (default: ./scaperture-<command>)")
        p.add_argument("--grid", type=int, default=None, metavar="N",
                       help="override the grid's point count n (n x n points)")
        p.add_argument("--threads", type=int, default=None,
                       help="linear-algebra thread count")
    return parser


def _apply_threads(threads: int | None) -> None:
    if threads is not None:
        if threads < 1:
            raise ConfigurationError(f"thread count must be at least 1, got {threads}")
        set_threads(threads)


def _resolve_config(args, command):
    from scaperture.io.config import load_config, parse_config, preset_config

    if args.preset and args.config:
        raise ConfigurationError("use --preset or --config, not both")
    if args.preset:
        cfg = preset_config(args.preset, command)
    elif args.config:
        cfg = load_config(args.config, command)
    else:
        raise ConfigurationError(f"{command}: provide --preset or --config")
    if args.grid is not None:
        doc = dict(cfg.raw)
        doc["grid"] = dict(doc.get("grid", {}), n=args.grid)
        cfg = parse_config(doc, command)
    return cfg


def _value_csv(path, coords: dict, values, unit, b_z=None):
    """The coordinate columns, then the values and, given the B_z they
    describe (tesla), its level in dB re 1 gauss."""
    import numpy as np

    from scaperture.constants import GAUSS
    from scaperture.io.writers import write_csv_atomic

    columns, comments = {**coords, "value": values}, [f"value unit: {unit}"]
    if b_z is not None:
        with np.errstate(divide="ignore"):
            columns["value_db"] = 20.0 * np.log10(np.abs(b_z) / GAUSS)
        comments.append("value_db: 20 log10(|B_z| / 1 gauss), B_z in tesla")
    write_csv_atomic(path, columns, header_comments=comments)


def _cmd_analytic(cfg, out) -> None:
    import numpy as np

    from scaperture.analytic.centered import field_centered
    from scaperture.analytic.inplane import field_inplane
    from scaperture.io.writers import write_csv_atomic

    radius = cfg.geometry.radius
    if cfg.analytic_kind == "curve":
        xs = np.linspace(0.02 * radius, 3.0 * radius, cfg.analytic_samples)
        xs = xs[xs / radius != 1.0]  # the edge, where B_z diverges, is left out
        bz = field_inplane(cfg.moment, xs, radius)
        _value_csv(out / "curve.csv", {"x_m": xs}, bz,
                   "tesla (Bz of a z dipole at the aperture center, z = 0)", bz)
        print(f"curve: {out / 'curve.csv'}")
    else:
        span = np.linspace(-2.0 * radius, 2.0 * radius, cfg.analytic_samples)
        zs, xs = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
        keep = np.hypot(xs, zs) >= 0.05 * radius  # the core around the dipole is left out
        xs, zs = xs[keep], zs[keep]
        # on the film the field is 0; everywhere else it comes from one call
        free = ~((zs == 0.0) & (np.abs(xs) >= radius))
        pts = np.column_stack([xs[free], np.zeros(free.sum()), zs[free]])
        b = np.zeros((len(xs), 3))
        b[free] = field_centered([0, 0, cfg.moment], pts, radius)
        write_csv_atomic(
            out / "map.csv",
            {"x_m": xs, "z_m": zs, "bx_t": b[:, 0], "bz_t": b[:, 2]},
            header_comments=["field unit: tesla (x-z plane through a centered z dipole)"],
        )
        print(f"map: {out / 'map.csv'}")


def _cmd_solve(cfg, out) -> None:
    from scaperture.constants import MU0
    from scaperture.experiments.grids import place, solve_scenario
    from scaperture.io.writers import write_json_atomic

    dipole_x, probe_x = place(cfg.scenario, cfg.geometry, cfg.sweep_d)
    solved = solve_scenario(cfg.geometry, cfg.film, cfg.n, dipole_x=dipole_x, moment=cfg.moment,
                            probe_x=probe_x)
    sol, pts = solved.solution, solved.grid.points
    xy = {"x_m": pts[:, 0], "y_m": pts[:, 1]}
    _value_csv(out / "hz.csv", xy, sol.h_z.values, "A/m (perpendicular field H_z = B_z / mu0)",
               MU0 * sol.h_z.values)
    _value_csv(out / "g.csv", xy, sol.g.values, "A (stream function)")
    write_json_atomic(
        out / "summary.json",
        {
            "aperture_current_A": sol.aperture_current,
            "condition_estimate": solved.system.condition_estimate,
        },
    )
    print(f"hz: {out / 'hz.csv'}")
    print(f"g: {out / 'g.csv'}")
    print(f"aperture current: {sol.aperture_current:.6e} A")


def _cmd_sweep(cfg, out) -> None:
    from scaperture.constants import EVAL_Y
    from scaperture.experiments.sweeps import sweep
    from scaperture.io.writers import write_json_atomic

    res = sweep(cfg.scenario, cfg.sweep_d, list(cfg.sweep_radii), cfg.engine,
                geometry=cfg.geometry, moment=cfg.moment, n=cfg.n, film=cfg.film)
    payload = {
        "scenario": res.scenario,
        "engine": res.engine,
        "d_m": res.d,
        "y_offset_m": EVAL_Y,
        "points": [
            {"L_m": float(length), "B_T": float(b)} for length, b in zip(res.lengths, res.fields)
        ],
        "fit": {
            "slope": res.fit.slope,
            "slope_err": res.fit.slope_err,
            "intercept": res.fit.intercept,
        },
        "metadata": res.metadata,
    }
    write_json_atomic(out / "sweep.json", payload)
    print(f"sweep: {out / 'sweep.json'}")
    print(f"slope: {res.fit.slope:+.3f} +- {res.fit.slope_err:.3f}")


def _cmd_compare(cfg, out) -> None:
    from scaperture.io.writers import write_csv_atomic, write_json_atomic

    from scaperture.experiments.compare import compare_engines

    rep = compare_engines(
        cfg.scenario,
        cfg.geometry,
        cfg.sweep_d,
        moment=cfg.moment,
        n=cfg.n,
        film=cfg.film,
    )
    write_csv_atomic(
        out / "compare.csv",
        {
            "x_m": rep.x_positions,
            "bz_numeric_t": rep.numeric_bz,
            "bz_analytic_t": rep.analytic_bz,
            "delta_db": rep.delta_db,
        },
    )
    write_json_atomic(
        out / "compare.json",
        {
            "scenario": rep.scenario,
            "median_abs_db": rep.median_abs_db,
            "quantiles_abs_db": {str(k): v for k, v in rep.quantiles_abs_db.items()},
            "sign_agreement": rep.sign_agreement,
            "n_points": int(len(rep.delta_db)),
        },
    )
    print(f"compare: {out / 'compare.json'}")
    print(f"median |delta dB|: {rep.median_abs_db:.3f}, "
          f"sign agreement: {rep.sign_agreement:.3f}")


def _cmd_coupling(cfg, out) -> None:
    from scaperture.experiments.coupling import numeric_coupling
    from scaperture.io.writers import write_json_atomic

    est = numeric_coupling(
        cfg.geometry,
        cfg.sweep_d,
        moment=cfg.moment,
        n=cfg.n,
        film=cfg.film,
    )
    write_json_atomic(
        out / "coupling.json",
        {
            "separation_m": est.separation,
            "field_T": est.field,
            "coupling_Hz": est.coupling,
        },
    )
    print(f"coupling: {est.coupling:.4g} Hz at {est.separation * 1e9:.0f} nm")


_HANDLERS = {
    "analytic": _cmd_analytic,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "coupling": _cmd_coupling,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_threads(args.threads)
        cfg = _resolve_config(args, args.command)
        out = Path(args.out or f"scaperture-{args.command}")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"{out}: cannot create the output directory: "
                                     f"{exc.strerror}") from exc
        _HANDLERS[args.command](cfg, out)
        from scaperture.io.writers import write_manifest

        write_manifest(out / "manifest.json", args.command, cfg.raw, args.threads)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # a failed output write, its temp file removed
        print(f"output error: {exc.filename}: cannot write: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
