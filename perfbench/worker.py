"""One benchmark process: a workload execution, a set-up probe or a ladder rung.

Started by ``run.py`` with the BLAS thread count pinned in the environment
and ``src`` on ``PYTHONPATH``.  Usage: ``python3 worker.py SPEC.json``; the
spec names the workload and the mode, and the measurements are written as
JSON to ``spec["result_path"]``.

Modes:
  run    -- one full execution; CLI workloads call ``scaperture.cli.main``.
  setup  -- stop at the first engine call, after imports and config/input
            resolution, so only set-up time is measured.
  ladder -- one BrandtSystem build plus one centered solve at grid size n.
"""

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# dipole-scan and ladder scene: the fig7a circle, probe at the partner site
SCAN_RADIUS_M = 1e-6
SCAN_N = 60
PROBE_M = (0.9e-6, 5e-9)

CLI_ARGS = {
    "sweep-fig5c": ["sweep", "--preset", "fig5c"],
    "analytic-fig3": ["analytic", "--preset", "fig3"],
}
# modules each workload loads before its first engine call
MODULES = {
    "sweep-fig5c": ("scaperture.cli", "scaperture.experiments.sweeps", "scaperture.io.writers"),
    "analytic-fig3": ("scaperture.cli", "scaperture.analytic.centered",
                      "scaperture.analytic.inplane", "scaperture.io.writers"),
    "dipole-scan": ("scaperture", "scaperture.solver", "scaperture.experiments.grids"),
}
MODULES["ladder"] = MODULES["dipole-scan"]
# first engine entry point of each CLI workload: set-up ends when it is called
ENGINE_ENTRY = {
    "sweep-fig5c": ("scaperture.experiments.sweeps", "sweep"),
    "analytic-fig3": ("scaperture.analytic.centered", "field_centered"),
}


class SetupDone(BaseException):
    """Unwinds a set-up probe from inside the first engine call."""


def _mark_engine_entry(workload, out, stop):
    import tracer

    mod_name, attr = ENGINE_ENTRY[workload]
    fn = getattr(sys.modules[mod_name], attr)

    def marked(*args, **kwargs):
        if "t_engine" not in out:
            out["t_engine"] = time.monotonic()
            if stop:
                raise SetupDone
        return fn(*args, **kwargs)

    tracer.replace_everywhere(fn, marked)


def _run_cli(spec, out):
    from scaperture import cli

    argv = CLI_ARGS[spec["workload"]] + ["--out", spec["out_dir"], "--threads", str(spec["threads"])]
    out["exit_code"] = cli.main(argv)


def _scene(n):
    from scaperture import Circle, default_film
    from scaperture.experiments.grids import scenario_grid

    geometry = Circle(SCAN_RADIUS_M)
    film = default_film(geometry)
    grid = scenario_grid(geometry, film, n, probe_x=PROBE_M[0], y_line=PROBE_M[1])
    return geometry, film, grid


def _dipole_scan(spec, out):
    import scaperture.solver as solver
    from scaperture import Dipole
    from scaperture.constants import DEFAULT_MOMENT

    positions = [(x * 1e-9, y * 1e-9) for x, y in spec["positions_nm"]]
    out["t_engine"] = time.monotonic()
    if spec["mode"] == "setup":
        raise SetupDone
    geometry, film, grid = _scene(SCAN_N)
    system = solver.BrandtSystem(geometry, film, grid)
    probe = grid.index_of(*PROBE_M)
    values, errors, solve_s = [], [], []
    t_loop = time.monotonic()
    for x, y in positions:
        t0 = time.perf_counter()
        try:
            sol = system.solve(Dipole(position=[x, y, 0.0], moment=[0.0, 0.0, DEFAULT_MOMENT]))
            values.append(float(sol.h_z.values[probe]))
            errors.append(None)
        except Exception as exc:  # every failed solve is counted, none is retried
            values.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
        solve_s.append(time.perf_counter() - t0)
    out["engine_s"] = time.monotonic() - t_loop
    out.update(values=values, errors=errors, solve_s=solve_s)


def _ladder_rung(spec):
    import scaperture.solver as solver
    from scaperture import Dipole
    from scaperture.constants import DEFAULT_MOMENT

    geometry, film, grid = _scene(spec["n"])
    system = solver.BrandtSystem(geometry, film, grid)
    system.solve(Dipole(position=[0.0, 0.0, 0.0], moment=[0.0, 0.0, DEFAULT_MOMENT]))


def _blas_threads():
    """Thread count reported by the OpenBLAS that scipy.linalg links, or None."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = {line.split()[-1] for line in maps if "scipy.libs" in line and "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
            fn = getattr(lib, "scipy_openblas_get_num_threads")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        fn.argtypes = []
        return int(fn())
    return None


def software_info() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    def blas(mod):
        b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')} ({b.get('openblas configuration', '')})"

    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": _blas_threads(),
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    workload = spec["workload"]
    out: dict = {"t_start": T_START}
    for name in MODULES[workload]:
        importlib.import_module(name)
    import scaperture

    src = Path(spec["src"]).resolve()
    if src not in Path(scaperture.__file__).resolve().parents:
        raise SystemExit(f"scaperture imported from {scaperture.__file__}, not from {src}")
    out["t_imported"] = time.monotonic()

    trace = None
    if spec["trace"] or workload == "ladder":
        import tracer

        trace = tracer.Tracer()
        out["untraced_entry_points"] = tracer.install(trace)
    elif workload in ENGINE_ENTRY:
        _mark_engine_entry(workload, out, stop=spec["mode"] == "setup")

    try:
        if workload == "dipole-scan":
            _dipole_scan(spec, out)
        elif workload == "ladder":
            _ladder_rung(spec)
        else:
            _run_cli(spec, out)
    except SetupDone:
        pass
    if "t_engine" in out:
        out.setdefault("engine_s", time.monotonic() - out["t_engine"])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace is not None:
        import tracer

        out["layers"] = tracer.layer_metrics(trace)
    if spec.get("software_info"):
        out["software"] = software_info()
    Path(spec["result_path"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
