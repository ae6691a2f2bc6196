"""Benchmark of scaperture's closed-form and stream-function engines.

One workload, with its result as one JSON object on the last stdout line:

    python3 perfbench/run.py --workload sweep-fig5c --seed 1 --seconds 30 --trace 0

Every workload in turn, followed by a table of every end-to-end metric:

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src`` directory, so nothing
needs installing.  Each execution is a fresh Python process (``worker.py``)
whose BLAS thread count is pinned, through the environment, to the number of
usable cores before numpy loads.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics and the n = 40/60/80 stage
ladder; README.md defines them all.  Scratch files and a JSON record of
every run go to ``.perfbench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "data" / "reference.json"

WORKLOADS = ("sweep-fig5c", "dipole-scan", "analytic-fig3")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SCAN_SOLVES = 400           # dipole positions per dipole-scan execution
PROBES_PER_LONG_EXECUTION = 2  # set-up-only processes run before each long execution
LONG_EXECUTION_S = 3.0
MIN_EXECUTIONS = 2          # the manifest check compares two executions
LADDER_N = (40, 60, 80)
CHILD_TIMEOUT_S = 150
REL_TOL = 1e-9


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def execute(workdir: Path, tag: str, spec: dict, threads: int) -> dict:
    """Run one worker process; return its measurements plus wall and set-up time."""
    exec_dir = workdir / tag
    exec_dir.mkdir(parents=True)
    spec = dict(spec, threads=threads, src=str(SRC), out_dir=str(exec_dir / "out"),
                result_path=str(exec_dir / "result.json"))
    spec_path = exec_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(exec_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                cwd=ROOT, env=_child_env(threads), stdout=subprocess.DEVNULL, stderr=err,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
            returncode = proc.returncode
        except subprocess.TimeoutExpired:
            returncode = None
        t_exit = time.monotonic()
    result = {"tag": tag, "returncode": returncode, "wall_s": t_exit - t_spawn, "dir": exec_dir}
    result_path = Path(spec["result_path"])
    if returncode == 0 and result_path.exists():
        result.update(json.loads(result_path.read_text(encoding="utf-8")))
        if "t_engine" in result:
            result["setup_s"] = result["t_engine"] - t_spawn
        result["import_s"] = result["t_imported"] - result["t_start"]
    else:
        tail = (exec_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"# {tag}: worker exited with {returncode}\n{tail}", file=sys.stderr)
    return result


# ---------------------------------------------------------------- output checks

def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _check_manifest(res: dict, run_state: dict) -> list[str]:
    data = (res["dir"] / "out" / "manifest.json").read_bytes()
    first = run_state.setdefault("manifest", data)
    return [] if data == first else ["manifest.json differs from the first execution's"]


def check_sweep(res: dict, ref: dict, run_state: dict) -> tuple[list[str], dict]:
    doc = json.loads((res["dir"] / "out" / "sweep.json").read_text(encoding="utf-8"))
    b_t = [p["B_T"] for p in doc["points"]]
    slope = doc["fit"]["slope"]
    lo, hi = ref["slope_band"]
    problems = _check_manifest(res, run_state)
    if not all(math.isfinite(v) for v in b_t):
        problems.append("non-finite B_T")
    if not lo <= slope <= hi:
        problems.append(f"slope {slope} outside [{lo}, {hi}]")
    return problems, {"results": len(b_t), "slope_dev": abs(slope - ref["asymptote_slope"])}


def read_map(path: Path) -> tuple[list[str], list[str]]:
    """Column names and data rows of a CSV written by the CLI."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    return lines[0].split(","), lines[1:]


def check_analytic(res: dict, ref: dict, run_state: dict) -> tuple[list[str], dict]:
    columns, rows = read_map(res["dir"] / "out" / "map.csv")
    problems = _check_manifest(res, run_state)
    if len(rows) != ref["rows"]:
        problems.append(f"{len(rows)} map rows, expected {ref['rows']}")
    else:
        for index, expected in ref["samples"]:
            got = dict(zip(columns, map(float, rows[index].split(","))))
            bad = [k for k, v in expected.items() if not _close(got[k], v)]
            if bad:
                problems.append(f"row {index}: {', '.join(bad)} differ from the reference")
    return problems, {"results": len(rows)}


def scan_positions(seed: int, index: int, pool_size: int) -> list[int]:
    return random.Random(f"dipole-scan:{seed}:{index}").sample(range(pool_size), SCAN_SOLVES)


# ---------------------------------------------------------------- one workload

class Run:
    """Executions of one workload in one benchmark run, and their tallies."""

    def __init__(self, workload: str, seed: int, threads: int, workdir: Path, ref: dict):
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.workdir = workdir
        self.ref = ref[workload]
        self.executions: list[dict] = []
        self.probes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.errors: Counter = Counter()
        self.unverified = 0
        self.state: dict = {}

    def spec(self, mode: str, index: int, trace: bool) -> dict:
        spec = {"workload": self.workload, "mode": mode, "trace": trace}
        if self.workload == "dipole-scan":
            pool = self.ref["positions_nm"]
            spec["indices"] = scan_positions(self.seed, index, len(pool))
            spec["positions_nm"] = [pool[i] for i in spec["indices"]]
        return spec

    def setup_probe(self, tag: str, software_info: bool = False) -> dict:
        spec = dict(self.spec("setup", 0, False), software_info=software_info)
        return execute(self.workdir, tag, spec, self.threads)

    def execution(self, trace: bool) -> dict:
        index = len(self.executions)
        spec = self.spec("run", index, trace)
        res = execute(self.workdir, f"exec-{index}", spec, self.threads)
        res["traced"] = trace
        self._tally(res, spec)
        self.executions.append(res)
        shutil.rmtree(res["dir"], ignore_errors=True)
        return res

    def _tally(self, res: dict, spec: dict) -> None:
        ok = res["returncode"] == 0 and res.get("exit_code", 0) == 0 and "t_imported" in res
        if self.workload == "dipole-scan":
            self.attempted += len(spec["indices"])
            if not ok:
                self.failed += len(spec["indices"])
                self.errors["worker failed"] += len(spec["indices"])
                return
            expected_hz = self.ref["hz"]
            completed = 0
            for i, value, error in zip(spec["indices"], res["values"], res["errors"]):
                if error is not None:
                    self.failed += 1
                    self.errors[error] += 1
                elif expected_hz[i] is None:
                    self.unverified += 1  # failed at the reference; nothing to compare
                    completed += 1
                elif not _close(value, expected_hz[i]):
                    self.failed += 1
                    self.check_failures.append(f"position {i}: H_z {value!r} != {expected_hz[i]!r}")
                else:
                    completed += 1
            res["results"] = completed
            return
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[f"exit {res['returncode']}/{res.get('exit_code')}"] += 1
            return
        check = check_sweep if self.workload == "sweep-fig5c" else check_analytic
        try:
            problems, extra = check(res, self.ref, self.state)
            res.update(extra)
        except (OSError, KeyError, IndexError, ValueError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.check_failures.extend(problems)

    def completed(self, traced: bool | None = None) -> list[dict]:
        return [r for r in self.executions
                if "results" in r and (traced is None or r["traced"] == traced)]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _spread(values) -> str:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def _tail(values) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    text = f"median {statistics.median(values) * 1e3:.3f} ms"
    for p in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            k = min(len(values) - 1, math.ceil(p / 100.0 * len(values)) - 1)
            return text + f", p{p:g} {values[k] * 1e3:.3f} ms"
    return text


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Fill the run with executions for about `seconds` of wall time.

    Untraced runs add set-up probes between long executions, so that set-up
    samples are spread over the run like the executions are.
    """
    t0 = time.monotonic()
    last = 0.0
    while True:
        done = run.executions
        need_more = len(done) < MIN_EXECUTIONS or (trace and not any(r["traced"] for r in done))
        if not need_more and time.monotonic() - t0 + last > seconds:
            break
        if not trace and (not done or last > LONG_EXECUTION_S):
            for _ in range(PROBES_PER_LONG_EXECUTION):
                run.probes.append(run.setup_probe(f"probe-{len(run.probes)}"))
        traced = trace and len(done) % 2 == 1  # traced executions alternate with untraced
        last = run.execution(traced)["wall_s"]


def end_to_end(run: Run) -> dict:
    """Median and samples of each end-to-end metric, plus the results rate."""
    untraced = run.completed(traced=False)
    samples = {
        "wall_s": [r["wall_s"] for r in untraced],
        "setup_s": [r.get("setup_s") for r in run.probes + untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "results_per_s": [r["results"] / r["engine_s"] for r in untraced if r["engine_s"]],
    }
    return {name: (_median(v), v) for name, v in samples.items()}


def per_layer(run: Run, threads: int) -> dict:
    traced = run.completed(traced=True)
    untraced = run.completed(traced=False)
    # an empty tracer yields every layer key, so a key is never missing
    layers = {key: _median([r["layers"][key] for r in traced]) or 0.0
              for key in layer_metrics(Tracer())}
    layers["import_s"] = _median([r["import_s"] for r in run.completed()])
    layers["results_per_s"] = end_to_end(run)["results_per_s"][0] or 0.0
    wall_t = _median([r["wall_s"] for r in traced])
    wall_u = _median([r["wall_s"] for r in untraced])
    layers["tracing.overhead_s"] = wall_t - wall_u if wall_t and wall_u else 0.0
    layers["failed_frac"] = run.failed / run.attempted if run.attempted else 0.0
    layers["slope_dev"] = _median([r.get("slope_dev") for r in run.completed()]) or 0.0
    layers.update(stage_ladder(run.workdir, threads))
    return layers


LADDER_KEYS = {
    "grid_s": "grid.busy_s", "kernel_s": "kernel.busy_s", "laplacian_s": "laplacian.busy_s",
    "lu_s": "lu.busy_s", "rcond_s": "rcond.busy_s", "self_s": "system.self_s",
    "build_s": "system.build_s", "solve_s": "solve.busy_s", "unknowns": "system.unknowns",
}


def stage_ladder(workdir: Path, threads: int) -> dict:
    """One build plus one solve per grid size, each in its own process."""
    rungs = [(n, threads, f"ladder.n{n}") for n in LADDER_N] + [(60, 1, "ladder.n60.t1")]
    out = {}
    for n, rung_threads, prefix in rungs:
        res = execute(workdir, prefix, {"workload": "ladder", "mode": "ladder", "trace": True, "n": n},
                      rung_threads)
        layers = res.get("layers", {})
        for name, key in LADDER_KEYS.items():
            if prefix.endswith(".t1") and name not in ("lu_s", "build_s"):
                continue
            out[f"{prefix}.{name}"] = layers.get(key, 0.0)
        if not prefix.endswith(".t1"):
            out[f"{prefix}.peak_rss_mb"] = res.get("peak_rss_mb", 0.0)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, ref: dict) -> dict:
    threads = usable_cores()
    workdir = OUT_ROOT / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, seed, threads, workdir, ref)
        # warm-up: fills the bytecode and file caches; also reports the software
        warm = run.setup_probe("warm-up", software_info=True)
        machine = {"cpu": cpu_model(), "nproc": os.cpu_count(), "usable_cores": threads,
                   "blas_threads_pinned": threads, **warm.get("software", {})}
        measure(run, seconds, trace)
        if trace:
            metrics = {k: {"value": v, "unit": _layer_unit(k)}
                       for k, v in per_layer(run, threads).items()}
            samples = {}
        else:
            e2e = end_to_end(run)
            metrics = {k: {"value": e2e[k][0], "unit": unit} for k, unit in END_TO_END.items()}
            samples = {k: v[1] for k, v in e2e.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    completed = sum(r.get("results", 0) for r in run.completed()) if workload == "dipole-scan" \
        else len(run.completed())
    result = {
        "correct": not run.check_failures and completed > 0
                   and all(m["value"] is not None for m in metrics.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    _report(workload, seed, trace, run, result, samples, machine)
    return result


def _layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("peak_rss_mb"):
        return "MiB"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith(("ratio", "per_call", "per_solve", "per_byte", "frac", "slope_dev")):
        return "ratio"
    return "count"


def _report(workload, seed, trace, run: Run, result, samples, machine) -> None:
    print(f"# workload {workload}, seed {seed}, trace {int(trace)}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, entry in result["metrics"].items():
        extra = f" ({_spread(samples[name])})" if name in samples else ""
        print(f"{workload}  {name} = {entry['value']!r} {entry['unit']}{extra}")
    if "results_per_s" in samples:
        print(f"{workload}  results_per_s = {_median(samples['results_per_s'])!r} 1/s "
              f"({_spread(samples['results_per_s'])}; not gated)")
    print(f"{workload}  attempted = {run.attempted}, failed = {run.failed}, "
          f"failed_frac = {run.failed / max(run.attempted, 1):.4f}")
    for error, count in run.errors.most_common():
        print(f"#   failure x{count}: {error}")
    for problem in run.check_failures[:20]:
        print(f"#   output check failed: {problem}")
    if run.unverified:
        print(f"#   {run.unverified} completed solves had no reference value (failed when recorded)")
    slope_devs = [r["slope_dev"] for r in run.completed() if "slope_dev" in r]
    if slope_devs:
        print(f"{workload}  slope_dev = {slope_devs[0]!r} (|slope + 2.5|)")
    solve_s = [t for r in run.completed() for t in r.get("solve_s", [])]
    if solve_s:
        print(f"{workload}  per-solve time: {_tail(solve_s)} over {len(solve_s)} solves")
    record = {"workload": workload, "seed": seed, "trace": int(trace), "machine": machine,
              "result": result, "samples": samples, "errors": dict(run.errors),
              "check_failures": run.check_failures}
    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "scaperture" / "__init__.py").is_file():
        print(f"error: no scaperture sources under {SRC}", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), ref) for w in names}
    if args.workload == "all":
        print("# metric".ljust(32) + "unit".ljust(10) + "".join(w.ljust(16) for w in names))
        for metric in next(iter(results.values()))["metrics"]:
            entries = [results[w]["metrics"][metric] for w in names]
            print(f"  {metric:<30}{entries[0]['unit']:<10}"
                  + "".join(f"{e['value']:<16.6g}" for e in entries))
        print("  correct".ljust(42) + "".join(str(results[w]["correct"]).ljust(16) for w in names))
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
