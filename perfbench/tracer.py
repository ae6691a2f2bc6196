"""Layer spans for the traced benchmark run.

Each layer's entry points are rebound, in every loaded ``scaperture`` module
that holds a reference to them, with wrappers that record one span per call.
Nothing in the package itself changes; the wrappers live here.

A span is ``[name, start, end, parent, ok]``; spans stay in memory and are
aggregated when the process ends.  Counts that are not times (bytes, flops,
corner evaluations) are computed from array sizes, not measured.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import Counter

_PACKAGE = "scaperture"

# (defining module, attribute, span name) for every wrapped function
ENTRY_POINTS = (
    ("scaperture.grid", "make_grid", "grid"),
    ("scaperture.solver.kernel", "cell_integrated_kernel", "kernel"),
    ("scaperture.solver.laplacian", "div_lambda_grad", "laplacian"),
    ("scaperture.solver.system", "_reciprocal_condition", "rcond"),
    ("scaperture.solver.system", "compensated_source", "source"),
    ("scaperture.analytic.centered", "field_centered", "analytic"),
    ("scaperture.experiments.sweeps", "sweep", "experiments"),
    ("scaperture.experiments.fitting", "fit_power_law", "fit"),
    ("scaperture.io.writers", "write_csv_atomic", "io"),
    ("scaperture.io.writers", "write_json_atomic", "io"),
    ("scaperture.io.writers", "write_manifest", "io"),
)


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def call(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, False])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
            self.spans[idx][4] = True
            return result
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def summary(self) -> dict:
        """Busy time, self time, call and failure counts per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ok in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, _parent, ok) in enumerate(self.spans):
            s = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0})
            s["busy_s"] += t1 - t0
            s["self_s"] += t1 - t0 - child[i]
            s["calls"] += 1
            s["failed"] += 0 if ok else 1
        return out


def replace_everywhere(original, replacement) -> int:
    """Rebind every module-level reference to `original` in the package."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _counted(tracer: Tracer, name: str, fn, count=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "io" and tracer.innermost() == "io":
            return fn(*args, **kwargs)  # write_manifest -> write_json_atomic
        if count is not None:
            count(*args, **kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        if name == "io":
            tracer.counts["io.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])
        return result

    return traced


def _kernel_counts(tracer):
    def count(grid):
        p = grid.n_points
        tracer.counts["kernel.bytes"] += 8 * p * p
        tracer.counts["kernel.corner_unique"] += (grid.n_x + 1) * (grid.n_y + 1) * p
        tracer.counts["kernel.corner_evals"] += 4 * grid.n_x * grid.n_y * p
    return count


def _laplacian_counts(tracer):
    def count(*_args, **_kwargs):
        if tracer.inside("solve"):
            tracer.counts["laplacian.calls_in_solve"] += 1
    return count


def _analytic_counts(tracer):
    import numpy as np

    def count(moment, r, *_args, **_kwargs):
        tracer.counts["analytic.points"] += np.asarray(r).size // 3
    return count


def _linalg_proxy(tracer: Tracer, la):
    """Stand-in for ``scipy.linalg`` that times the factor and the solves."""
    proxy = types.ModuleType(la.__name__)
    proxy.__dict__.update(vars(la))

    def lu_factor(a, *args, **kwargs):
        n = a.shape[0]
        tracer.counts["lu.flops"] += 2 * n**3 // 3
        tracer.counts["lu.bytes"] += 8 * n * n
        return tracer.call("lu", la.lu_factor, a, *args, **kwargs)

    def lu_solve(lu_and_piv, b, *args, **kwargs):
        n = lu_and_piv[0].shape[0]
        rhs = 1 if b.ndim == 1 else b.shape[1]
        tracer.counts["lu_solve.bytes"] += 8 * n * n * rhs
        return tracer.call("lu_solve", la.lu_solve, lu_and_piv, b, *args, **kwargs)

    proxy.lu_factor = lu_factor
    proxy.lu_solve = lu_solve
    return proxy


def install(tracer: Tracer) -> list[str]:
    """Wrap every entry point of the loaded modules; return those not found."""
    import scipy.linalg

    missing = []
    counters = {
        "kernel": _kernel_counts(tracer),
        "laplacian": _laplacian_counts(tracer),
        "analytic": _analytic_counts(tracer),
    }
    for mod_name, attr, name in ENTRY_POINTS:
        mod = sys.modules.get(mod_name)
        if mod is None:
            continue  # the workload never loads this layer
        fn = getattr(mod, attr, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        replace_everywhere(fn, _counted(tracer, name, fn, counters.get(name)))

    if "scaperture.solver.system" in sys.modules:
        replace_everywhere(scipy.linalg, _linalg_proxy(tracer, scipy.linalg))
        system_mod = sys.modules["scaperture.solver.system"]
        base = getattr(system_mod, "BrandtSystem", None)
        if base is None:
            missing.append("scaperture.solver.system.BrandtSystem")
        else:
            replace_everywhere(base, _traced_system_class(tracer, base))
    return missing


def _traced_system_class(tracer: Tracer, base):
    class TracedBrandtSystem(base):
        def __init__(self, *args, **kwargs):
            tracer.call("system", super().__init__, *args, **kwargs)
            tracer.counts["system.unknowns"] += len(self.solve_idx)

        def solve(self, *args, **kwargs):
            return tracer.call("solve", super().solve, *args, **kwargs)

    TracedBrandtSystem.__name__ = base.__name__
    TracedBrandtSystem.__qualname__ = base.__qualname__
    return TracedBrandtSystem


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced process (see README for definitions)."""
    s = tracer.summary()
    c = tracer.counts

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    builds = get("system", "calls")
    completed = get("solve", "calls") - get("solve", "failed")
    lu_s = get("lu", "busy_s")
    return {
        "grid.busy_s": get("grid", "busy_s"),
        "grid.calls": get("grid", "calls"),
        "kernel.busy_s": get("kernel", "busy_s"),
        "kernel.calls": get("kernel", "calls"),
        "kernel.bytes": c["kernel.bytes"],
        "kernel.corner_useful_ratio": _ratio(c["kernel.corner_unique"], c["kernel.corner_evals"]),
        "laplacian.busy_s": get("laplacian", "busy_s"),
        "laplacian.calls": get("laplacian", "calls"),
        "laplacian.calls_per_solve": _ratio(c["laplacian.calls_in_solve"], completed),
        "system.build_s": get("system", "busy_s"),
        "system.unknowns": _ratio(c["system.unknowns"], builds),
        "system.self_s": get("system", "self_s"),  # minus kernel, Laplacian, LU, rcond
        "lu.busy_s": lu_s,
        "lu.flops": c["lu.flops"],
        "lu.gflops": _ratio(c["lu.flops"], lu_s) / 1e9,
        "lu.flops_per_byte": _ratio(c["lu.flops"], c["lu.bytes"]),
        "rcond.busy_s": get("rcond", "busy_s"),
        "solve.busy_s": get("solve", "busy_s"),
        "solve.calls": get("solve", "calls"),
        "solve.failed": get("solve", "failed"),
        "lu_solve.busy_s": get("lu_solve", "busy_s"),
        "lu_solve.bytes": c["lu_solve.bytes"],
        "source.busy_s": get("source", "busy_s"),
        "analytic.busy_s": get("analytic", "busy_s"),
        "analytic.calls": get("analytic", "calls"),
        "analytic.points": c["analytic.points"],
        "analytic.points_per_call": _ratio(c["analytic.points"], get("analytic", "calls")),
        "experiments.self_s": get("experiments", "self_s"),
        "fit.busy_s": get("fit", "busy_s"),
        "io.busy_s": get("io", "busy_s"),
        "io.bytes": c["io.bytes"],
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
