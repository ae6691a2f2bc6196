"""Record the reference outputs that the benchmark's output checks compare against.

    python3 perfbench/make_reference.py

Runs each workload once, through the same worker processes as run.py, and
writes data/reference.json: sampled rows of the fig3 map, the fig5c slope
band, and the dipole-scan position pool with the probe field H_z of every
position (null where the solve raised).  Rerun it only on purpose: the
checks exist to catch changed outputs.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys

from run import OUT_ROOT, REFERENCE, execute, read_map, usable_cores
from worker import SCAN_RADIUS_M

POOL_SIZE = 2048
POOL_SEED = "dipole-scan-pool"
DISK_FRACTION = 0.85        # positions are uniform over |r| <= 0.85 R
ANALYTIC_SAMPLES = 40
SLOPE_BAND = [-2.6, -2.0]   # acceptance criterion 5: -2.3 +- 0.3
ASYMPTOTE_SLOPE = -2.5      # closed-form edge asymptote, criterion 3


def pool_positions() -> list[list[float]]:
    rng = random.Random(POOL_SEED)
    r_max = DISK_FRACTION * SCAN_RADIUS_M * 1e9
    out = []
    for _ in range(POOL_SIZE):
        r = r_max * math.sqrt(rng.random())
        theta = 2.0 * math.pi * rng.random()
        out.append([round(r * math.cos(theta), 2), round(r * math.sin(theta), 2)])
    return out


def _run(workdir, workload, **spec):
    res = execute(workdir, workload, dict(workload=workload, mode="run", trace=False, **spec),
                  usable_cores())
    if res["returncode"] != 0 or res.get("exit_code", 0) != 0:
        raise SystemExit(f"{workload} failed; see {res['dir']}")
    return res


def main() -> int:
    workdir = OUT_ROOT / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    ref = {}

    res = _run(workdir, "analytic-fig3")
    columns, rows = read_map(res["dir"] / "out" / "map.csv")
    step = len(rows) // ANALYTIC_SAMPLES
    samples = [[i, dict(zip(columns, map(float, rows[i].split(","))))]
               for i in range(step // 2, len(rows), step)]
    ref["analytic-fig3"] = {"rows": len(rows), "samples": samples}

    res = _run(workdir, "sweep-fig5c")
    slope = json.loads((res["dir"] / "out" / "sweep.json").read_text())["fit"]["slope"]
    ref["sweep-fig5c"] = {"slope_band": SLOPE_BAND, "asymptote_slope": ASYMPTOTE_SLOPE,
                          "slope_when_recorded": slope}

    pool = pool_positions()
    res = _run(workdir, "dipole-scan", positions_nm=pool)
    ref["dipole-scan"] = {"positions_nm": pool, "hz": res["values"],
                          "errors_when_recorded": sum(e is not None for e in res["errors"])}

    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {REFERENCE}: slope {slope:.4f}, "
          f"{ref['dipole-scan']['errors_when_recorded']} of {POOL_SIZE} scan positions raise")
    return 0


if __name__ == "__main__":
    sys.exit(main())
