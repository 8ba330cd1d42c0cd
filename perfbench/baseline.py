"""Measure the committed baseline: ten runs per workload plus a traced run.

Run from the repository root, on an otherwise idle machine::

    python3 perfbench/baseline.py

It runs ``run.py`` for seeds ``0..RUNS-1`` with ``run_seconds`` from
``BENCHMARK.json``, taking the workloads in turn for each seed, so a slow
drift of the machine is shared by all workloads rather than lining up
with one workload's seeds.  Per end-to-end metric it records the median,
the quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and
their spread ``(q3 - q1) / median``; the ungated p90s of the record line
go in ``informational``.  Then one traced run per workload under seed 0
gives the per-layer table.  The result is written to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import RECORD_PREFIX, WORKLOADS  # noqa: E402

RUNS = 10

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _handle:
    SECONDS = json.load(_handle)["run_seconds"]


def run_once(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(RECORD_PREFIX):
        raise SystemExit(f"{workload} seed {seed} failed: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{done.stdout}")
    record = json.loads(lines[-2][len(RECORD_PREFIX):])
    result["env"] = record["env"]
    result["informational"] = record["informational"].get(workload, {})
    return result


def summarize(values: List[float], unit: str) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    results: Dict[str, List[Dict[str, Any]]] = {workload: [] for workload in WORKLOADS}
    for seed in range(RUNS):
        for workload in WORKLOADS:
            results[workload].append(run_once(workload, seed, 0))
            print(f"seed {seed} {workload} done", flush=True)

    baseline: Dict[str, Any] = {
        "runs": RUNS, "seconds": SECONDS, "seeds": list(range(RUNS)),
        "env": results[WORKLOADS[0]][0]["env"],
        "end_to_end": {}, "informational": {}, "per_layer_seed0": {},
    }
    for workload, runs in results.items():
        for key, field in (("end_to_end", "metrics"), ("informational", "informational")):
            names = runs[0][field]
            baseline[key][workload] = {
                name: summarize([r[field][name]["value"] for r in runs], names[name]["unit"])
                for name in names
            }
        for name, stats in baseline["end_to_end"][workload].items():
            print(f"{workload:17s} {name:22s} median {stats['median']:12.6g} "
                  f"spread {stats['spread']:.3f}", flush=True)
        baseline["per_layer_seed0"][workload] = run_once(workload, 0, 1)["metrics"]
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
