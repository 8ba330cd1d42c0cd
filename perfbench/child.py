"""One iteration of an in-process workload, run in a fresh interpreter.

``run.py`` starts this script once per iteration, so every iteration pays
the program's cold-start cost exactly as a user's process would.  The
last line of standard output is one JSON report; timestamps in it are
``time.monotonic()`` readings, which share one clock across processes, so
the parent can measure from the moment it spawned this process.

Usage (normally only ``run.py`` calls it; ``src`` must be importable)::

    python3 perfbench/child.py --workload paper-repro --seed 0 --trace 0 \
        --work DIR [--smoke]
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Callable, Dict, List  # noqa: E402

import layers  # noqa: E402
import spec  # noqa: E402
from tracer import Tracer, clock  # noqa: E402


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def paper_repro(args: argparse.Namespace, tracer: Tracer, report: Dict[str, Any]) -> str:
    """Every Table-1 row group, the figure series, rendered: one reproduction."""
    with tracer.span("python.import"):
        from repro.experiments.figures import (
            broadcast_scaling_series,
            hitting_time_scaling_series,
            write_csv,
        )
        from repro.experiments.table1 import run_star_row, run_table1_family

    grid = spec.PAPER_SMOKE if args.smoke else spec.PAPER_GRID
    requests: List[float] = report["request_samples"]
    groups = []
    for family, sizes in grid["families"].items():
        start = clock()
        if family == "star":
            group = run_star_row(sizes, repetitions=grid["repetitions"], seed=args.seed)
        else:
            group = run_table1_family(
                family, sizes, repetitions=grid["repetitions"], seed=args.seed
            )
        requests.append(clock() - start)
        groups.append(group)
        for row in group.rows:
            if row.success_rate != 1.0:
                report["errors"].append(f"{family}/{row.protocol}: success {row.success_rate}")

    figure_rows = []
    for series in (broadcast_scaling_series, hitting_time_scaling_series):
        start = clock()
        kwargs = {"repetitions": grid["repetitions"]} if series is broadcast_scaling_series else {}
        rows = series(grid["figure_families"], grid["figure_sizes"], seed=args.seed, **kwargs)
        write_csv(rows, os.path.join(args.work, f"{series.__name__}.csv"))
        requests.append(clock() - start)
        figure_rows.append(rows)
        for row in rows:
            value = row.get("broadcast_time", row.get("hitting_time"))
            if not (isinstance(value, float) and math.isfinite(value) and value > 0):
                report["errors"].append(f"figure row {row} has no positive value")

    with tracer.span("experiments.driver"):
        tables = "\n\n".join(group.render() for group in groups)
        with open(os.path.join(args.work, "table1.txt"), "w", encoding="utf-8") as handle:
            handle.write(tables + "\n")
    return tables + "\n" + json.dumps(spec.rounded(figure_rows), sort_keys=True)


def elect_stack(args: argparse.Namespace, tracer: Tracer, report: Dict[str, Any]) -> str:
    """Warm many-trial ``measure_protocol_on_graph`` calls, pass after pass.

    An unmeasured warm-up pass compiles tables and loads the kernel; set-up
    ends at its first ``execute_plan`` call, and nothing before the first
    measured pass enters a sample.  Then :data:`spec.ELECT_PASSES` measured
    passes follow.
    """
    with tracer.span("python.import"):
        from repro.core.seeds import graph_seed
        from repro.experiments.harness import (
            default_step_budget,
            measure_protocol_on_graph,
            token_protocol_spec,
            trial_record_from_result,
        )
        from repro.experiments.workloads import get_workload

    shape = spec.ELECT_SMOKE if args.smoke else spec.ELECT
    protocol_spec = token_protocol_spec()
    graphs = [
        get_workload(family).build(n, seed=graph_seed(args.seed, index))
        for index, (family, n) in enumerate(shape["graphs"])
    ]

    def one_pass(requests: List[float]) -> str:
        records = []
        for graph in graphs:
            start = clock()
            measurement = measure_protocol_on_graph(
                protocol_spec,
                graph,
                repetitions=shape["trials"],
                seed=args.seed,
                max_steps=default_step_budget(graph),
                keep_results=True,
            )
            requests.append(clock() - start)
            records.append(
                {
                    "protocol": protocol_spec.name,
                    "graph": graph.name,
                    "trials": [
                        {k: v for k, v in trial_record_from_result(r).items()
                         if k != "wall_time_seconds"}
                        for r in measurement.results
                    ],
                }
            )
        return json.dumps(records, sort_keys=True)

    one_pass([])
    report["warmup_units"] = len(tracer.samples("runtime.execute"))
    report["warmup_steps"] = tracer.counters.get("steps", 0.0)
    outputs = set()
    passes: List[float] = report["iteration_walls"]
    for _ in range(spec.ELECT_PASSES):
        start = clock()
        outputs.add(one_pass(report["request_samples"]))
        passes.append(clock() - start)
    if len(outputs) != 1:
        report["errors"].append("repeated passes with one seed gave different trial records")
    return outputs.pop()


def torus_million(args: argparse.Namespace, tracer: Tracer, report: Dict[str, Any]) -> str:
    """The registered million-node sharded scenario, store off."""
    with tracer.span("python.import"):
        from repro.orchestration import get_scenario, run_scenario

    scenario = get_scenario("torus-million").with_overrides(seed=args.seed)
    if args.smoke:
        scenario = scenario.with_overrides(sizes=spec.TORUS_SMOKE_SIZES)
    start = clock()
    result = run_scenario(scenario, cache=False)
    report["request_samples"].append(clock() - start)
    return json.dumps(spec.rounded(json.loads(result.canonical_json())), sort_keys=True)


WORKLOADS: Dict[str, Callable[..., str]] = {
    "paper-repro": paper_repro,
    "elect-stack": elect_stack,
    "torus-million": torus_million,
}


def prepare() -> Dict[str, Any]:
    """Load the native kernel, compiling it if this checkout has none yet.

    Importing every module the workloads use also leaves their bytecode
    cached, as an installed package would have it, so no measured
    iteration pays for compiling Python source.
    """
    import numpy

    import repro.cli  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.service.worker  # noqa: F401
    import repro.sharding.executor  # noqa: F401
    from repro.engine import native

    build = os.path.join(os.path.dirname(native.__file__), "_build")
    before = set(os.listdir(build)) if os.path.isdir(build) else set()
    loaded = native.get_run_epoch_kernel() is not None
    after = set(os.listdir(build)) if os.path.isdir(build) else set()
    return {
        "numpy": numpy.__version__,
        "native_kernel": ("compiled" if after - before else "loaded") if loaded else "unavailable",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "prepare"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=".")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload == "prepare":
        print(json.dumps(prepare()))
        return 0

    tracer = Tracer()
    report: Dict[str, Any] = {
        "t_start": T_START,
        "errors": [],
        "request_samples": [],
        "iteration_walls": [],
    }
    with tracer.span("python.import"):
        import repro  # noqa: F401 - the package import is part of every cold start

        layers.install_probes(tracer, budget_limited=args.workload == "torus-million")
        if args.trace:
            layers.install_layers(tracer)
    try:
        output = WORKLOADS[args.workload](args, tracer, report)
    finally:
        tracer.close()
    report["t_end"] = clock()
    report["digest"] = spec.digest(output)
    report["setup_at"] = tracer.first_start("runtime.execute")
    skip = report.pop("warmup_units", 0)
    report["unit_samples"] = tracer.samples(
        "runtime.execute" if args.workload == "elect-stack" else "orchestration.unit"
    )[skip:]
    report["exec_s"] = sum(tracer.samples("runtime.execute")[skip:])
    report["steps"] = tracer.counters.get("steps", 0.0) - report.pop("warmup_steps", 0.0)
    report["trials"] = tracer.counters.get("trials", 0.0)
    report["failed_trials"] = tracer.counters.get("failed_trials", 0.0)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.write(os.path.join(args.work, "spans.json"))
        report["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
