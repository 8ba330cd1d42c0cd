"""Which entry points are traced, and how spans become per-layer metrics.

The span names, and the per-layer metrics computed from them, are the
layer-to-metric map documented in ``perfbench/README.md``.  Every span
name feeds exactly one ``*_s`` self-time metric in :data:`SELF_TIME`, so
those metrics plus ``trace.untraced_s`` add up to ``trace.wall_s``.
"""

from __future__ import annotations

import json
import types
from typing import Dict, List, Sequence, Tuple

from tracer import Tracer

#: Self-time metric -> the span names whose self time it sums.
SELF_TIME: Dict[str, Tuple[str, ...]] = {
    "python.import_s": ("python.import",),
    "experiments.driver_s": ("experiments.driver",),
    "graphs.build_s": ("graphs.build",),
    "graphs.parameters_s": ("graphs.parameters",),
    "orchestration.scenario_s": ("orchestration.scenario",),
    "orchestration.unit_s": ("orchestration.unit",),
    "orchestration.store_read_s": ("orchestration.store_read",),
    "orchestration.store_write_s": ("orchestration.store_write",),
    "orchestration.aggregate_s": ("orchestration.aggregate",),
    "runtime.plan_compile_s": ("runtime.compile_plan",),
    "runtime.execute_self_s": ("runtime.execute",),
    "runtime.sample_s": ("runtime.sample",),
    "engine.compile_s": ("engine.compile",),
    "engine.block_s": ("engine.block",),
    "engine.codec_s": ("engine.codec",),
    "protocols.transition_s": ("protocols.transition",),
    "protocols.certificate_s": ("protocols.certificate",),
    "walks.hitting_s": ("walks.hitting", "walks.solve"),
    "analytics.broadcast_s": ("analytics.broadcast",),
    "sharding.partition_s": ("sharding.partition",),
    "sharding.execute_s": ("sharding.execute",),
    "service.frame_encode_s": ("service.encode",),
    "service.frame_decode_s": ("service.decode",),
}

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER: List[Tuple[str, str]] = [
    ("runtime.plans", "count"),
    ("runtime.replicas_per_plan", "count"),
    ("runtime.draws", "count"),
    ("protocols.transition_calls", "count"),
    ("protocols.certificate_calls", "count"),
    ("protocols.certificate_fired_ratio", "ratio"),
    ("engine.blocks", "count"),
    ("engine.compile_calls", "count"),
    ("walks.solves", "count"),
    ("analytics.broadcast_calls", "count"),
    ("graphs.build_calls", "count"),
    ("orchestration.units", "count"),
    ("orchestration.store_hit_ratio", "ratio"),
    ("service.frames", "count"),
    ("service.frame_bytes", "bytes"),
    *[(name, "s") for name in SELF_TIME],
    ("trace.wall_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.covered_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


# ----------------------------------------------------------------------
# Counting what a call produced (``after`` hooks)
# ----------------------------------------------------------------------
def _count_plan(budget_limited: bool):
    """``execute_plan`` hook: trials, failed trials, steps, replicas.

    A trial fails unless it stabilized with exactly one leader.  On a
    ``budget_limited`` workload (a capacity run whose step budget is far
    below stabilization) it fails unless it used its whole budget and
    ended with between 1 and n leaders.
    """

    def after(tracer: Tracer, args: tuple, results) -> None:
        plan = args[0]
        tracer.count("replicas", plan.n_replicas)
        for result in results:
            tracer.count("trials")
            tracer.count("steps", result.steps_executed)
            if budget_limited:
                ok = (
                    result.steps_executed == plan.max_steps
                    and 1 <= result.leaders <= plan.graph.n_nodes
                )
            else:
                ok = result.stabilized and result.leaders == 1
            if not ok:
                tracer.count("failed_trials")

    return after


def _count_draws(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("draws", args[1])


def _count_certificate(tracer: Tracer, args: tuple, result) -> None:
    if result:
        tracer.count("certificates_fired")


def _count_store_read(tracer: Tracer, args: tuple, result) -> None:
    if result is not None:
        tracer.count("store_hits")


def _count_encoded(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("frames")
    tracer.count("frame_bytes", len(result))


def _count_decoded(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("frames")
    tracer.count("frame_bytes", len(args[0]))


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
def install_probes(tracer: Tracer, budget_limited: bool = False) -> None:
    """The two boundaries every run needs, traced or not.

    ``execute_plan`` marks the end of set-up and yields steps and trial
    outcomes; ``execute_unit_plan`` yields unit latencies.  Both run a few
    hundred times per iteration, so the probes cost nothing measurable.
    """
    import repro.orchestration.runner as runner
    import repro.runtime as runtime

    tracer.keep_samples("runtime.execute")
    tracer.keep_samples("orchestration.unit")
    tracer.wrap(runtime, "execute_plan", "runtime.execute", keep=False,
                after=_count_plan(budget_limited))
    tracer.wrap(runner, "execute_unit_plan", "orchestration.unit", keep=False)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer (the traced run)."""
    import repro.analytics.estimators as estimators
    import repro.engine.compiler as compiler
    import repro.engine.stepper as stepper
    import repro.experiments.figures as figures
    import repro.experiments.harness as harness
    import repro.experiments.table1 as table1
    import repro.experiments.workloads as workloads
    import repro.orchestration.runner as runner
    import repro.orchestration.store as store
    import repro.propagation.broadcast as broadcast
    import repro.runtime as runtime
    import repro.runtime.source as source
    import repro.service.protocol as wire
    import repro.sharding.executor as sharded
    import repro.sharding.partition as partition
    import repro.walks.classic as walks
    from repro.core.protocol import PopulationProtocol

    tracer.wrap(runtime, "compile_plan", "runtime.compile_plan")
    for method in ("next_arrays", "next_batch", "next_pair_indices"):
        tracer.wrap(source.InteractionSource, method, "runtime.sample", keep=False,
                    after=_count_draws)
    tracer.wrap(compiler, "get_compiled", "engine.compile", keep=False)
    tracer.wrap(stepper.CompiledRun, "apply_block", "engine.block", keep=False)
    for method in ("encode", "decode_codes"):
        tracer.wrap(compiler.CompiledProtocol, method, "engine.codec", keep=False)
    for cls in _protocol_classes(PopulationProtocol):
        if "transition" in vars(cls):
            tracer.wrap(cls, "transition", "protocols.transition", keep=False)
        if "is_output_stable_configuration" in vars(cls):
            tracer.wrap(cls, "is_output_stable_configuration", "protocols.certificate",
                        keep=False, after=_count_certificate)
    tracer.wrap(walks, "worst_case_hitting_time", "walks.hitting")
    tracer.wrap(walks, "hitting_times_to", "walks.solve", keep=False)
    tracer.wrap(broadcast, "broadcast_time_estimate", "analytics.broadcast")
    tracer.wrap(estimators, "batched_broadcast_estimates", "analytics.broadcast")
    tracer.wrap(workloads.Workload, "build", "graphs.build")
    tracer.wrap(table1, "graph_parameters_for", "graphs.parameters")
    tracer.wrap(partition.PartitionedGraph, "__init__", "sharding.partition")
    tracer.wrap(sharded, "execute_sharded", "sharding.execute")
    tracer.wrap(runner, "run_scenario", "orchestration.scenario")
    tracer.wrap(runner, "aggregate_unit_payloads", "orchestration.aggregate")
    tracer.wrap(store.ResultStore, "load_unit", "orchestration.store_read",
                after=_count_store_read)
    tracer.wrap(store.ResultStore, "save_unit", "orchestration.store_write")
    for name in ("run_table1_family", "run_star_row"):
        tracer.wrap(table1, name, "experiments.driver")
    tracer.wrap(table1.Table1RowGroup, "render", "experiments.driver")
    for name in ("broadcast_scaling_series", "hitting_time_scaling_series", "write_csv"):
        tracer.wrap(figures, name, "experiments.driver")
    for name in ("measure_protocol_on_graph", "run_trials_with_seeds"):
        tracer.wrap(harness, name, "experiments.driver")
    tracer.wrap(wire, "encode_frame", "service.encode", keep=False, after=_count_encoded)
    # Frames are decoded by ``json.loads`` inside the async ``read_frame``;
    # give the wire module its own ``json`` so only that call is traced.
    private_json = types.ModuleType("json")
    private_json.__dict__.update(vars(json))
    tracer.patch(wire, "json", private_json)
    tracer.wrap(private_json, "loads", "service.decode", keep=False, after=_count_decoded)


def _protocol_classes(base: type) -> List[type]:
    import repro.protocols  # noqa: F401 - registers every protocol class

    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls not in found:
            found.append(cls)
            pending.extend(cls.__subclasses__())
    return found


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def per_layer_metrics(
    summaries: Sequence[dict], traced_walls: Sequence[float], untraced_walls: Sequence[float]
) -> Dict[str, float]:
    """Per-layer metrics, averaged over traced iterations.

    ``summaries`` are :meth:`Tracer.summary` documents, one per traced
    iteration, and ``traced_walls`` those iterations' wall times.
    """
    k = len(summaries)

    def calls(*names: str) -> float:
        return sum(s["calls"].get(n, 0) for s in summaries for n in names)

    def self_s(*names: str) -> float:
        return sum(s["self_s"].get(n, 0.0) for s in summaries for n in names)

    def counter(name: str) -> float:
        return sum(s["counters"].get(name, 0.0) for s in summaries)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    wall = sum(traced_walls) / k
    covered = sum(sum(s["self_s"].values()) for s in summaries) / k
    metrics = {
        "runtime.plans": calls("runtime.execute") / k,
        "runtime.replicas_per_plan": ratio(counter("replicas"), calls("runtime.execute")),
        "runtime.draws": counter("draws") / k,
        "protocols.transition_calls": calls("protocols.transition") / k,
        "protocols.certificate_calls": calls("protocols.certificate") / k,
        "protocols.certificate_fired_ratio": ratio(
            counter("certificates_fired"), calls("protocols.certificate")
        ),
        "engine.blocks": calls("engine.block") / k,
        "engine.compile_calls": calls("engine.compile") / k,
        "walks.solves": calls("walks.solve") / k,
        "analytics.broadcast_calls": calls("analytics.broadcast") / k,
        "graphs.build_calls": calls("graphs.build") / k,
        "orchestration.units": calls("orchestration.unit") / k,
        "orchestration.store_hit_ratio": ratio(
            counter("store_hits"), calls("orchestration.store_read")
        ),
        "service.frames": counter("frames") / k,
        "service.frame_bytes": counter("frame_bytes") / k,
    }
    for metric, names in SELF_TIME.items():
        metrics[metric] = self_s(*names) / k
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_s"] = wall - covered
    metrics["trace.covered_ratio"] = ratio(covered, wall)
    metrics["trace.overhead_ratio"] = ratio(wall, sum(untraced_walls) / len(untraced_walls))
    return metrics
