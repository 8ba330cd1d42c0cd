"""Plan executors: reference, compiled single-run, replica-batched stack.

Three interchangeable executors run an :class:`~repro.runtime.plan.ExecutionPlan`;
all produce results bit-identical to standalone reference runs with the
same seeds:

* **reference** — the pure-Python interpreter (the semantic ground
  truth), one replica at a time;
* **compiled single** — :class:`~repro.engine.stepper.CompiledRun`
  blocks, one replica at a time, with the historical lazy-compilation
  fallback semantics;
* **replica-batched stack** — all replicas advance through
  ``repro_run_epoch`` C-kernel calls: the codes of the whole measurement
  live in one ``(R, n)`` matrix, each replica's seeded scheduler stream
  is drawn *inside* the kernel, and per-replica bookkeeping (last output
  change, leader counts, the distinct-code mask) is maintained exactly
  as in the single-run kernel.  Replicas whose certificate fires are
  compacted out of the stack.  This is the default path for harness
  measurements — it removes the per-replica Python/ctypes overhead that
  dominated trial-serial dispatch (see
  ``benchmarks/bench_runtime_dispatch.py``).  Plans it cannot serve (see
  :func:`_stack_eligible`) run replica by replica.

One exact acceleration applies only to the stack (never changing
results): for protocols that declare ``certificate_requires_unique_leader``
the kernel-maintained leader count gates the Python certificate — a
configuration with ``!= 1`` leaders cannot satisfy those protocols'
certificates, so the decode + certificate call is skipped without
affecting when certification fires.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple

import numpy as np

from .pairs import directed_tables
from .plan import ExecutionPlan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulator import SimulationResult
    from ..engine.compiler import CompiledProtocol


def execute_plan(plan: ExecutionPlan) -> List["SimulationResult"]:
    """Run every replica of ``plan`` and return results in replica order."""
    if plan.shards is not None:
        from ..sharding.executor import execute_sharded, sharded_eligible

        if sharded_eligible(plan):
            return execute_sharded(plan)
    if _stack_eligible(plan):
        return _execute_stack(plan)
    return [_execute_single(plan, index) for index in range(plan.n_replicas)]


def _stack_eligible(plan: ExecutionPlan) -> bool:
    """Whether the replica-batched epoch stack can serve this plan.

    Every other plan (including live ``Generator`` seeds and integers
    outside ``[0, 2**64)``, which the kernel cannot reproduce) runs
    replica by replica through :func:`_execute_single`, which is exact
    and consumes a caller's ``Generator`` in place.
    """
    if plan.mode != "shared" or plan.replica_mode == "sequential" or plan.n_replicas < 2:
        return False
    if plan.schedule is not None or plan.scheduler is not None:
        return False
    if plan.record_leader_trace:
        return False
    from ..engine.native import get_run_epoch_kernel
    from .source import kernel_seedable

    if get_run_epoch_kernel() is None:
        return False
    return all(kernel_seedable(seed) for seed in plan.seeds)


# ----------------------------------------------------------------------
# Single-replica execution (reference + compiled, historical semantics)
# ----------------------------------------------------------------------
def _execute_single(plan: ExecutionPlan, index: int) -> "SimulationResult":
    protocol = plan.protocols[index]
    seed = plan.seeds[index]
    if plan.mode == "reference":
        return _run_reference(plan, protocol, seed)
    if plan.mode == "shared":
        return _run_compiled_single(plan, protocol, seed, plan.compiled)

    # mode == "single": per-replica engine resolution (Simulator.run's
    # historical dispatch, including the mid-run reference fallback).
    from ..engine.compiler import ProtocolCompilationError, compilation_worthwhile

    engine = plan.engine
    scheduler_ok = plan.scheduler is None or hasattr(plan.scheduler, "next_arrays")
    if not scheduler_ok and engine == "compiled":
        raise ValueError(
            "engine='compiled' requires a scheduler with next_arrays(); "
            "use the reference engine for replayed schedules"
        )
    if engine == "auto" and not compilation_worthwhile(protocol, plan.max_states):
        scheduler_ok = False
    if scheduler_ok:
        # A mid-run compilation failure cannot fall back cleanly when the
        # scheduler stream is not re-creatable from a seed.
        replayable = plan.scheduler is None and not isinstance(
            seed, np.random.Generator
        )
        try:
            return _run_compiled_single(plan, protocol, seed, None)
        except ProtocolCompilationError:
            if engine == "compiled" or not replayable:
                raise
    return _run_reference(plan, protocol, seed)


def _make_scheduler(plan: ExecutionPlan, seed: Any):
    """The default scheduler: dynamic when the plan carries a schedule."""
    if plan.schedule is not None:
        from ..dynamics.scheduler import DynamicScheduler

        return DynamicScheduler(plan.schedule, rng=seed)
    from ..core.scheduler import RandomScheduler

    return RandomScheduler(plan.graph, rng=seed)


def _initial_states_for(plan: ExecutionPlan, protocol) -> List[Hashable]:
    """Per-replica initial configuration (shared builder on plan level)."""
    if protocol is plan.protocols[0]:
        return plan.initial_states()
    n = plan.graph.n_nodes
    if plan.inputs is None:
        return [protocol.initial_state(None)] * n
    if len(plan.inputs) != n:
        raise ValueError("inputs must provide one symbol per node")
    return [protocol.initial_state(symbol) for symbol in plan.inputs]


def _run_reference(plan: ExecutionPlan, protocol, seed: Any) -> "SimulationResult":
    """The pure-Python interpreter (the package's semantic reference)."""
    from ..core.configuration import Configuration
    from ..core.protocol import LEADER
    from ..core.simulator import SimulationResult

    graph = plan.graph
    schedule = plan.schedule
    max_steps = plan.max_steps
    certificate_graph = schedule.union_graph() if schedule is not None else graph
    states = list(_initial_states_for(plan, protocol))
    check_interval = plan.check_interval
    scheduler = plan.scheduler

    transition = protocol.transition
    output = protocol.output
    use_cache = protocol.cacheable_transitions
    transition_cache: Dict[Tuple[Hashable, Hashable], Tuple[Hashable, Hashable]] = {}

    observed_states = set(states)
    outputs = [output(s) for s in states]
    last_output_change = 0
    leader_count = sum(1 for o in outputs if o == LEADER)
    trace: List[Tuple[int, int]] = []
    record_leader_trace = plan.record_leader_trace
    trace_every = (
        max(1, max_steps // max(plan.trace_resolution, 1)) if record_leader_trace else 0
    )
    next_trace_step = 0

    start_time = time.perf_counter()
    step = 0
    stabilized = False
    certified_step = 0

    if record_leader_trace:
        trace.append((0, leader_count))
        next_trace_step = trace_every

    # Check the initial configuration too (stars stabilize in one step,
    # and n == 1 graphs are stable immediately).
    if protocol.is_output_stable_configuration(states, certificate_graph):
        stabilized = True
        certified_step = 0

    if not stabilized and step < max_steps and scheduler is None:
        # Created lazily so that trivially-stable single-node runs do not
        # require a schedulable (edge-carrying) graph.
        scheduler = _make_scheduler(plan, seed)

    while not stabilized and step < max_steps:
        batch = min(check_interval, max_steps - step)
        interactions = scheduler.next_batch(batch)
        for initiator, responder in interactions:
            step += 1
            a = states[initiator]
            b = states[responder]
            if use_cache:
                key = (a, b)
                cached = transition_cache.get(key)
                if cached is None:
                    cached = transition(a, b)
                    transition_cache[key] = cached
                new_a, new_b = cached
            else:
                new_a, new_b = transition(a, b)
            if new_a is not a:
                states[initiator] = new_a
                observed_states.add(new_a)
                out_a = output(new_a)
                if out_a != outputs[initiator]:
                    if out_a == LEADER:
                        leader_count += 1
                    elif outputs[initiator] == LEADER:
                        leader_count -= 1
                    outputs[initiator] = out_a
                    last_output_change = step
            if new_b is not b:
                states[responder] = new_b
                observed_states.add(new_b)
                out_b = output(new_b)
                if out_b != outputs[responder]:
                    if out_b == LEADER:
                        leader_count += 1
                    elif outputs[responder] == LEADER:
                        leader_count -= 1
                    outputs[responder] = out_b
                    last_output_change = step
            if record_leader_trace and step >= next_trace_step:
                trace.append((step, leader_count))
                next_trace_step += trace_every
        if protocol.is_output_stable_configuration(states, certificate_graph):
            stabilized = True
            certified_step = step

    wall = time.perf_counter() - start_time
    final = Configuration(states, step=step)
    if record_leader_trace and (not trace or trace[-1][0] != step):
        trace.append((step, leader_count))
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=last_output_change,
        steps_executed=step,
        leaders=leader_count,
        final_configuration=final,
        distinct_states_observed=len(observed_states),
        leader_trace=trace,
        wall_time_seconds=wall,
    )


def _run_compiled_single(
    plan: ExecutionPlan,
    protocol,
    seed: Any,
    compiled: Optional["CompiledProtocol"],
) -> "SimulationResult":
    """Compiled-engine twin of :func:`_run_reference` (identical semantics).

    The loop structure mirrors the reference interpreter exactly: same
    initial certificate check, same lazily created scheduler, same
    ``min(check_interval, remaining)`` batch sizes (so the scheduler's
    RNG stream is consumed identically), and the same certificate
    cadence.  Only the inner per-interaction application is replaced by
    :class:`repro.engine.stepper.CompiledRun`.
    """
    from ..core.configuration import Configuration
    from ..core.simulator import SimulationResult
    from ..engine.compiler import DEFAULT_MAX_STATES, get_compiled
    from ..engine.stepper import CompiledRun

    graph = plan.graph
    schedule = plan.schedule
    max_steps = plan.max_steps
    states = _initial_states_for(plan, protocol)
    check_interval = plan.check_interval
    scheduler = plan.scheduler
    record_leader_trace = plan.record_leader_trace

    if compiled is None:
        compiled = get_compiled(
            protocol,
            max_states=plan.max_states if plan.max_states is not None else DEFAULT_MAX_STATES,
        )
    start_time = time.perf_counter()
    trace_every = (
        max(1, max_steps // max(plan.trace_resolution, 1)) if record_leader_trace else 0
    )
    run = CompiledRun(
        compiled,
        compiled.encode(states),
        backend=plan.backend,
        record_trace=record_leader_trace,
        trace_every=trace_every,
    )

    stabilized = False
    certified_step = 0
    certificate_graph = schedule.union_graph() if schedule is not None else graph
    if protocol.is_output_stable_configuration(states, certificate_graph):
        stabilized = True

    if not stabilized and run.step < max_steps and scheduler is None:
        scheduler = _make_scheduler(plan, seed)

    while not stabilized and run.step < max_steps:
        batch = min(check_interval, max_steps - run.step)
        initiators, responders = scheduler.next_arrays(batch)
        run.apply_block(initiators, responders)
        if protocol.is_output_stable_configuration(run.current_states(), certificate_graph):
            stabilized = True
            certified_step = run.step

    wall = time.perf_counter() - start_time
    final = Configuration(run.current_states(), step=run.step)
    trace = run.trace
    if record_leader_trace and (not trace or trace[-1][0] != run.step):
        trace.append((run.step, run.leader_count))
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else run.step,
        last_output_change_step=run.last_change,
        steps_executed=run.step,
        leaders=run.leader_count,
        final_configuration=final,
        distinct_states_observed=run.distinct_observed(),
        leader_trace=trace,
        wall_time_seconds=wall,
    )


# ----------------------------------------------------------------------
# Replica-batched stack execution
# ----------------------------------------------------------------------
def _execute_stack(plan: ExecutionPlan) -> List["SimulationResult"]:
    """The replica-batched stack: whole epochs per kernel call, streams in-kernel.

    One ``repro_run_epoch`` call advances *every* active replica to its
    next stop event: a certificate boundary that needs Python
    (``BOUNDARY``), a missing table entry (``MISS``), or the step budget
    (``BUDGET``).  Replicas advance independently, so their per-row steps
    become heterogeneous; each row's sequence of blocks, certificate
    checks and draws is still exactly the single-run one, which keeps
    every result bit-identical to standalone runs (pinned by
    ``tests/test_runtime_plan.py`` and ``tests/test_kernel_rng.py``).
    Certified rows are compacted out; at or below ``plan.drain_width``
    the remaining rows finish through :func:`_drain_replica`.
    """
    from ..core.configuration import Configuration
    from ..core.simulator import SimulationResult
    from ..engine.native import get_run_epoch_kernel, kernel_thread_count
    from .source import KernelSource

    graph = plan.graph
    protocol = plan.protocols[0]
    compiled = plan.compiled
    assert compiled is not None
    kernel = get_run_epoch_kernel()
    assert kernel is not None
    n = graph.n_nodes
    replica_count = plan.n_replicas
    max_steps = plan.max_steps
    check_interval = plan.check_interval
    threads = plan.threads if plan.threads is not None else kernel_thread_count()
    threads = max(1, int(threads))

    start_time = time.perf_counter()
    initial_states = plan.initial_states()
    initial_codes = compiled.encode(initial_states)
    initial_leaders = compiled.leader_count(initial_codes)
    results: List[Optional[SimulationResult]] = [None] * replica_count

    def finalize(
        codes_row: np.ndarray, stabilized: bool, step: int, last: int, distinct: int, lead: int
    ) -> SimulationResult:
        decoded = compiled.decode_codes(codes_row)
        return SimulationResult(
            stabilized=stabilized,
            certified_step=step,
            last_output_change_step=last,
            steps_executed=step,
            leaders=lead,
            final_configuration=Configuration(decoded, step=step),
            distinct_states_observed=distinct,
            leader_trace=[],
            wall_time_seconds=0.0,
        )

    initially_stable = protocol.is_output_stable_configuration(initial_states, graph)
    if initially_stable or max_steps == 0:
        wall = time.perf_counter() - start_time
        distinct = int(np.unique(initial_codes).size)
        for index in range(replica_count):
            result = finalize(initial_codes, initially_stable, 0, 0, distinct, initial_leaders)
            result.wall_time_seconds = wall / replica_count
            results[index] = result
        return results  # type: ignore[return-value]

    ksrc = KernelSource(plan.graph, plan.seeds, buffer_capacity=check_interval)
    directed_u, directed_v = directed_tables(graph)
    codes = np.tile(np.ascontiguousarray(initial_codes, dtype=np.int64), (replica_count, 1))
    seen = np.zeros((replica_count, compiled.stride), dtype=np.uint8)
    seen[:, np.unique(initial_codes)] = 1
    steps = np.zeros(replica_count, dtype=np.int64)
    last_change = np.zeros(replica_count, dtype=np.int64)
    leaders = np.full(replica_count, initial_leaders, dtype=np.int64)
    status = np.zeros(replica_count, dtype=np.uint8)
    replica_ids = np.arange(replica_count, dtype=np.int64)
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))

    while replica_ids.size:
        if replica_ids.size <= plan.drain_width:
            for row in range(replica_ids.size):
                replica = int(replica_ids[row])
                results[replica] = _drain_replica(
                    plan,
                    protocol,
                    compiled,
                    ksrc.python_source(row),
                    codes[row],
                    int(steps[row]),
                    int(last_change[row]),
                    seen[row],
                    precheck,
                )
            break
        width = replica_ids.size
        if seen.shape[1] < compiled.stride:
            grown = np.zeros((width, compiled.stride), dtype=np.uint8)
            grown[:, : seen.shape[1]] = seen
            seen = grown
        kernel(
            codes.ctypes.data,
            ksrc.rng_state.ctypes.data,
            ksrc.src_state.ctypes.data,
            ksrc.buffers.ctypes.data,
            ksrc.buffer_capacity,
            directed_u.ctypes.data,
            directed_v.ctypes.data,
            graph.n_edges,
            width,
            n,
            compiled.dpack.ctypes.data,
            compiled.stride,
            compiled.kshift,
            seen.ctypes.data,
            ksrc.batch_size,
            check_interval,
            max_steps,
            steps.ctypes.data,
            last_change.ctypes.data,
            leaders.ctypes.data,
            status.ctypes.data,
            int(precheck),
            threads,
        )
        finished_rows: List[int] = []
        for row in np.nonzero(status[:width] == 2)[0].tolist():
            # Missing table entry: the row stopped *before* consuming the
            # draw; fill the entry (possibly growing the tables) and let
            # the next kernel call resume mid-block.
            index = int(ksrc.buffers[row, ksrc.src_state[row, 0]])
            u = int(directed_u[index])
            v = int(directed_v[index])
            compiled.scalar_entry(int(codes[row, u]), int(codes[row, v]))
        for row in np.nonzero(status[:width] == 1)[0].tolist():
            # Certificate boundary (leader-count prefiltered in-kernel
            # for precheck protocols, every cadence block otherwise).
            decoded = compiled.decode_codes(codes[row])
            if protocol.is_output_stable_configuration(decoded, graph):
                replica = int(replica_ids[row])
                results[replica] = finalize(
                    codes[row],
                    True,
                    int(steps[row]),
                    int(last_change[row]),
                    int(np.count_nonzero(seen[row])),
                    int(leaders[row]),
                )
                finished_rows.append(row)
            elif steps[row] >= max_steps:
                replica = int(replica_ids[row])
                results[replica] = finalize(
                    codes[row],
                    False,
                    int(steps[row]),
                    int(last_change[row]),
                    int(np.count_nonzero(seen[row])),
                    int(leaders[row]),
                )
                finished_rows.append(row)
        for row in np.nonzero(status[:width] == 0)[0].tolist():
            # Step budget exhausted without certification.
            replica = int(replica_ids[row])
            results[replica] = finalize(
                codes[row],
                False,
                int(steps[row]),
                int(last_change[row]),
                int(np.count_nonzero(seen[row])),
                int(leaders[row]),
            )
            finished_rows.append(row)
        if finished_rows:
            keep = np.ones(width, dtype=bool)
            keep[finished_rows] = False
            codes = np.ascontiguousarray(codes[keep])
            seen = np.ascontiguousarray(seen[keep])
            steps = np.ascontiguousarray(steps[keep])
            last_change = np.ascontiguousarray(last_change[keep])
            leaders = np.ascontiguousarray(leaders[keep])
            status = np.ascontiguousarray(status[keep])
            replica_ids = np.ascontiguousarray(replica_ids[keep])
            ksrc.compact(keep)

    wall = time.perf_counter() - start_time
    for result in results:
        assert result is not None
        result.wall_time_seconds = wall / replica_count
    return results  # type: ignore[return-value]


def _drain_replica(
    plan: ExecutionPlan,
    protocol,
    compiled: "CompiledProtocol",
    source,
    codes_row: np.ndarray,
    step: int,
    last_change: int,
    seen_row: np.ndarray,
    precheck: bool,
) -> "SimulationResult":
    """Finish one replica sequentially from mid-run stack state.

    Continues the replica's own scheduler stream and certificate cadence,
    so the result is still identical to a standalone reference run.
    """
    from ..core.configuration import Configuration
    from ..core.simulator import SimulationResult
    from ..engine.stepper import CompiledRun

    max_steps = plan.max_steps
    check_interval = plan.check_interval
    run = CompiledRun(
        compiled, np.ascontiguousarray(codes_row, dtype=np.int64), backend=plan.backend
    )
    run.step = step
    run.last_change = last_change
    stabilized = False
    certified_step = 0
    while not stabilized and run.step < max_steps:
        # A stack hand-off can arrive mid-block (after a table miss); align
        # the first batch to the certificate cadence so checks fall on
        # the same step numbers as a standalone run.
        batch = min(check_interval - run.step % check_interval, max_steps - run.step)
        initiators, responders = source.next_arrays(batch)
        run.apply_block(initiators, responders)
        if precheck and run.leader_count != 1:
            continue
        if protocol.is_output_stable_configuration(run.current_states(), plan.graph):
            stabilized = True
            certified_step = run.step
    decoded = run.current_states()
    seen_mask = run.seen_codes_mask(minimum_length=seen_row.shape[0])
    seen_mask[: seen_row.shape[0]] |= seen_row.astype(bool)
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else run.step,
        last_output_change_step=run.last_change,
        steps_executed=run.step,
        leaders=run.leader_count,
        final_configuration=Configuration(decoded, step=run.step),
        distinct_states_observed=int(seen_mask.sum()),
        leader_trace=[],
        wall_time_seconds=0.0,
    )
