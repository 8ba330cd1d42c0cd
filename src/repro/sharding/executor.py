"""The sharded plan executor (capacity twin of the replica-batched stack).

:func:`execute_sharded` runs an :class:`~repro.runtime.plan.ExecutionPlan`
whose ``shards`` dial is set: every drawn pair is routed to its owning
shard(s) through the partition, and cross-shard pairs are accounted
through the explicit :class:`~repro.sharding.source.ExchangeQueue`
handshake.  The global seeded stream, the ``min(check_interval,
remaining)`` block sizes, the certificate cadence, the unique-leader
precheck and all per-replica bookkeeping (last output change, leader
count, distinct-code mask) mirror the epoch stack exactly, so results
are bit-identical to the batched path — 1 shard vs the stack and
k shards vs 1 shard are both gated in CI.

Execution follows the *span* schedule
(:meth:`~repro.sharding.source.ShardedInteractionSource.next_spans`): a
routed chunk is an alternation of shard-local stretches and boundary
events, consumed in original draw order against a global ``int64`` code
array.  The **whole chunk** — boundary events included — is one
``repro_run_sharded_chunk`` native call (exact draw order, per-boundary
non-null flags for the exchange accounting, and the
lazy-compile/miss-resume discipline).  The scheduler draws one pair per
step from a single stream, so drawing and routing are serial by nature;
sharding decides only *where* each drawn pair applies.

A plan is served here only when :func:`sharded_eligible` accepts it —
static topology, no stream override or trace, compilable homogeneous
protocol, and a built native chunk kernel.  Everything else (no C
compiler, ``REPRO_DISABLE_NATIVE``) falls through to the unsharded
executor chain, where the ``shards`` dial is simply ignored: results
are identical either way, which is what makes the dial safe to thread
through scenarios and services.  The per-pair reference loop the kernel
is checked against lives with the tests (``tests/shard_oracle.py``).
"""

from __future__ import annotations

import ctypes
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..engine.native import get_run_sharded_chunk_kernel
from ..runtime.plan import ExecutionPlan
from .partition import MAX_SHARDS, PartitionedGraph
from .source import ExchangeQueue, ShardedInteractionSource, SpanBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulator import SimulationResult
    from ..engine.compiler import CompiledProtocol


def sharded_eligible(plan: ExecutionPlan) -> bool:
    """Whether the sharded executor can serve this plan (the probe).

    Mirrors the stack probe: any refusal — including an unbuilt native
    chunk kernel — silently drops the plan to the existing executor
    chain.
    """
    if plan.shards is None or int(plan.shards) < 1:
        return False
    if plan.schedule is not None or plan.scheduler is not None:
        return False
    if plan.record_leader_trace:
        return False
    if plan.mode == "reference" or plan.engine == "reference":
        return False
    if plan.graph.n_edges == 0:
        return False
    from ..runtime.plan import _homogeneous

    if not _homogeneous(plan.protocols):
        return False
    if get_run_sharded_chunk_kernel() is None:
        return False
    return _resolve_compiled(plan) is not None


def _resolve_compiled(plan: ExecutionPlan) -> Optional["CompiledProtocol"]:
    """The plan's shared table set, compiling on demand (None on failure)."""
    if plan.compiled is not None:
        return plan.compiled
    from ..engine.compiler import (
        DEFAULT_MAX_STATES,
        ProtocolCompilationError,
        get_compiled,
    )

    try:
        return get_compiled(
            plan.protocols[0],
            max_states=plan.max_states if plan.max_states is not None else DEFAULT_MAX_STATES,
        )
    except ProtocolCompilationError:
        return None


def execute_sharded(
    plan: ExecutionPlan, partition: Optional[PartitionedGraph] = None
) -> List["SimulationResult"]:
    """Run every replica of ``plan`` shard-locally, in replica order.

    ``partition`` injects a prebuilt layout (the differential tests pass
    hash partitions); by default the plan's graph is range-partitioned
    into ``min(plan.shards, n, MAX_SHARDS)`` shards.  Every replica is
    timed individually (``wall_time_seconds`` is that replica's own
    measurement, never a smeared share of the plan's).  Requires the
    native chunk kernel — :func:`sharded_eligible` declines without it.
    """
    from ..core.configuration import Configuration
    from ..core.simulator import SimulationResult
    from ..engine.compiler import ProtocolCompilationError

    kernel = get_run_sharded_chunk_kernel()
    if kernel is None:
        raise RuntimeError(
            "the sharded executor needs the native chunk kernel "
            "(sharded_eligible() declines plans without it)"
        )
    graph = plan.graph
    protocol = plan.protocols[0]
    compiled = _resolve_compiled(plan)
    assert compiled is not None
    replica_count = plan.n_replicas
    max_steps = plan.max_steps

    initial_states = plan.initial_states()
    initial_codes = compiled.encode(initial_states)
    initial_leaders = compiled.leader_count(initial_codes)

    initially_stable = protocol.is_output_stable_configuration(initial_states, graph)
    if initially_stable or max_steps == 0:
        distinct = int(np.unique(initial_codes).size)
        results = []
        for _ in range(replica_count):
            start = time.perf_counter()
            decoded = compiled.decode_codes(initial_codes)
            result = SimulationResult(
                stabilized=initially_stable,
                certified_step=0,
                last_output_change_step=0,
                steps_executed=0,
                leaders=initial_leaders,
                final_configuration=Configuration(decoded, step=0),
                distinct_states_observed=distinct,
                leader_trace=[],
                wall_time_seconds=0.0,
            )
            result.wall_time_seconds = time.perf_counter() - start
            results.append(result)
        return results

    if partition is None:
        shards = max(1, min(int(plan.shards or 1), graph.n_nodes, MAX_SHARDS))
        partition = PartitionedGraph(graph, shards)

    results = []
    for seed in plan.seeds:
        start = time.perf_counter()
        try:
            result = _run_replica(
                plan, protocol, compiled, partition, kernel, seed,
                initial_codes, initial_leaders,
            )
        except ProtocolCompilationError:
            # Lazy state discovery outgrew the table bound mid-run.
            # Every scenario seed is a plain integer, so the streams are
            # re-creatable: drop the whole plan to the unsharded chain
            # (the same demotion the single-run engine performs).
            if not all(isinstance(s, (int, np.integer)) for s in plan.seeds):
                raise
            from ..runtime.execute import _execute_single

            return [_execute_single(plan, i) for i in range(replica_count)]
        result.wall_time_seconds = time.perf_counter() - start
        results.append(result)
    return results


def _run_replica(
    plan: ExecutionPlan,
    protocol: Any,
    compiled: "CompiledProtocol",
    partition: PartitionedGraph,
    kernel: Any,
    seed: Any,
    initial_codes: np.ndarray,
    initial_leaders: int,
) -> "SimulationResult":
    """One replica: one ``repro_run_sharded_chunk`` call per chunk.

    Node state lives in a single *global* code array and each routed
    chunk is consumed in exact draw order, boundary events included.
    The kernel reports per boundary event whether its transition was
    non-null, and the exchange accounting happens afterwards in one
    vectorised pass (the synchronous handshake posts and delivers within
    the same draw, so only the counters move and quiescence holds by
    construction).  The miss-resume discipline applies per chunk: stop
    at a missing entry, fill it via ``scalar_entry``, refresh the
    possibly-grown tables, resume at the same draw.
    """
    from ..core.configuration import Configuration
    from ..core.scheduler import RandomScheduler
    from ..core.simulator import SimulationResult

    graph = plan.graph
    n_shards = partition.n_shards
    codes = np.ascontiguousarray(initial_codes, dtype=np.int64).copy()
    codes_ptr = codes.ctypes.data
    routed = ShardedInteractionSource(RandomScheduler(graph, rng=seed), partition)
    exchange = ExchangeQueue(n_shards)
    seen = np.zeros(compiled.stride, dtype=np.uint8)
    seen[np.unique(initial_codes)] = 1
    leaders = int(initial_leaders)
    last_change = 0
    stats = _StatsCollector(n_shards) if plan.collect_shard_stats else None

    max_steps = plan.max_steps
    check_interval = plan.check_interval
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    step = 0
    stabilized = False
    certified_step = 0
    while not stabilized and step < max_steps:
        size = min(check_interval, max_steps - step)
        block = routed.next_spans(size)
        bp = block.boundary_pos
        n_boundary = bp.size
        applied = np.zeros(n_boundary, dtype=np.uint8)
        off = 0
        while True:
            last_io = ctypes.c_int64(last_change)
            leaders_io = ctypes.c_int64(leaders)
            done = kernel(
                codes_ptr,
                block.gu.ctypes.data,
                block.gv.ctypes.data,
                off,
                size,
                step,
                bp.ctypes.data,
                n_boundary,
                applied.ctypes.data,
                compiled.dpack.ctypes.data,
                compiled.stride,
                compiled.kshift,
                seen.ctypes.data,
                ctypes.byref(last_io),
                ctypes.byref(leaders_io),
            )
            last_change = last_io.value
            leaders = leaders_io.value
            if done >= size:
                break
            off = done
            # Missing entry at the stop offset: fill it (may grow the
            # tables — stride/kshift/dpack are re-read on resume) and
            # continue from the same draw.
            compiled.scalar_entry(int(codes[block.gu[off]]), int(codes[block.gv[off]]))
            if seen.size < compiled.stride:
                grown = np.zeros(compiled.stride, dtype=np.uint8)
                grown[: seen.size] = seen
                seen = grown
        if n_boundary:
            # Exchange accounting for the non-null boundary events —
            # post and deliver in one vectorised pass.
            mask = applied.astype(bool)
            src = block.init_shard[bp].astype(np.int64)[mask]
            dst = block.resp_shard[bp].astype(np.int64)[mask]
            np.add.at(exchange.posted, (src, dst), 1)
            np.add.at(exchange.delivered, (src, dst), 1)
        if stats is not None:
            stats.observe_block(block)
        step += size
        # Certificate boundary: the exchange fabric must be globally
        # quiescent, then the same precheck-gated certificate the stack
        # executor runs.
        exchange.assert_quiescent()
        if precheck and leaders != 1:
            continue
        if protocol.is_output_stable_configuration(compiled.decode_codes(codes), graph):
            stabilized = True
            certified_step = step

    result = SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=last_change,
        steps_executed=step,
        leaders=leaders,
        final_configuration=Configuration(compiled.decode_codes(codes), step=step),
        distinct_states_observed=int(seen.sum()),
        leader_trace=[],
        wall_time_seconds=0.0,
    )
    if stats is not None:
        result.shard_stats = stats.summary(exchange)
    return result


class _StatsCollector:
    """Per-replica shard observability (opt-in, never canonical)."""

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self.steps_applied = np.zeros(n_shards, dtype=np.int64)
        self.boundary_pairs = 0
        self.run_lengths: Dict[int, int] = {}

    def observe_block(self, block: SpanBlock) -> None:
        # The span schedule never materialises runs; recover the
        # (segment, shard) grouping arithmetically.
        si = block.init_shard.astype(np.int64)
        sj = block.resp_shard.astype(np.int64)
        boundary = si != sj
        seg = np.cumsum(boundary, dtype=np.int64) - boundary
        local = ~boundary
        key = seg[local] * self.n_shards + si[local]
        runs, lengths = np.unique(key, return_counts=True)
        run_shard = runs % self.n_shards
        b_init_shard = si[block.boundary_pos]
        b_resp_shard = sj[block.boundary_pos]
        if lengths.size:
            np.add.at(self.steps_applied, run_shard, lengths)
            # Power-of-two buckets: run of length L lands in 2^(bits(L)-1).
            buckets = np.frexp(lengths.astype(np.float64))[1] - 1
            for bucket, count in zip(*np.unique(buckets, return_counts=True)):
                key = 1 << int(bucket)
                self.run_lengths[key] = self.run_lengths.get(key, 0) + int(count)
        if block.n_boundary:
            self.boundary_pairs += block.n_boundary
            np.add.at(self.steps_applied, b_init_shard, 1)
            np.add.at(self.steps_applied, b_resp_shard, 1)

    def summary(self, exchange: ExchangeQueue) -> Dict[str, Any]:
        return {
            "shards": self.n_shards,
            "steps_applied": self.steps_applied.tolist(),
            "boundary_pairs": int(self.boundary_pairs),
            "run_length_histogram": {
                str(k): v for k, v in sorted(self.run_lengths.items())
            },
            "exchange_posted": int(exchange.posted.sum()),
            "exchange_delivered": int(exchange.delivered.sum()),
            "exchange_in_flight": exchange.in_flight,
        }
