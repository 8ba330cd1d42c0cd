"""The sharded plan executor (capacity twin of the replica-batched stack).

:func:`execute_sharded` runs an :class:`~repro.runtime.plan.ExecutionPlan`
whose ``shards`` dial is set: node state lives in per-shard local arrays,
every drawn pair is routed to its owning shard(s) through the partition's
memory-mapped tables, and cross-shard pairs go through the explicit
:class:`~repro.sharding.source.ExchangeQueue` handshake.  The global
seeded stream, the ``min(check_interval, remaining)`` block sizes, the
certificate cadence, the unique-leader precheck and all per-replica
bookkeeping (last output change, leader count, distinct-code mask)
mirror :func:`repro.runtime.execute._execute_stack` exactly, so results
are bit-identical to the batched path — 1 shard vs the stack and
k shards vs 1 shard are both gated in CI.

Execution follows the *span* schedule
(:meth:`~repro.sharding.source.ShardedInteractionSource.next_spans`): a
routed chunk is an alternation of shard-local stretches and boundary
events, consumed in original draw order against a global ``int64`` code
array.  Interactions on disjoint shard-local state commute, so between
two boundary events every shard's local draws may execute back to back —
or on another process — and still produce the byte-identical global
result; only the boundary events themselves are order-critical, and
they apply in global draw order, in this process, always.  In-process,
the **whole chunk** — boundary events included — is one
``repro_run_sharded_chunk`` native call (exact draw order, per-boundary
non-null flags for the exchange accounting, and the
lazy-compile/miss-resume discipline).  With ``shard_workers=`` set, the
same span arrays are split per owning worker and fan out across a
persistent fork-based worker pool (:mod:`repro.sharding.pool`), and the
boundary events become pairwise handshakes inside a per-chunk
super-step barrier.

Probe-and-fallback (the epoch stack -> NumPy idiom), innermost first:

* worker pool — needs ``shard_workers >= 1``, > 1 shard, a built kernel,
  complete transition tables and a forkable platform; anything else (or
  a worker dying mid-super-step, or ``REPRO_DISABLE_SHARD_WORKERS=1``)
  demotes to …
* in-process kernel loop — needs the native kernel; without it (or with
  ``REPRO_DISABLE_SHARD_KERNEL=1``) the chunk falls back to …
* the per-pair Python scalar loop (the PR-9 path, kept as the always-
  available baseline).

A plan is served here at all only when :func:`sharded_eligible` accepts
it — static topology, no stream override or trace, compilable
homogeneous protocol, and ``REPRO_DISABLE_SHARDING`` unset.  Everything
else falls through to the existing executor chain, where the ``shards``
dial is simply ignored (results are identical either way, which is what
makes the dial safe to thread through scenarios and services).
"""

from __future__ import annotations

import ctypes
import os
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from ..runtime.plan import ExecutionPlan
from .partition import MAX_SHARDS, PartitionedGraph
from .source import ExchangeQueue, ShardedInteractionSource, SpanBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulator import SimulationResult
    from ..engine.compiler import CompiledProtocol

_MISSING = object()


def sharded_eligible(plan: ExecutionPlan) -> bool:
    """Whether the sharded executor can serve this plan (the probe).

    Mirrors the stack probe: any refusal silently drops the plan to the
    existing executor chain.  ``REPRO_DISABLE_SHARDING=1`` simulates an
    unavailable engine (the fallback-chain tests use it).
    """
    if plan.shards is None or int(plan.shards) < 1:
        return False
    if os.environ.get("REPRO_DISABLE_SHARDING"):
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


def _shard_kernel():
    """The per-run shard kernel (the pool's), or ``None`` (disabled/unbuilt)."""
    if os.environ.get("REPRO_DISABLE_SHARD_KERNEL"):
        return None
    from ..engine.native import get_run_shard_kernel

    return get_run_shard_kernel()


def _chunk_kernel():
    """The whole-chunk sharded kernel, or ``None`` (disabled or unbuilt)."""
    if os.environ.get("REPRO_DISABLE_SHARD_KERNEL"):
        return None
    from ..engine.native import get_run_sharded_chunk_kernel

    return get_run_sharded_chunk_kernel()


def execute_sharded(
    plan: ExecutionPlan, partition: Optional[PartitionedGraph] = None
) -> List["SimulationResult"]:
    """Run every replica of ``plan`` shard-locally, in replica order.

    ``partition`` injects a prebuilt layout (the differential tests pass
    hash partitions); by default the plan's graph is range-partitioned
    into ``min(plan.shards, n, MAX_SHARDS)`` shards.  Every replica is
    timed individually (``wall_time_seconds`` is that replica's own
    measurement, never a smeared share of the plan's).
    """
    from ..core.configuration import Configuration
    from ..core.simulator import SimulationResult
    from ..engine.compiler import ProtocolCompilationError

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

    pool = _maybe_start_pool(plan, partition, compiled)
    results = []
    try:
        for index, seed in enumerate(plan.seeds):
            start = time.perf_counter()
            try:
                if pool is not None:
                    from .pool import ShardPoolError

                    try:
                        result = _run_replica(
                            plan, protocol, compiled, partition, seed,
                            initial_codes, initial_leaders, pool=pool,
                        )
                    except ShardPoolError as exc:
                        # A worker died mid-super-step (or the pool broke
                        # some other way): the stream is re-creatable from
                        # the seed, so rerun this replica — and every
                        # later one — in-process, byte-identically.  Drop
                        # the traceback frames first — they pin numpy
                        # views of the shared blocks, which must die for
                        # the pool to release its mappings cleanly.
                        err: Optional[BaseException] = exc
                        for _ in range(8):
                            if err is None:
                                break
                            err.__traceback__ = None
                            err = err.__context__
                        pool.close()
                        pool = None
                        result = _run_replica(
                            plan, protocol, compiled, partition, seed,
                            initial_codes, initial_leaders,
                        )
                else:
                    result = _run_replica(
                        plan, protocol, compiled, partition, seed,
                        initial_codes, initial_leaders,
                    )
            except ProtocolCompilationError:
                # Lazy state discovery outgrew the table bound mid-run.
                # Every scenario seed is a plain integer, so the streams
                # are re-creatable: drop the whole plan to the unsharded
                # chain (the same demotion the single-run engine
                # performs).
                if not all(isinstance(s, (int, np.integer)) for s in plan.seeds):
                    raise
                from ..runtime.execute import _execute_single

                return [_execute_single(plan, i) for i in range(replica_count)]
            result.wall_time_seconds = time.perf_counter() - start
            results.append(result)
    finally:
        if pool is not None:
            pool.close()
    return results


def _maybe_start_pool(
    plan: ExecutionPlan, partition: PartitionedGraph, compiled: "CompiledProtocol"
):
    """A live shard-worker pool, or ``None`` (the probe).

    The pool requires every layer beneath it: ``shard_workers >= 1`` on
    the plan, more than one shard, the native shard kernel, *complete*
    transition tables (parallel lazy state discovery would assign codes
    in process-dependent order, breaking the shared code blocks), a
    forkable platform and ``REPRO_DISABLE_SHARD_WORKERS`` unset.  Any
    refusal — including a daemonic parent that may not fork — demotes
    silently to the in-process path, which is byte-identical.
    """
    workers = plan.shard_workers
    if not workers or int(workers) < 1:
        return None
    if os.environ.get("REPRO_DISABLE_SHARD_WORKERS"):
        return None
    if partition.n_shards < 2:
        return None
    if _shard_kernel() is None:
        return None
    if not compiled.tables_complete:
        return None
    try:
        from .pool import ShardWorkerPool

        return ShardWorkerPool(partition, compiled, n_workers=int(workers))
    except Exception:
        return None


class _ReplicaState:
    """Mutable per-replica bookkeeping shared with the run backends."""

    __slots__ = ("leaders", "last_change", "seen")

    def __init__(self, leaders: int, seen: np.ndarray) -> None:
        self.leaders = int(leaders)
        self.last_change = 0
        self.seen = seen

    def grow_seen(self, stride: int) -> None:
        if self.seen.size < stride:
            grown = np.zeros(stride, dtype=np.uint8)
            grown[: self.seen.size] = self.seen
            self.seen = grown


class _KernelChunks:
    """In-process backend: one ``repro_run_sharded_chunk`` call per chunk.

    Node state lives in a single *global* code array, and the chunk is
    consumed in exact draw order — so the run regrouping the worker pool
    needs (disjoint per-shard blocks) buys nothing in-process, and the
    per-run (or even per-segment) ctypes dispatch only costs Python.
    The whole routed chunk — boundary events included — is one native
    call; the kernel reports per boundary event whether its transition
    was non-null, and the exchange accounting happens afterwards in one
    vectorised pass (the synchronous handshake posts and delivers within
    the same draw, so only the counters move and quiescence holds by
    construction).  The miss-resume discipline applies per chunk:
    stop at a missing entry, fill it via ``scalar_entry``, refresh the
    possibly-grown tables, resume at the same draw.
    """

    name = "kernel"

    def __init__(self, kernel, compiled: "CompiledProtocol", initial_codes: np.ndarray):
        self._kernel = kernel
        self._compiled = compiled
        self.codes = np.ascontiguousarray(initial_codes, dtype=np.int64).copy()

    def run_chunk(
        self,
        routed: ShardedInteractionSource,
        size: int,
        base_step: int,
        state: _ReplicaState,
        exchange: ExchangeQueue,
    ) -> SpanBlock:
        block = routed.next_spans(size)
        kernel = self._kernel
        compiled = self._compiled
        codes = self.codes
        bp = block.boundary_pos
        n_boundary = bp.size
        applied = np.zeros(n_boundary, dtype=np.uint8)
        codes_ptr = codes.ctypes.data
        iu_ptr = block.gu.ctypes.data
        iv_ptr = block.gv.ctypes.data
        bp_ptr = bp.ctypes.data
        applied_ptr = applied.ctypes.data
        off = 0
        while True:
            last_io = ctypes.c_int64(state.last_change)
            leaders_io = ctypes.c_int64(state.leaders)
            done = kernel(
                codes_ptr,
                iu_ptr,
                iv_ptr,
                off,
                size,
                base_step,
                bp_ptr,
                n_boundary,
                applied_ptr,
                compiled.dpack.ctypes.data,
                compiled.stride,
                compiled.kshift,
                state.seen.ctypes.data,
                ctypes.byref(last_io),
                ctypes.byref(leaders_io),
            )
            state.last_change = last_io.value
            state.leaders = leaders_io.value
            if done >= size:
                break
            off = done
            # Missing entry at the stop offset: fill it (may grow the
            # tables — stride/kshift/dpack are re-read on resume) and
            # continue from the same draw.
            a = int(codes[block.gu[off]])
            b = int(codes[block.gv[off]])
            compiled.scalar_entry(a, b)
            state.grow_seen(compiled.stride)
        if n_boundary:
            # Exchange accounting for the non-null boundary events —
            # post and deliver in one vectorised pass.
            mask = applied.astype(bool)
            src = block.init_shard[bp].astype(np.int64)[mask]
            dst = block.resp_shard[bp].astype(np.int64)[mask]
            np.add.at(exchange.posted, (src, dst), 1)
            np.add.at(exchange.delivered, (src, dst), 1)
        return block

    def assemble(self, partition: PartitionedGraph) -> np.ndarray:
        return self.codes.copy()

    def end_replica(self, state: _ReplicaState) -> None:
        pass


def _run_replica(
    plan: ExecutionPlan,
    protocol: Any,
    compiled: "CompiledProtocol",
    partition: PartitionedGraph,
    seed: Any,
    initial_codes: np.ndarray,
    initial_leaders: int,
    pool: Any = None,
) -> "SimulationResult":
    """One replica: segmented schedule, kernel-backed local runs,
    boundary events applied in global draw order."""
    from ..core.scheduler import RandomScheduler

    kernel = _chunk_kernel()
    if kernel is None and pool is None:
        return _run_replica_python(
            plan, protocol, compiled, partition, seed, initial_codes, initial_leaders
        )

    graph = plan.graph
    n_shards = partition.n_shards
    if pool is not None:
        backend = pool.replica_backend(
            np.ascontiguousarray(initial_codes, dtype=np.int64)
        )
    else:
        backend = _KernelChunks(kernel, compiled, initial_codes)

    routed = ShardedInteractionSource(RandomScheduler(graph, rng=seed), partition)
    exchange = ExchangeQueue(n_shards)
    seen = np.zeros(compiled.stride, dtype=np.uint8)
    seen[np.unique(initial_codes)] = 1
    state = _ReplicaState(initial_leaders, seen)
    stats = _StatsCollector(n_shards, backend.name, pool) if plan.collect_shard_stats else None

    max_steps = plan.max_steps
    check_interval = plan.check_interval
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    step = 0
    stabilized = False
    certified_step = 0
    while not stabilized and step < max_steps:
        chunk = min(check_interval, max_steps - step)
        if pool is None:
            block = backend.run_chunk(routed, chunk, step, state, exchange)
        else:
            block = _run_pool_chunk(
                backend, routed, chunk, step, state, exchange, compiled
            )
        if stats is not None:
            stats.observe_block(block)
        step += chunk
        # Certificate boundary: the exchange fabric must be globally
        # quiescent, then the same precheck-gated certificate the stack
        # executor runs.
        exchange.assert_quiescent()
        if precheck and state.leaders != 1:
            continue
        decoded = compiled.decode_codes(backend.assemble(partition))
        if protocol.is_output_stable_configuration(decoded, graph):
            stabilized = True
            certified_step = step
    backend.end_replica(state)

    result = _finalize(
        plan, compiled, backend.assemble(partition), stabilized, certified_step, step, state
    )
    if stats is not None:
        result.shard_stats = stats.summary(exchange)
    return result


def _run_pool_chunk(
    backend: Any,
    routed: ShardedInteractionSource,
    size: int,
    base_step: int,
    state: _ReplicaState,
    exchange: ExchangeQueue,
    compiled: "CompiledProtocol",
) -> SpanBlock:
    """One super-step of the worker pool.

    The workers run their shard-local runs ahead on their own programs;
    this loop only drives the boundary handshakes — every boundary
    event is applied *here*, in global draw order, through the exchange
    fabric — plus the per-chunk ``done`` barrier.
    """
    from ..engine.compiler import _SCALAR_STRIDE
    from .pool import ShardPoolError

    scalar = compiled.scalar
    block = backend.begin_chunk(routed, size, base_step, state)
    nb = block.n_boundary
    for seg in range(nb + 1):
        backend.run_segment(seg, state)
        if seg >= nb:
            break
        backend.sync_boundary(seg)
        # Boundary event: the one order-critical draw.
        si, sj, li, lj, a, b = backend.boundary(seg)
        entry = scalar.get(a * _SCALAR_STRIDE + b, _MISSING)
        if entry is _MISSING:
            # Complete tables cannot miss; a miss here means the
            # workers' forked table copies are stale.
            raise ShardPoolError("table miss under the worker pool")
        if entry is not None:
            # Hand the responder's half across the shard fabric
            # (synchronous FIFO handshake — delivery order is global
            # draw order by construction).
            exchange.post(si, sj, (li, lj))
            exchange.deliver(si, sj)
            na, nb_code, dl, chg = entry
            backend.write_boundary(seg, na, nb_code)
            state.seen[na] = 1
            state.seen[nb_code] = 1
            if dl:
                state.leaders += dl
            if chg:
                changed_at = base_step + int(block.boundary_pos[seg]) + 1
                if changed_at > state.last_change:
                    state.last_change = changed_at
        backend.release_boundary(seg)
    backend.finish_chunk(state)
    return block


def _finalize(
    plan: ExecutionPlan,
    compiled: "CompiledProtocol",
    final_codes: np.ndarray,
    stabilized: bool,
    certified_step: int,
    step: int,
    state: _ReplicaState,
) -> "SimulationResult":
    from ..core.configuration import Configuration
    from ..core.simulator import SimulationResult

    decoded = compiled.decode_codes(final_codes)
    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=state.last_change,
        steps_executed=step,
        leaders=state.leaders,
        final_configuration=Configuration(decoded, step=step),
        distinct_states_observed=int(state.seen.sum()),
        leader_trace=[],
        wall_time_seconds=0.0,
    )


class _StatsCollector:
    """Per-replica shard observability (opt-in, never canonical)."""

    def __init__(self, n_shards: int, path: str, pool: Any) -> None:
        self.n_shards = n_shards
        self.path = path
        self.workers = 0 if pool is None else pool.n_workers
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
            "path": self.path,
            "shards": self.n_shards,
            "workers": self.workers,
            "steps_applied": self.steps_applied.tolist(),
            "boundary_pairs": int(self.boundary_pairs),
            "run_length_histogram": {
                str(k): v for k, v in sorted(self.run_lengths.items())
            },
            "exchange_posted": int(exchange.posted.sum()),
            "exchange_delivered": int(exchange.delivered.sum()),
            "exchange_in_flight": exchange.in_flight,
        }


def _run_replica_python(
    plan: ExecutionPlan,
    protocol: Any,
    compiled: "CompiledProtocol",
    partition: PartitionedGraph,
    seed: Any,
    initial_codes: np.ndarray,
    initial_leaders: int,
) -> "SimulationResult":
    """One replica through the per-pair Python scalar loop (the PR-9
    path): shard-local state, strict global-order application.  Kept as
    the kernel-less fallback and as the single-process baseline the
    sharding benchmark gates the kernel path against."""
    from ..core.configuration import Configuration
    from ..core.scheduler import RandomScheduler
    from ..core.simulator import SimulationResult
    from ..engine.compiler import _SCALAR_STRIDE

    graph = plan.graph
    max_steps = plan.max_steps
    check_interval = plan.check_interval
    n_shards = partition.n_shards

    routed = ShardedInteractionSource(RandomScheduler(graph, rng=seed), partition)
    exchange = ExchangeQueue(n_shards)

    # Shard-local state: plain Python lists (codes are small stable ints;
    # list indexing is the fastest scalar access CPython offers).
    local_codes: List[List[int]] = [
        initial_codes[partition.shard_members(s)].tolist() for s in range(n_shards)
    ]
    seen: List[int] = [0] * compiled.stride
    for code in np.unique(initial_codes).tolist():
        seen[code] = 1
    leaders = int(initial_leaders)
    last_change = 0
    step = 0
    stabilized = False
    certified_step = 0
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    scalar = compiled.scalar
    scalar_entry = compiled.scalar_entry
    stats = (
        _StatsCollector(n_shards, "python", None) if plan.collect_shard_stats else None
    )

    def assemble() -> np.ndarray:
        out = np.empty(graph.n_nodes, dtype=np.int64)
        for s in range(n_shards):
            out[partition.shard_members(s)] = local_codes[s]
        return out

    while not stabilized and step < max_steps:
        chunk = min(check_interval, max_steps - step)
        _, init_shard, init_local, resp_shard, resp_local = routed.next_routed(chunk)
        if stats is not None:
            boundary = init_shard != resp_shard
            crossings = int(boundary.sum())
            stats.boundary_pairs += crossings
            np.add.at(
                stats.steps_applied,
                init_shard.astype(np.int64),
                1,
            )
            np.add.at(
                stats.steps_applied,
                resp_shard[boundary].astype(np.int64),
                1,
            )
        si_list = init_shard.tolist()
        li_list = init_local.tolist()
        sj_list = resp_shard.tolist()
        lj_list = resp_local.tolist()
        for pos in range(chunk):
            si = si_list[pos]
            li = li_list[pos]
            sj = sj_list[pos]
            lj = lj_list[pos]
            codes_i = local_codes[si]
            codes_j = local_codes[sj]
            a = codes_i[li]
            b = codes_j[lj]
            entry = scalar.get(a * _SCALAR_STRIDE + b, _MISSING)
            if entry is _MISSING:
                entry = scalar_entry(a, b)
                if len(seen) < compiled.stride:
                    seen.extend([0] * (compiled.stride - len(seen)))
            if entry is None:
                continue
            na, nb, dl, chg = entry
            if si != sj:
                # Boundary pair: hand the responder's half across the
                # shard fabric (synchronous FIFO handshake — delivery
                # order is global draw order by construction).
                exchange.post(si, sj, (li, lj))
                exchange.deliver(si, sj)
            codes_i[li] = na
            codes_j[lj] = nb
            seen[na] = 1
            seen[nb] = 1
            if dl:
                leaders += dl
            if chg:
                last_change = step + pos + 1
        step += chunk
        # Certificate boundary: the exchange fabric must be globally
        # quiescent, then the same precheck-gated certificate the stack
        # executor runs.
        exchange.assert_quiescent()
        if precheck and leaders != 1:
            continue
        decoded = compiled.decode_codes(assemble())
        if protocol.is_output_stable_configuration(decoded, graph):
            stabilized = True
            certified_step = step

    final_codes = assemble()
    decoded = compiled.decode_codes(final_codes)
    result = SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=last_change,
        steps_executed=step,
        leaders=leaders,
        final_configuration=Configuration(decoded, step=step),
        distinct_states_observed=sum(seen),
        leader_trace=[],
        wall_time_seconds=0.0,
    )
    if stats is not None:
        result.shard_stats = stats.summary(exchange)
    return result
