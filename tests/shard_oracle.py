"""Per-pair reference loop for sharded plans (a test oracle).

:func:`run_sharded_oracle` executes an :class:`~repro.runtime.plan.ExecutionPlan`
the slow, obvious way: node state lives in per-shard Python lists, every
drawn pair is routed through :meth:`ShardedInteractionSource.next_routed`
(the partition's memory-mapped routing tables), boundary pairs go
through an :class:`ExchangeQueue` handshake, and interactions apply one
at a time in global draw order.  It reads only the public
:class:`PartitionedGraph`, ``next_routed`` and :class:`ExchangeQueue`
APIs plus the compiled transition tables, so it shares no execution code
with the native chunk kernel or the unsharded executors it is compared
against.

The sharding tests compare ``execute_plan`` against it, and
``benchmarks/bench_sharding.py`` uses it as the single-process baseline
for the chunk-kernel throughput gates.
"""

from __future__ import annotations

from typing import Any, List

import numpy as np

from repro.core.configuration import Configuration
from repro.core.scheduler import RandomScheduler
from repro.core.simulator import SimulationResult
from repro.engine.compiler import _SCALAR_STRIDE, DEFAULT_MAX_STATES, get_compiled
from repro.sharding import ExchangeQueue, PartitionedGraph, ShardedInteractionSource
from repro.sharding.partition import MAX_SHARDS

_MISSING = object()


def run_sharded_oracle(plan, partition=None) -> List[SimulationResult]:
    """Every replica of ``plan`` through the per-pair loop, in order.

    ``partition`` defaults to a range partition into
    ``min(plan.shards, n, MAX_SHARDS)`` shards, as the sharded executor
    builds it.  ``wall_time_seconds`` is left at zero.
    """
    graph = plan.graph
    protocol = plan.protocols[0]
    compiled = plan.compiled or get_compiled(
        protocol,
        max_states=plan.max_states if plan.max_states is not None else DEFAULT_MAX_STATES,
    )
    initial_states = plan.initial_states()
    initial_codes = compiled.encode(initial_states)
    stable = protocol.is_output_stable_configuration(initial_states, graph)
    if stable or plan.max_steps == 0:
        return [
            SimulationResult(
                stabilized=stable,
                certified_step=0,
                last_output_change_step=0,
                steps_executed=0,
                leaders=compiled.leader_count(initial_codes),
                final_configuration=Configuration(
                    compiled.decode_codes(initial_codes), step=0
                ),
                distinct_states_observed=int(np.unique(initial_codes).size),
            )
            for _ in plan.seeds
        ]
    if partition is None:
        shards = max(1, min(int(plan.shards or 1), graph.n_nodes, MAX_SHARDS))
        partition = PartitionedGraph(graph, shards)
    return [
        _run_replica(plan, protocol, compiled, partition, seed, initial_codes)
        for seed in plan.seeds
    ]


def _run_replica(
    plan, protocol, compiled, partition: PartitionedGraph, seed: Any, initial_codes
) -> SimulationResult:
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
    leaders = int(compiled.leader_count(initial_codes))
    last_change = 0
    step = 0
    stabilized = False
    certified_step = 0
    precheck = bool(getattr(protocol, "certificate_requires_unique_leader", False))
    scalar = compiled.scalar
    scalar_entry = compiled.scalar_entry

    def assemble() -> np.ndarray:
        out = np.empty(graph.n_nodes, dtype=np.int64)
        for s in range(n_shards):
            out[partition.shard_members(s)] = local_codes[s]
        return out

    while not stabilized and step < max_steps:
        chunk = min(check_interval, max_steps - step)
        _, init_shard, init_local, resp_shard, resp_local = routed.next_routed(chunk)
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
        # quiescent, then the precheck-gated certificate.
        exchange.assert_quiescent()
        if precheck and leaders != 1:
            continue
        if protocol.is_output_stable_configuration(
            compiled.decode_codes(assemble()), graph
        ):
            stabilized = True
            certified_step = step

    return SimulationResult(
        stabilized=stabilized,
        certified_step=certified_step if stabilized else step,
        last_output_change_step=last_change,
        steps_executed=step,
        leaders=leaders,
        final_configuration=Configuration(compiled.decode_codes(assemble()), step=step),
        distinct_states_observed=sum(seen),
    )
