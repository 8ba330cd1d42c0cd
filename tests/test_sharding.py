"""Differential and structural tests for the sharded graph engine.

The determinism contract of :mod:`repro.sharding` has two halves, both
gated here (and, across process placements, by
``scripts/ci_parallel_equivalence.py``):

* **1-shard == batched** — a plan executed with ``shards=1`` is
  byte-identical to the replica-batched stack (and hence to standalone
  reference runs, by the runtime plan's own invariant) for any seed;
* **k-shard == 1-shard** — cutting the node set into any number of
  shards never changes a measured value, because partitioning decides
  *where* a pair is applied, never *which* pair is drawn.

The structural half pins the partitioner itself: a seeded golden
fixture freezes the hash assignment and the partition fingerprint, so
any drift in the SplitMix64 constants or the rounding rules fails
loudly instead of silently re-routing pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamics import EpochSchedule
from repro.graphs import GraphError, clique, cycle, star, torus
from repro.protocols import StarLeaderElection, TokenLeaderElection
from repro.protocols.identifier import IdentifierLeaderElection
from repro.runtime import compile_plan, execute_plan
from repro.runtime.pairs import directed_tables
from repro.sharding import (
    ExchangeQueue,
    PartitionedGraph,
    ShardedInteractionSource,
    sharded_eligible,
)
from repro.sharding.partition import node_assignment
from repro.sharding.source import ExchangeError

SEED = 20260808  # PR-9 case stream


def result_tuple(result):
    return (
        result.stabilized,
        result.certified_step,
        result.last_output_change_step,
        result.steps_executed,
        result.leaders,
        result.distinct_states_observed,
        tuple(result.final_configuration.states),
    )


_GRAPHS = {
    "clique12": lambda: clique(12),
    "cycle9": lambda: cycle(9),
    "star10": lambda: star(10),
    "torus3x4": lambda: torus(3, 4),
}

_PROTOCOLS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
}


def _plan(graph, protocol_kind, seeds, **kwargs):
    factory = _PROTOCOLS[protocol_kind]
    protocols = [factory(graph) for _ in seeds]
    return compile_plan(protocols, graph, list(seeds), max_steps=5000, **kwargs)


class TestExecutorEquivalence:
    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    @pytest.mark.parametrize("protocol_kind", sorted(_PROTOCOLS))
    def test_one_shard_matches_batched_path(self, graph_kind, protocol_kind):
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + index for index in range(3)]
        batched = [
            result_tuple(r) for r in execute_plan(_plan(graph, protocol_kind, seeds))
        ]
        sharded_plan = _plan(graph, protocol_kind, seeds, shards=1)
        assert sharded_eligible(sharded_plan)
        sharded = [result_tuple(r) for r in execute_plan(sharded_plan)]
        assert sharded == batched

    @pytest.mark.parametrize("k", [2, 4, 7])
    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    def test_k_shards_match_one_shard(self, k, graph_kind):
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + 100 + index for index in range(3)]
        one = [result_tuple(r) for r in execute_plan(_plan(graph, "token", seeds, shards=1))]
        many = [result_tuple(r) for r in execute_plan(_plan(graph, "token", seeds, shards=k))]
        assert many == one

    def test_hash_partition_matches_range_partition(self):
        """The executor result is invariant to the assignment policy."""
        from repro.sharding import execute_sharded

        graph = torus(3, 4)
        seeds = [SEED + 200 + index for index in range(2)]
        plan = _plan(graph, "token", seeds, shards=3)
        by_range = [result_tuple(r) for r in execute_sharded(plan)]
        hashed = PartitionedGraph(graph, 3, mode="hash", seed=7)
        by_hash = [result_tuple(r) for r in execute_sharded(plan, partition=hashed)]
        assert by_hash == by_range

    def test_single_replica_plan(self):
        graph = clique(10)
        seeds = [SEED + 300]
        plain = [result_tuple(r) for r in execute_plan(_plan(graph, "token", seeds))]
        sharded = [result_tuple(r) for r in execute_plan(_plan(graph, "token", seeds, shards=3))]
        assert sharded == plain

    def test_initially_stable_and_zero_budget(self):
        graph = star(8)
        seeds = [SEED + 400, SEED + 401]
        # StarLeaderElection stabilizes from the initial configuration on
        # a star; also pin the max_steps=0 branch with token.
        protocols = [StarLeaderElection() for _ in seeds]
        base = compile_plan(protocols, graph, seeds, max_steps=5000)
        shard = compile_plan(protocols, graph, seeds, max_steps=5000, shards=2)
        assert [result_tuple(r) for r in execute_plan(shard)] == [
            result_tuple(r) for r in execute_plan(base)
        ]
        tokens = [TokenLeaderElection() for _ in seeds]
        base0 = compile_plan(tokens, graph, seeds, max_steps=0)
        shard0 = compile_plan(tokens, graph, seeds, max_steps=0, shards=2)
        assert [result_tuple(r) for r in execute_plan(shard0)] == [
            result_tuple(r) for r in execute_plan(base0)
        ]


class TestFallbackChain:
    def test_dynamic_schedule_is_ineligible_and_identical(self):
        """A time-varying topology drops the plan to the standard chain."""
        graph = cycle(12)
        schedule = EpochSchedule([(graph, 64), (star(12), 64)], repeat=True)
        seeds = [SEED + 500, SEED + 501]
        tokens = [TokenLeaderElection() for _ in seeds]
        base = compile_plan(tokens, graph, seeds, max_steps=3000, schedule=schedule)
        shard = compile_plan(
            tokens, graph, seeds, max_steps=3000, schedule=schedule, shards=4
        )
        assert not sharded_eligible(shard)
        assert [result_tuple(r) for r in execute_plan(shard)] == [
            result_tuple(r) for r in execute_plan(base)
        ]

    def test_disable_env_var_falls_back(self, monkeypatch):
        graph = clique(10)
        seeds = [SEED + 600, SEED + 601]
        plan = _plan(graph, "token", seeds, shards=4)
        monkeypatch.setenv("REPRO_DISABLE_SHARDING", "1")
        assert not sharded_eligible(plan)
        disabled = [result_tuple(r) for r in execute_plan(plan)]
        monkeypatch.delenv("REPRO_DISABLE_SHARDING")
        assert sharded_eligible(plan)
        assert [result_tuple(r) for r in execute_plan(plan)] == disabled

    def test_reference_engine_is_ineligible(self):
        graph = cycle(8)
        seeds = [SEED + 700, SEED + 701]
        tokens = [TokenLeaderElection() for _ in seeds]
        plan = compile_plan(
            tokens, graph, seeds, max_steps=2000, engine="reference", shards=2
        )
        assert not sharded_eligible(plan)
        execute_plan(plan)  # must run through the reference path, not raise


class TestPartitionStructure:
    def test_golden_hash_fixture(self):
        """Seeded hash assignment + fingerprint, frozen at PR 9.

        If this fails, the partitioner's output changed — which silently
        re-routes every boundary pair.  Do not update the constants
        without bumping the fingerprint header version.
        """
        assignment = node_assignment(24, 4, mode="hash", seed=2022)
        assert assignment.tolist() == [
            2, 3, 3, 2, 2, 0, 0, 2, 0, 3, 3, 3,
            0, 0, 3, 2, 3, 3, 3, 1, 0, 3, 1, 2,
        ]
        partition = PartitionedGraph(cycle(24), 4, mode="hash", seed=2022)
        assert partition.fingerprint == (
            "cd2282a03afe75ca00ef52e3d630de2a019ae9481151e0b72c1bac81a3b8a919"
        )
        assert partition.shard_sizes.tolist() == [6, 2, 6, 10]
        assert partition.boundary_pair_count() == 30

    def test_range_assignment_is_contiguous_and_balanced(self):
        assignment = node_assignment(10, 3, mode="range")
        assert assignment.tolist() == [0, 0, 0, 0, 1, 1, 1, 2, 2, 2]
        counts = np.bincount(assignment, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_fingerprint_distinguishes_layouts(self):
        graph = cycle(24)
        fingerprints = {
            PartitionedGraph(graph, 4, mode="range").fingerprint,
            PartitionedGraph(graph, 3, mode="range").fingerprint,
            PartitionedGraph(graph, 4, mode="hash", seed=1).fingerprint,
            PartitionedGraph(graph, 4, mode="hash", seed=2).fingerprint,
        }
        assert len(fingerprints) == 4

    def test_routing_tables_match_directed_tables(self):
        """Every pair index routes to exactly the endpoint the scheduler
        dialect assigns it (initiator = du[r], responder = dv[r])."""
        graph = torus(3, 4)
        partition = PartitionedGraph(graph, 3, mode="hash", seed=5)
        du, dv = directed_tables(graph)
        for r in range(2 * graph.n_edges):
            u, v = int(du[r]), int(dv[r])
            assert partition.pair_init_shard[r] == partition.assignment[u]
            assert partition.pair_resp_shard[r] == partition.assignment[v]
            members_u = partition.shard_members(int(partition.assignment[u]))
            members_v = partition.shard_members(int(partition.assignment[v]))
            assert members_u[int(partition.pair_init_local[r])] == u
            assert members_v[int(partition.pair_resp_local[r])] == v

    def test_shard_csr_unions_to_the_graph(self):
        graph = torus(3, 4)
        partition = PartitionedGraph(graph, 4, mode="hash", seed=9)
        seen_edges = set()
        for s in range(partition.n_shards):
            members = partition.shard_members(s)
            indptr, indices = partition.shard_csr(s)
            assert indptr.shape[0] == members.size + 1
            for local, node in enumerate(members.tolist()):
                neighbors = indices[indptr[local] : indptr[local + 1]].tolist()
                assert neighbors == list(graph.neighbors(node))
                seen_edges.update(
                    (min(node, w), max(node, w)) for w in neighbors
                )
        assert len(seen_edges) == graph.n_edges

    def test_validation_errors(self):
        with pytest.raises(GraphError, match="partition mode"):
            node_assignment(10, 2, mode="bogus")
        with pytest.raises(GraphError, match="shards"):
            node_assignment(10, 0)
        with pytest.raises(GraphError, match="shards"):
            node_assignment(10, 11)
        with pytest.raises(GraphError, match="edgeless"):
            PartitionedGraph(clique(1), 1)

    def test_spool_dir_override(self, tmp_path):
        partition = PartitionedGraph(cycle(8), 2, spool_dir=tmp_path / "spool")
        assert (tmp_path / "spool").is_dir()
        assert any((tmp_path / "spool").iterdir())
        assert partition._finalizer is None  # caller owns the directory


class TestExchangeQueue:
    def test_fifo_and_stats(self):
        queue = ExchangeQueue(3)
        queue.post(0, 2, (1, 4))
        queue.post(0, 2, (2, 5))
        assert queue.in_flight == 2
        assert queue.deliver(0, 2) == (1, 4)
        assert queue.deliver(0, 2) == (2, 5)
        assert queue.in_flight == 0
        assert queue.posted[0, 2] == 2
        assert queue.delivered[0, 2] == 2
        queue.assert_quiescent()

    def test_empty_delivery_raises(self):
        queue = ExchangeQueue(2)
        with pytest.raises(ExchangeError, match="empty channel"):
            queue.deliver(0, 1)

    def test_quiescence_violation_names_the_channel(self):
        queue = ExchangeQueue(2)
        queue.post(1, 0, (0, 0))
        with pytest.raises(ExchangeError, match="not quiescent"):
            queue.assert_quiescent()

    def test_boundary_traffic_is_accounted(self):
        """A sharded run's exchange volume equals its boundary-pair draws."""
        from repro.core.scheduler import RandomScheduler

        graph = cycle(16)
        partition = PartitionedGraph(graph, 4, mode="range")
        routed = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED), partition
        )
        _, init_shard, _, resp_shard, _ = routed.next_routed(512)
        crossings = int((init_shard != resp_shard).sum())
        assert crossings > 0  # a 4-cut cycle always has boundary edges
        queue = ExchangeQueue(4)
        for src, dst in zip(init_shard.tolist(), resp_shard.tolist()):
            if src != dst:
                queue.post(src, dst, (0, 0))
                queue.deliver(src, dst)
        assert int(queue.posted.sum()) == crossings
        queue.assert_quiescent()


class TestRoutedSource:
    def test_routed_stream_is_the_global_stream(self):
        """Routing must not perturb the seeded draw sequence."""
        from repro.core.scheduler import RandomScheduler

        graph = torus(3, 4)
        plain = RandomScheduler(graph, rng=SEED).next_pair_indices(256)
        routed = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED),
            PartitionedGraph(graph, 3, mode="hash", seed=3),
        )
        indices, *_ = routed.next_routed(256)
        assert (indices == plain).all()


class TestScenarioDial:
    def test_shards_excluded_from_content_hash(self):
        from repro.orchestration import get_scenario

        scenario = get_scenario("table1-clique")
        assert scenario.with_overrides(shards=4).content_hash() == scenario.content_hash()

    def test_torus_million_registered(self):
        from repro.orchestration import get_scenario

        scenario = get_scenario("torus-million")
        scenario.validate()
        assert scenario.sizes == (1_000_000,)
        assert scenario.shards == 8

    def test_unit_plan_wire_round_trip_carries_shards(self):
        from repro.orchestration.runner import (
            build_unit_plans,
            build_work_units,
            unit_plan_from_wire,
            unit_plan_to_wire,
        )
        from repro.orchestration.scenario import Scenario

        scenario = Scenario(
            name="wire-shards",
            workload="cycle",
            sizes=(12,),
            repetitions=2,
            shards=3,
        )
        units = build_work_units(scenario)
        plans = build_unit_plans(scenario, units)
        assert plans and all(plan.shards == 3 for plan in plans)
        for plan in plans:
            assert unit_plan_from_wire(unit_plan_to_wire(plan)) == plan


class TestSpanSchedule:
    """The span schedule: global-endpoint draws in original draw order,
    annotated so that only the boundary events are order-critical."""

    def _twin_sources(self, graph, shards, seed_offset=0):
        from repro.core.scheduler import RandomScheduler

        partition = PartitionedGraph(graph, shards, mode="hash", seed=3)
        routed = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED + seed_offset), partition
        )
        spans = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED + seed_offset), partition
        )
        return routed, spans, partition

    def test_span_schedule_matches_the_routed_twin(self):
        graph = torus(3, 4)
        routed, spans, partition = self._twin_sources(graph, 3)
        _, si, li, sj, lj = routed.next_routed(512)
        block = spans.next_spans(512)

        assert block.size == 512 and block.gu.size == 512
        # Shard annotations agree draw for draw with the memory-mapped
        # routing tables, and the boundary positions are exactly the
        # cross-shard draws.
        assert (block.init_shard == si).all()
        assert (block.resp_shard == sj).all()
        assert block.boundary_pos.tolist() == np.flatnonzero(si != sj).tolist()
        # The global endpoints decode to the same nodes the routing
        # tables localised: shard_members[shard][local] == global id.
        for s in range(partition.n_shards):
            members = partition.shard_members(s)
            mask = si == s
            assert (block.gu[mask] == members[li[mask]]).all()
            mask = sj == s
            assert (block.gv[mask] == members[lj[mask]]).all()

    def test_spans_between_boundaries_are_shard_local(self):
        graph = cycle(24)
        _, spans, _ = self._twin_sources(graph, 4, seed_offset=1)
        block = spans.next_spans(768)
        local = np.ones(768, dtype=bool)
        local[block.boundary_pos] = False
        # Every non-boundary draw has both endpoints on one shard: the
        # stretch between two boundary positions commutes per shard, so
        # it may run as one native call (or fan out across workers).
        assert (block.init_shard[local] == block.resp_shard[local]).all()
        assert block.n_boundary == int((block.init_shard != block.resp_shard).sum())

    def test_single_shard_yields_no_boundaries(self):
        graph = clique(10)
        partition = PartitionedGraph(graph, 1)
        from repro.core.scheduler import RandomScheduler

        source = ShardedInteractionSource(
            RandomScheduler(graph, rng=SEED), partition
        )
        block = source.next_spans(128)
        assert block.n_boundary == 0
        assert (block.init_shard == 0).all()


class TestKernelShardLoops:
    """The kernel-backed shard loop is byte-identical to the per-pair
    Python loop (the PR-9 path, kept behind REPRO_DISABLE_SHARD_KERNEL)."""

    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    @pytest.mark.parametrize("protocol_kind", sorted(_PROTOCOLS))
    def test_kernel_loop_matches_python_loop(
        self, graph_kind, protocol_kind, monkeypatch
    ):
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + 800 + index for index in range(2)]
        plan = _plan(graph, protocol_kind, seeds, shards=4)
        kernel = [result_tuple(r) for r in execute_plan(plan)]
        monkeypatch.setenv("REPRO_DISABLE_SHARD_KERNEL", "1")
        python = [result_tuple(r) for r in execute_plan(plan)]
        assert kernel == python


class TestShardWorkerPool:
    """Byte-identity of the fork-based worker pool for every worker
    count, against both the in-process sharded path and the unsharded
    batched stack (the ISSUE-10 differential suite)."""

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("graph_kind", sorted(_GRAPHS))
    @pytest.mark.parametrize("protocol_kind", sorted(_PROTOCOLS))
    def test_worker_counts_are_byte_identical(self, k, graph_kind, protocol_kind):
        graph = _GRAPHS[graph_kind]()
        seeds = [SEED + 900 + index for index in range(2)]
        batched = [
            result_tuple(r) for r in execute_plan(_plan(graph, protocol_kind, seeds))
        ]
        in_process = [
            result_tuple(r)
            for r in execute_plan(_plan(graph, protocol_kind, seeds, shards=k))
        ]
        assert in_process == batched
        for workers in (0, 2, 4):
            pooled = [
                result_tuple(r)
                for r in execute_plan(
                    _plan(
                        graph, protocol_kind, seeds, shards=k, shard_workers=workers
                    )
                )
            ]
            assert pooled == in_process, (k, graph_kind, protocol_kind, workers)

    def test_pool_requires_complete_tables(self):
        """Lazy-discovery protocols demote to in-process silently (the
        worker pool must never assign state codes concurrently)."""
        from repro.sharding.executor import _maybe_start_pool, _resolve_compiled

        graph = cycle(9)
        seeds = [SEED + 950]
        plan = _plan(graph, "identifier", seeds, shards=3, shard_workers=2)
        compiled = _resolve_compiled(plan)
        assert compiled is not None and not compiled.tables_complete
        partition = PartitionedGraph(graph, 3)
        assert _maybe_start_pool(plan, partition, compiled) is None

    def test_pool_used_when_eligible(self):
        from repro.sharding.executor import _maybe_start_pool, _resolve_compiled

        graph = torus(3, 4)
        seeds = [SEED + 960]
        plan = _plan(graph, "token", seeds, shards=3, shard_workers=2)
        compiled = _resolve_compiled(plan)
        assert compiled is not None and compiled.tables_complete
        partition = PartitionedGraph(graph, 3)
        pool = _maybe_start_pool(plan, partition, compiled)
        assert pool is not None
        try:
            assert pool.n_workers == 2
        finally:
            pool.close()


def _kill_workers_at_chunk(monkeypatch, chunk):
    """Make every shard worker ``os._exit(1)`` on its ``chunk``-th super-step.

    ``ShardWorkerPool`` looks ``_worker_main`` up when it creates each
    process, so the forked workers inherit the patched target; it wraps
    the worker's connection and dies on receiving the ``chunk``-th
    (0-based) ``chunk`` message.
    """
    import os

    import repro.sharding.pool as pool_module

    worker_main = pool_module._worker_main

    class DyingConnection:
        def __init__(self, conn):
            self._conn = conn
            self._chunks = 0

        def send(self, msg):
            self._conn.send(msg)

        def recv(self):
            msg = self._conn.recv()
            if msg[0] == "chunk":
                if self._chunks == chunk:
                    os._exit(1)
                self._chunks += 1
            return msg

    def dying_worker_main(conn, *args):
        worker_main(DyingConnection(conn), *args)

    monkeypatch.setattr(pool_module, "_worker_main", dying_worker_main)


class TestWorkerPoolFailure:
    """Failure paths: a broken or unavailable pool demotes to the
    in-process sharded path byte-identically."""

    def test_disable_env_var_skips_the_pool(self, monkeypatch):
        from repro.sharding.executor import _maybe_start_pool, _resolve_compiled

        graph = torus(3, 4)
        seeds = [SEED + 1000, SEED + 1001]
        plan = _plan(graph, "token", seeds, shards=4, shard_workers=2)
        base = [result_tuple(r) for r in execute_plan(plan)]
        monkeypatch.setenv("REPRO_DISABLE_SHARD_WORKERS", "1")
        compiled = _resolve_compiled(plan)
        assert _maybe_start_pool(plan, PartitionedGraph(graph, 4), compiled) is None
        disabled = [result_tuple(r) for r in execute_plan(plan)]
        assert disabled == base

    def test_worker_killed_mid_super_step_demotes_identically(self, monkeypatch):
        graph = torus(3, 4)
        seeds = [SEED + 1100 + index for index in range(3)]
        base = [
            result_tuple(r)
            for r in execute_plan(_plan(graph, "token", seeds, shards=4))
        ]
        # Every worker os._exit(1)s at the start of its third super-step:
        # the parent sees the dead pipe mid-chunk, closes the pool and
        # reruns the replica (and all later ones) in-process.
        _kill_workers_at_chunk(monkeypatch, 2)
        killed = [
            result_tuple(r)
            for r in execute_plan(
                _plan(graph, "token", seeds, shards=4, shard_workers=2)
            )
        ]
        assert killed == base

    def test_worker_killed_immediately_demotes_identically(self, monkeypatch):
        graph = cycle(16)
        seeds = [SEED + 1200]
        base = [
            result_tuple(r)
            for r in execute_plan(_plan(graph, "token", seeds, shards=4))
        ]
        _kill_workers_at_chunk(monkeypatch, 0)
        killed = [
            result_tuple(r)
            for r in execute_plan(
                _plan(graph, "token", seeds, shards=4, shard_workers=4)
            )
        ]
        assert killed == base


class TestPerReplicaTiming:
    """wall_time_seconds is measured per replica, never smeared."""

    def _tick(self, monkeypatch):
        import itertools

        import repro.sharding.executor as executor_module

        counter = itertools.count()
        monkeypatch.setattr(
            executor_module.time, "perf_counter", lambda: float(next(counter))
        )

    def test_each_replica_times_itself(self, monkeypatch):
        from repro.sharding import execute_sharded

        graph = torus(3, 4)
        seeds = [SEED + 1300 + index for index in range(3)]
        plan = _plan(graph, "token", seeds, shards=3)
        self._tick(monkeypatch)
        results = execute_sharded(plan)
        # The fake clock advances 1.0 per call; each replica makes
        # exactly one start/end pair, so a smeared wall (total / 3)
        # would read ~1.67 while per-replica timing reads exactly 1.0.
        assert [r.wall_time_seconds for r in results] == [1.0, 1.0, 1.0]

    def test_initially_stable_replicas_time_individually(self, monkeypatch):
        from repro.sharding import execute_sharded

        graph = star(8)
        seeds = [SEED + 1400, SEED + 1401]
        protocols = [StarLeaderElection() for _ in seeds]
        plan = compile_plan(protocols, graph, seeds, max_steps=5000, shards=2)
        self._tick(monkeypatch)
        results = execute_sharded(plan)
        assert [r.wall_time_seconds for r in results] == [1.0, 1.0]


class TestShardStats:
    """Opt-in per-shard observability (never part of canonical records)."""

    def test_stats_absent_by_default(self):
        graph = torus(3, 4)
        plan = _plan(graph, "token", [SEED + 1500], shards=3)
        (result,) = execute_plan(plan)
        assert result.shard_stats is None

    def test_stats_shape_and_accounting(self):
        graph = torus(3, 4)
        plan = _plan(
            graph, "token", [SEED + 1500], shards=3, collect_shard_stats=True
        )
        (result,) = execute_plan(plan)
        stats = result.shard_stats
        assert stats is not None
        assert stats["path"] == "kernel"
        assert stats["shards"] == 3
        assert stats["workers"] == 0
        assert len(stats["steps_applied"]) == 3
        # Every local draw counts once, every boundary draw once per
        # touched shard; local + boundary = total steps executed.
        assert (
            sum(stats["steps_applied"])
            == result.steps_executed + stats["boundary_pairs"]
        )
        assert stats["boundary_pairs"] > 0
        # The histogram buckets all local runs, and the exchange drained.
        local_draws = result.steps_executed - stats["boundary_pairs"]
        histogram = {int(k): v for k, v in stats["run_length_histogram"].items()}
        assert sum(length * count for length, count in histogram.items()) <= local_draws
        assert all(length & (length - 1) == 0 for length in histogram)
        assert stats["exchange_posted"] == stats["exchange_delivered"]
        assert stats["exchange_in_flight"] == 0

    def test_pool_stats_report_the_pool_path(self):
        graph = torus(3, 4)
        plan = _plan(
            graph,
            "token",
            [SEED + 1500],
            shards=3,
            shard_workers=2,
            collect_shard_stats=True,
        )
        (result,) = execute_plan(plan)
        baseline = execute_plan(
            _plan(graph, "token", [SEED + 1500], shards=3, collect_shard_stats=True)
        )[0]
        assert result.shard_stats["path"] == "pool"
        assert result.shard_stats["workers"] == 2
        # The schedule — hence the stats — is placement-invariant.
        for key in ("steps_applied", "boundary_pairs", "run_length_histogram"):
            assert result.shard_stats[key] == baseline.shard_stats[key]

    def test_stats_excluded_from_trial_records(self):
        from repro.experiments.harness import trial_record_from_result

        graph = torus(3, 4)
        plan = _plan(
            graph, "token", [SEED + 1500], shards=3, collect_shard_stats=True
        )
        (result,) = execute_plan(plan)
        record = trial_record_from_result(result)
        assert "shard_stats" not in record


class TestShardWorkersDial:
    def test_shard_workers_excluded_from_content_hash(self):
        from repro.orchestration import get_scenario

        scenario = get_scenario("table1-clique")
        assert (
            scenario.with_overrides(shards=4, shard_workers=4).content_hash()
            == scenario.content_hash()
        )

    def test_negative_shard_workers_rejected(self):
        from repro.orchestration.scenario import Scenario, ScenarioError

        with pytest.raises(ScenarioError, match="shard_workers"):
            Scenario(
                name="bad-workers",
                workload="cycle",
                sizes=(12,),
                shard_workers=-1,
            )
        with pytest.raises(ValueError, match="shard_workers"):
            compile_plan(
                [TokenLeaderElection()],
                cycle(8),
                [SEED],
                max_steps=100,
                shard_workers=-2,
            )

    def test_unit_plan_wire_round_trip_carries_shard_workers(self):
        from repro.orchestration.runner import (
            build_unit_plans,
            build_work_units,
            unit_plan_from_wire,
            unit_plan_to_wire,
        )
        from repro.orchestration.scenario import Scenario

        scenario = Scenario(
            name="wire-shard-workers",
            workload="cycle",
            sizes=(12,),
            repetitions=2,
            shards=3,
            shard_workers=2,
        )
        units = build_work_units(scenario)
        plans = build_unit_plans(scenario, units)
        assert plans and all(plan.shard_workers == 2 for plan in plans)
        for plan in plans:
            assert unit_plan_from_wire(unit_plan_to_wire(plan)) == plan
