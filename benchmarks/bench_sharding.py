"""Experiment SHARDING: capacity *and* throughput gates for the sharded engine.

The sharded engine makes two claims, both gated here:

**Capacity** — per-shard CSR blocks and the ``[0, 2m)`` routing tables
live in memory-mapped spool files, so a sparse million-node topology
runs without the resident dense endpoint tables (and without ever being
offered the ``(n, n)`` all-pairs distance matrix, which the graph layer
refuses at this size):

* ``test_million_node_torus_under_rss_ceiling`` executes the registered
  ``torus-million`` scenario's workload — a 1000×1000 torus (n = 10^6,
  m = 2·10^6), token protocol, ~150k steps on 8 shards — in a **child
  process** and asserts the child's peak RSS stays under the ceiling.
  A subprocess is mandatory: ``ru_maxrss`` is a process-lifetime
  high-water mark, so measuring in the pytest process would report the
  residue of whatever ran before.  The ceiling defaults to 2048 MB
  (``REPRO_BENCH_RSS_MB`` to tune) and the child reports the partition
  fingerprint, pinning the layout the measurement ran on.

**Throughput** — the span-scheduled kernel loop executes each routed
chunk as one native call (``repro_run_sharded_chunk``: exact draw order,
boundary events included).  Both gates measure it against the per-pair
Python loop in ``tests/shard_oracle.py`` (``run_sharded_oracle``), the
independent reference implementation the sharding tests compare
against:

* ``test_kernel_shard_loop_speedup`` gates the chunk kernel at
  **≥ 3×** the oracle on a 256×256 torus (8 shards, ~0.9 % boundary
  draws), single process, and prints both paths' steps/sec plus the
  opt-in ``shard_stats`` observability (run-length histogram, boundary
  fraction, exchange accounting).
* ``test_kernel_clustered_speedup`` gates the chunk kernel at
  **≥ 1.8×** the oracle on a ring of four bridged 300-cliques — a
  clustered topology whose aligned partition leaves only the bridge
  draws (~0.002 %) crossing shards.

Both throughput tests first assert the kernel's results are
bit-identical to the oracle's — the speedup must never come at the
cost of the seeded-stream contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.engine.native import get_run_sharded_chunk_kernel
from repro.experiments import render_table
from repro.graphs import torus
from repro.protocols import TokenLeaderElection
from repro.runtime import compile_plan
from repro.sharding import PartitionedGraph, execute_sharded, sharded_eligible

from _helpers import run_once
from shard_oracle import run_sharded_oracle

RSS_CEILING_MB = float(os.environ.get("REPRO_BENCH_RSS_MB", "2048"))

_CHILD_SCRIPT = r"""
import json
import resource
import sys
import time

from repro.experiments.harness import default_step_budget, token_protocol_spec
from repro.experiments.workloads import get_workload
from repro.graphs.graph import DENSE_DISTANCE_MATRIX_LIMIT
from repro.runtime import compile_plan, execute_plan
from repro.sharding import PartitionedGraph, sharded_eligible

SIZE = 1_000_000
SHARDS = 8
MULTIPLIER = 1e-8  # the torus-million scenario's step budget

build_start = time.perf_counter()
graph = get_workload("torus").build(SIZE, seed=0)
assert graph.n_nodes == SIZE
assert graph.n_nodes > DENSE_DISTANCE_MATRIX_LIMIT  # the guard is live here
build_seconds = time.perf_counter() - build_start

spec = token_protocol_spec()
protocol = spec.factory(graph, 0)
budget = default_step_budget(graph, multiplier=MULTIPLIER)
plan = compile_plan(
    [protocol], graph, [20260808], max_steps=budget, shards=SHARDS
)
assert sharded_eligible(plan)
partition = PartitionedGraph(graph, SHARDS)

run_start = time.perf_counter()
(result,) = execute_plan(plan)
run_seconds = time.perf_counter() - run_start

peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
json.dump(
    {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "steps": result.steps_executed,
        "stabilized": result.stabilized,
        "leaders": result.leaders,
        "fingerprint": partition.fingerprint,
        "peak_rss_mb": peak_kb / 1024.0,
        "build_seconds": build_seconds,
        "run_seconds": run_seconds,
    },
    sys.stdout,
)
"""


def _run_child() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=900,
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    return json.loads(completed.stdout)


@pytest.mark.benchmark(group="sharding")
def test_million_node_torus_under_rss_ceiling():
    report = _run_child()

    rows = [
        {
            "nodes": report["n_nodes"],
            "edges": report["n_edges"],
            "steps": report["steps"],
            "peak RSS (MB)": f"{report['peak_rss_mb']:.0f}",
            "ceiling (MB)": f"{RSS_CEILING_MB:.0f}",
            "build (s)": f"{report['build_seconds']:.1f}",
            "run (s)": f"{report['run_seconds']:.1f}",
            "partition": report["fingerprint"][:16],
        }
    ]
    print()
    print(render_table(rows, title="Sharded engine: million-node torus"))

    assert report["n_nodes"] == 1_000_000
    assert report["steps"] > 0
    # A ~150k-step prefix cannot elect a leader on a 10^6-node torus;
    # what matters is that the run *executed* inside the memory budget.
    assert not report["stabilized"]
    assert report["peak_rss_mb"] < RSS_CEILING_MB, (
        f"peak RSS {report['peak_rss_mb']:.0f} MB exceeded the "
        f"{RSS_CEILING_MB:.0f} MB ceiling (REPRO_BENCH_RSS_MB to adjust)"
    )


# ----------------------------------------------------------------------
# Throughput gates: the chunk kernel against the per-pair oracle loop
# ----------------------------------------------------------------------
THROUGHPUT_SIDE = 256  # 256x256 torus: n = 65_536, m = 131_072
THROUGHPUT_STEPS = 2_000_000
THROUGHPUT_SHARDS = 8
THROUGHPUT_SEED = 20260808
CLUSTER_CLIQUES = 4  # ring of 4 bridged cliques, one per shard
CLUSTER_CLIQUE_SIZE = 300


def _ring_of_cliques(k, c):
    """``k`` cliques of ``c`` nodes, consecutive cliques bridged — the
    clustered topology whose aligned range partition leaves only the
    bridge draws (~2k/(k·c²) of the pair space) crossing shards."""
    from repro.graphs import Graph

    edges = []
    for i in range(k):
        base = i * c
        edges.extend(
            (base + u, base + v) for u in range(c) for v in range(u + 1, c)
        )
    edges.extend((i * c, ((i + 1) % k) * c) for i in range(k))
    return Graph(k * c, edges, name=f"ring-of-cliques-{k}x{c}")


def _result_tuple(result):
    return (
        result.stabilized,
        result.certified_step,
        result.last_output_change_step,
        result.steps_executed,
        result.leaders,
        result.distinct_states_observed,
        tuple(result.final_configuration.states),
    )


def _throughput_plan(graph, shards, **kwargs):
    plan = compile_plan(
        [TokenLeaderElection()],
        graph,
        [THROUGHPUT_SEED],
        max_steps=THROUGHPUT_STEPS,
        shards=shards,
        **kwargs,
    )
    assert sharded_eligible(plan)
    return plan


def _measure_kernel_and_oracle(graph, shards, rounds=3):
    """(kernel seconds, oracle seconds, kernel result, stats).

    Interleaved min-of-N rounds: transient machine load hits both paths
    alike instead of biasing whichever side ran during it.  ``stats``
    is the kernel path's opt-in shard observability from an extra
    untimed run.
    """

    # One partition for every run: the layout is a pure function of
    # (graph, shards) and costs the same on both paths — the gate is
    # about the execution loop, not the spool build.
    partition = PartitionedGraph(graph, shards)

    def kernel(**kwargs):
        (result,) = execute_sharded(_throughput_plan(graph, shards, **kwargs), partition)
        return result

    def oracle():
        (result,) = run_sharded_oracle(_throughput_plan(graph, shards), partition)
        return result

    # Untimed warm-up: table/kernel compilation and the partition spool
    # land outside the measurement.
    kernel()
    oracle()

    kernel_seconds = float("inf")
    oracle_seconds = float("inf")
    fast = slow = None
    for _ in range(rounds):
        start = time.perf_counter()
        fast = kernel()
        kernel_seconds = min(kernel_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        slow = oracle()
        oracle_seconds = min(oracle_seconds, time.perf_counter() - start)

    # The gate is meaningless unless both paths agree bit for bit.
    assert _result_tuple(fast) == _result_tuple(slow), (
        "chunk kernel diverged from the oracle — determinism contract broken"
    )
    stats = kernel(collect_shard_stats=True).shard_stats
    return kernel_seconds, oracle_seconds, fast, stats


def _print_speedup(title, graph_label, shards, steps, oracle_s, kernel_s):
    print()
    print(
        render_table(
            [
                {
                    "graph": graph_label,
                    "shards": shards,
                    "steps": steps,
                    "oracle s": round(oracle_s, 3),
                    "kernel s": round(kernel_s, 3),
                    "oracle steps/s": f"{steps / oracle_s:,.0f}",
                    "kernel steps/s": f"{steps / kernel_s:,.0f}",
                    "speedup": round(oracle_s / kernel_s, 2),
                }
            ],
            title=title,
        )
    )


def _print_shard_stats(stats):
    histogram = {int(k): v for k, v in stats["run_length_histogram"].items()}
    rows = [
        {
            "shards": stats["shards"],
            "boundary pairs": stats["boundary_pairs"],
            "runs": sum(histogram.values()),
            "run lengths": " ".join(
                f"{length}:{count}" for length, count in sorted(histogram.items())
            ),
            "exchange posted": stats["exchange_posted"],
            "in flight": stats["exchange_in_flight"],
        }
    ]
    print(render_table(rows, title="Shard observability (collect_shard_stats)"))


@pytest.mark.benchmark(group="sharding")
def test_kernel_shard_loop_speedup(benchmark):
    """The chunk kernel must beat the per-pair oracle loop ≥ 3×."""
    if get_run_sharded_chunk_kernel() is None:
        pytest.skip("native chunk kernel unavailable")
    graph = torus(THROUGHPUT_SIDE, THROUGHPUT_SIDE)
    kernel_s, oracle_s, result, stats = run_once(
        benchmark, _measure_kernel_and_oracle, graph, THROUGHPUT_SHARDS
    )
    _print_speedup(
        "SHARDING: chunk kernel vs per-pair oracle loop (torus)",
        f"torus {THROUGHPUT_SIDE}x{THROUGHPUT_SIDE}",
        THROUGHPUT_SHARDS,
        result.steps_executed,
        oracle_s,
        kernel_s,
    )
    _print_shard_stats(stats)
    speedup = oracle_s / kernel_s
    assert speedup >= 3.0, f"speedup {speedup:.2f}x below the 3x gate"


@pytest.mark.benchmark(group="sharding")
def test_kernel_clustered_speedup(benchmark):
    """The chunk kernel must beat the per-pair oracle loop ≥ 1.8× on a
    clustered topology (a ring of four bridged cliques, one per shard),
    where almost every draw is shard-local."""
    if get_run_sharded_chunk_kernel() is None:
        pytest.skip("native chunk kernel unavailable")
    graph = _ring_of_cliques(CLUSTER_CLIQUES, CLUSTER_CLIQUE_SIZE)
    kernel_s, oracle_s, result, stats = run_once(
        benchmark, _measure_kernel_and_oracle, graph, CLUSTER_CLIQUES
    )
    _print_speedup(
        "SHARDING: chunk kernel vs per-pair oracle loop (clustered)",
        graph.name,
        CLUSTER_CLIQUES,
        result.steps_executed,
        oracle_s,
        kernel_s,
    )
    _print_shard_stats(stats)
    speedup = oracle_s / kernel_s
    assert speedup >= 1.8, f"speedup {speedup:.2f}x below the 1.8x gate"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
