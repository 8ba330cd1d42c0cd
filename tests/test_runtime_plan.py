"""Randomized property tests for the execution-plan runtime.

The central invariant of :mod:`repro.runtime`: executing a plan never
changes measured values.  A single-replica :class:`ExecutionPlan` is
bit-identical to the legacy ``Simulator.run`` entry point across the
reference interpreter and every compiled backend (native where
available, vector, scalar), on static and dynamic topologies alike; a
multi-replica plan (the replica-batched stack) is bit-identical to the
same trials run one at a time.  Cases are generated from a fixed master
seed via the package's own SplitMix64 derivation, so the matrix is
reproducible and every assertion message carries enough to replay a
failure in isolation.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.seeds import derive_seed
from repro.core.simulator import Simulator, default_check_interval
from repro.dynamics import EpochSchedule
from repro.engine.native import get_kernel, get_run_epoch_kernel, reset_kernel_cache
from repro.graphs import clique, cycle, star, torus
from repro.graphs.random_graphs import erdos_renyi
from repro.protocols import StarLeaderElection, TokenLeaderElection
from repro.protocols.identifier import IdentifierLeaderElection
from repro.runtime import compile_plan, execute_plan
from repro.runtime.execute import _stack_eligible

MASTER_SEED = 20260728 + 5  # PR-5 case stream, disjoint from the differential suite

_GRAPHS = {
    "clique": lambda n, seed: clique(n),
    "cycle": lambda n, seed: cycle(n),
    "star": lambda n, seed: star(n),
    "torus": lambda n, seed: torus(4, max(n // 4, 3)),
    "gnp": lambda n, seed: erdos_renyi(n, p=0.45, rng=seed),
}

_PROTOCOLS = {
    "token": lambda graph: TokenLeaderElection(),
    "star": lambda graph: StarLeaderElection(),
    "identifier": lambda graph: IdentifierLeaderElection(
        graph.n_nodes, regular=graph.is_regular()
    ),
}


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


def _engine_variants():
    variants = [("reference", "auto"), ("compiled", "vector"), ("compiled", "scalar")]
    if get_kernel() is not None:
        variants.append(("compiled", "native"))
    return variants


def _single_cases():
    cases = []
    index = 0
    for graph_kind in ("clique", "cycle", "star", "gnp"):
        for protocol_kind in ("token", "star"):
            for dynamic in (False, True):
                seed = derive_seed(MASTER_SEED, "plan-single", index)
                cases.append((graph_kind, 10 + (index % 3) * 4, protocol_kind, dynamic, seed))
                index += 1
    for graph_kind, protocol_kind in (("cycle", "identifier"), ("torus", "token")):
        seed = derive_seed(MASTER_SEED, "plan-single", index)
        cases.append((graph_kind, 12, protocol_kind, False, seed))
        index += 1
    return cases


def _case_id(case):
    graph_kind, size, protocol_kind, dynamic, seed = case
    return f"{graph_kind}-n{size}-{protocol_kind}-{'dyn' if dynamic else 'static'}-s{seed % 100000}"


@pytest.mark.parametrize("case", _single_cases(), ids=_case_id)
def test_single_replica_plan_matches_simulator(case):
    """Plan execution ≡ legacy Simulator.run, engine by engine."""
    graph_kind, size, protocol_kind, dynamic, seed = case
    graph = _GRAPHS[graph_kind](size, derive_seed(seed, "graph"))
    schedule = None
    if dynamic:
        schedule = EpochSchedule.from_graphs(
            [graph, cycle(graph.n_nodes)], epoch_length=96, repeat=True
        )
    max_steps = 8000
    for engine, backend in _engine_variants():
        protocol = _PROTOCOLS[protocol_kind](graph)
        plan = compile_plan(
            [protocol],
            graph,
            [seed],
            max_steps=max_steps,
            engine=engine,
            backend=backend,
            schedule=schedule,
        )
        via_plan = _result_tuple(execute_plan(plan)[0])
        protocol = _PROTOCOLS[protocol_kind](graph)
        via_simulator = _result_tuple(
            Simulator(graph, protocol, rng=seed, engine=engine, backend=backend).run(
                max_steps=max_steps, schedule=schedule
            )
        )
        assert via_plan == via_simulator, (
            f"plan/simulator divergence on {_case_id(case)} ({engine}/{backend})\n"
            f"plan:      {via_plan[:6]}\nsimulator: {via_simulator[:6]}"
        )


def _stack_cases():
    cases = []
    for index, (graph_kind, size, protocol_kind) in enumerate(
        [("clique", 21, "token"), ("cycle", 16, "token"), ("star", 14, "star"), ("gnp", 18, "token")]
    ):
        seed = derive_seed(MASTER_SEED, "plan-stack", index)
        cases.append((graph_kind, size, protocol_kind, seed))
    return cases


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="epoch kernel unavailable")
@pytest.mark.parametrize(
    "case", _stack_cases(), ids=lambda c: f"{c[0]}-n{c[1]}-{c[2]}-s{c[3] % 100000}"
)
def test_replica_stack_matches_per_trial_runs(case):
    """The batched stack ≡ one Simulator.run per seed, field for field."""
    graph_kind, size, protocol_kind, seed = case
    graph = _GRAPHS[graph_kind](size, derive_seed(seed, "graph"))
    protocol = _PROTOCOLS[protocol_kind](graph)
    seeds = [derive_seed(seed, "replica", r) for r in range(9)]
    max_steps = 60_000
    plan = compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=max_steps, engine="compiled"
    )
    assert plan.mode == "shared"
    stacked = execute_plan(plan)
    for replica_seed, result in zip(seeds, stacked):
        single = Simulator(graph, protocol, rng=replica_seed, engine="compiled").run(
            max_steps=max_steps
        )
        assert _result_tuple(result) == _result_tuple(single), (
            f"stack divergence on seed {replica_seed} of {_case_id((graph_kind, size, protocol_kind, False, seed))}"
        )


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="epoch kernel unavailable")
def test_stack_handles_lazily_compiled_tables():
    """Miss-resume: protocols without eager tables stay exact in the stack."""
    graph = cycle(12)
    protocol = IdentifierLeaderElection(graph.n_nodes, regular=True)
    seeds = list(range(6))
    max_steps = 40_000
    plan = compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=max_steps, engine="compiled"
    )
    assert plan.mode == "shared"
    stacked = execute_plan(plan)
    for replica_seed, result in zip(seeds, stacked):
        single = Simulator(graph, protocol, rng=replica_seed, engine="compiled").run(
            max_steps=max_steps
        )
        assert _result_tuple(result) == _result_tuple(single)


def test_custom_check_interval_flows_through_the_plan():
    graph = clique(12)
    protocol = TokenLeaderElection()
    plan = compile_plan(
        [protocol], graph, [7], max_steps=5000, engine="compiled", check_interval=97
    )
    via_plan = _result_tuple(execute_plan(plan)[0])
    via_simulator = _result_tuple(
        Simulator(graph, protocol, rng=7, engine="compiled").run(
            max_steps=5000, check_interval=97
        )
    )
    assert via_plan == via_simulator


def test_plan_resolution_modes():
    graph = clique(10)
    token = TokenLeaderElection()
    plan = compile_plan([token] * 3, graph, [0, 1, 2], max_steps=100, engine="reference")
    assert plan.mode == "reference" and plan.compiled is None
    plan = compile_plan([token] * 3, graph, [0, 1, 2], max_steps=100, engine="compiled")
    assert plan.mode == "shared" and plan.compiled is not None
    assert plan.check_interval == default_check_interval(graph)
    # Heterogeneous compile keys fall back to per-replica resolution.
    hetero = [TokenLeaderElection(), StarLeaderElection(), TokenLeaderElection()]
    plan = compile_plan(hetero, graph, [0, 1, 2], max_steps=100, engine="auto")
    assert plan.mode == "single"


def test_plan_validation_errors():
    graph = clique(6)
    token = TokenLeaderElection()
    with pytest.raises(ValueError):
        compile_plan([], graph, [], max_steps=10)
    with pytest.raises(ValueError):
        compile_plan([token], graph, [0, 1], max_steps=10)
    with pytest.raises(ValueError):
        compile_plan([token], graph, [0], max_steps=-1)
    with pytest.raises(ValueError):
        compile_plan([token], graph, [0], max_steps=10, engine="warp")
    with pytest.raises(ValueError):
        compile_plan([token], graph, [0], max_steps=10, replica_mode="warp")


# ----------------------------------------------------------------------
# Stack eligibility and the epoch stack → per-replica fallback chain
# ----------------------------------------------------------------------
def _chain_plan():
    graph = clique(15)
    protocol = TokenLeaderElection()
    seeds = [derive_seed(MASTER_SEED, "chain", r) for r in range(7)]
    return compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=50_000, engine="compiled"
    )


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="epoch kernel unavailable")
def test_stack_requires_kernel_seedable_seeds():
    """Seeds the kernel cannot reproduce send the plan replica by replica.

    A >64-bit integer and live PCG64 Generators both take the per-replica
    path; results match standalone runs field for field, and each caller
    Generator ends in the state a standalone run leaves it in.
    """
    graph = clique(12)
    protocol = TokenLeaderElection()
    max_steps = 50_000
    seeds = [3, 2**64 + 5, 11]  # >64-bit entropy: NumPy-only seeding
    plan = compile_plan(
        [protocol] * len(seeds), graph, seeds, max_steps=max_steps, engine="compiled"
    )
    assert plan.mode == "shared" and not _stack_eligible(plan)
    for replica_seed, result in zip(seeds, execute_plan(plan)):
        single = Simulator(graph, protocol, rng=replica_seed, engine="compiled").run(
            max_steps=max_steps
        )
        assert _result_tuple(result) == _result_tuple(single)

    entropy = [derive_seed(MASTER_SEED, "generator", r) for r in range(4)]
    generators = [np.random.Generator(np.random.PCG64(e)) for e in entropy]
    plan = compile_plan(
        [protocol] * len(generators), graph, generators, max_steps=max_steps, engine="compiled"
    )
    assert plan.mode == "shared" and not _stack_eligible(plan)
    results = execute_plan(plan)
    for e, generator, result in zip(entropy, generators, results):
        standalone = np.random.Generator(np.random.PCG64(e))
        single = Simulator(graph, protocol, rng=standalone, engine="compiled").run(
            max_steps=max_steps
        )
        assert _result_tuple(result) == _result_tuple(single)
        assert generator.bit_generator.state == standalone.bit_generator.state


@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="epoch kernel unavailable")
def test_fallback_chain_simulated_missing_kernels():
    """Losing the native kernel never changes measured values.

    ``REPRO_DISABLE_NATIVE`` plus a cache reset simulates no native
    kernel at all: the epoch stack declines and the per-replica NumPy
    backends serve the plan.
    """
    plan = _chain_plan()
    assert _stack_eligible(plan)
    baseline = [_result_tuple(r) for r in execute_plan(plan)]
    try:
        os.environ["REPRO_DISABLE_NATIVE"] = "1"
        reset_kernel_cache()
        plan = _chain_plan()
        assert get_run_epoch_kernel() is None and not _stack_eligible(plan)
        via_numpy = [_result_tuple(r) for r in execute_plan(plan)]
        assert via_numpy == baseline, "stack→NumPy fallback changed results"
    finally:
        os.environ.pop("REPRO_DISABLE_NATIVE", None)
        reset_kernel_cache()
    assert get_run_epoch_kernel() is not None  # chain restored for later tests


def test_wall_time_is_reported_per_replica():
    graph = clique(16)
    protocol = TokenLeaderElection()
    plan = compile_plan([protocol] * 4, graph, list(range(4)), max_steps=50_000, engine="compiled")
    results = execute_plan(plan)
    assert all(result.wall_time_seconds > 0.0 for result in results)
