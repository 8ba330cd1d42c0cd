"""Tests for the replica-batched Monte-Carlo analytics engine.

The engine's contract (see :mod:`repro.analytics`):

* **width invariance** — every batched estimator returns bit-identical
  values for replica-batch widths 1, 3 and R;
* **path invariance** — the epoch C kernels, the vectorized
  NumPy blocks and the scalar loops compute identical results;
* **seed purity** — a batched trajectory equals the standalone
  single-trajectory run with the same child seed;
* **distributional fidelity** — batched estimator means match the exact
  linear-algebra values / the pre-refactor trajectory-serial estimator's
  distribution on a seeded grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import (
    run_epidemic_batch,
    run_influence_batch,
    run_hitting_batch,
)
from repro.analytics.estimators import broadcast_trajectory_seed
from repro.core.scheduler import RandomScheduler
from repro.engine.native import get_broadcast_epoch_kernel, reset_kernel_cache
from repro.graphs import Graph, clique, cycle, path, star, torus
from repro.propagation import (
    broadcast_time_estimate,
    expected_broadcast_time_from,
    full_information_time,
    single_source_broadcast_steps,
)
from repro.propagation.broadcast import default_broadcast_budget
from repro.propagation.influence import InfluenceProcess
from repro.walks import (
    exact_meeting_times,
    population_hitting_times_to,
    simulate_meeting_times,
    simulate_population_hitting_times,
)


@pytest.fixture
def no_native(monkeypatch):
    """Run the engine on its NumPy/scalar fallbacks."""
    monkeypatch.setenv("REPRO_DISABLE_NATIVE", "1")
    reset_kernel_cache()
    yield
    monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
    reset_kernel_cache()


class TestWidthInvariance:
    """Bit-identical results for replica-batch widths 1, 3 and R."""

    def test_broadcast_time_estimate(self):
        g = cycle(20)
        full = broadcast_time_estimate(g, repetitions=4, rng=0)
        for width in (1, 3):
            other = broadcast_time_estimate(g, repetitions=4, rng=0, replica_batch=width)
            assert other.per_source == full.per_source
            assert other.value == full.value

    def test_expected_broadcast_time_from(self):
        g = torus(4, 4)
        full = expected_broadcast_time_from(g, 3, repetitions=6, rng=1)
        for width in (1, 3):
            other = expected_broadcast_time_from(
                g, 3, repetitions=6, rng=1, replica_batch=width
            )
            assert other == full

    def test_full_information_time(self):
        g = clique(10)
        full = full_information_time(g, repetitions=5, rng=2)
        for width in (1, 3):
            assert full_information_time(g, repetitions=5, rng=2, replica_batch=width) == full

    def test_hitting_and_meeting_times(self):
        g = cycle(8)
        pairs = [(3, 0)] * 9
        full = simulate_population_hitting_times(g, pairs, rng=3)
        for width in (1, 3):
            assert (
                simulate_population_hitting_times(g, pairs, rng=3, replica_batch=width)
                == full
            ).all()
        mpairs = [(0, 4)] * 9
        mfull = simulate_meeting_times(g, mpairs, rng=4)
        for width in (1, 3):
            assert (
                simulate_meeting_times(g, mpairs, rng=4, replica_batch=width) == mfull
            ).all()

    def test_fallback_widths_match_native(self, no_native):
        g = cycle(20)
        native_free = broadcast_time_estimate(g, repetitions=4, rng=0)
        for width in (1, 3):
            other = broadcast_time_estimate(g, repetitions=4, rng=0, replica_batch=width)
            assert other.per_source == native_free.per_source


class TestPathInvariance:
    """C kernel, NumPy block and scalar loop produce identical results."""

    def _epidemic_all_paths(self, stopmasks=None):
        g = torus(5, 5)
        sources = [0, 3, 7, 11, 17, 24, 0, 9]
        seeds = [500 + t for t in range(len(sources))]
        budget = default_broadcast_budget(g)
        native = run_epidemic_batch(g, sources, seeds, budget, stopmasks=stopmasks)
        return g, sources, seeds, budget, native

    def test_epidemic_paths(self, no_native):
        reset_kernel_cache()
        assert get_broadcast_epoch_kernel() is None
        g, sources, seeds, budget, fallback = self._epidemic_all_paths()
        scalar = run_epidemic_batch(g, sources, seeds, budget, replica_batch=2)
        assert fallback.tolist() == scalar.tolist()

    def test_epidemic_native_vs_fallback(self):
        if get_broadcast_epoch_kernel() is None:
            pytest.skip("no C compiler available")
        g, sources, seeds, budget, native = self._epidemic_all_paths()
        reset_kernel_cache()
        import os

        os.environ["REPRO_DISABLE_NATIVE"] = "1"
        try:
            reset_kernel_cache()
            fallback = run_epidemic_batch(g, sources, seeds, budget)
            scalar = run_epidemic_batch(g, sources, seeds, budget, replica_batch=1)
        finally:
            del os.environ["REPRO_DISABLE_NATIVE"]
            reset_kernel_cache()
        assert native.tolist() == fallback.tolist() == scalar.tolist()

    def test_influence_native_vs_fallback(self):
        g = clique(9)
        seeds = [31, 41, 59, 26, 53]
        budget = default_broadcast_budget(g)
        native = run_influence_batch(g, seeds, budget)
        import os

        os.environ["REPRO_DISABLE_NATIVE"] = "1"
        try:
            reset_kernel_cache()
            fallback = run_influence_batch(g, seeds, budget)
            scalar = run_influence_batch(g, seeds, budget, replica_batch=1)
        finally:
            del os.environ["REPRO_DISABLE_NATIVE"]
            reset_kernel_cache()
        assert native.tolist() == fallback.tolist() == scalar.tolist()
        # The packed-bitset engine must agree with a naive frozenset
        # implementation replaying the same trajectory streams.
        reference = [_reference_influence_steps(g, seed, budget) for seed in seeds]
        assert native.tolist() == reference


class TestSeedPurity:
    """A batched trajectory equals the standalone run with its child seed."""

    def test_broadcast_trajectories_replayable(self):
        g = cycle(16)
        base = 1234
        estimate = broadcast_time_estimate(g, repetitions=3, max_sources=4, rng=base)
        for source in estimate.sources:
            replayed = [
                single_source_broadcast_steps(
                    g, source, rng=broadcast_trajectory_seed(base, source, rep)
                )
                for rep in range(3)
            ]
            assert estimate.per_source[source] == pytest.approx(
                sum(replayed) / len(replayed)
            )

    def test_walk_budget_exhaustion_marks_minus_one(self):
        g = cycle(12)
        steps = run_hitting_batch(g, [(0, 6)] * 4, [7, 8, 9, 10], max_steps=2)
        assert (steps == -1).all()

    def test_epidemic_budget_exhaustion(self):
        g = cycle(30)
        steps = run_epidemic_batch(g, [0, 1], [5, 6], max_steps=3)
        assert (steps == -1).all()


class TestDistributionalFidelity:
    """Batched estimators match exact values / the serial estimator's
    distribution on a seeded grid."""

    def test_hitting_times_match_exact(self):
        g = cycle(6)
        exact = population_hitting_times_to(g, 0)[3]
        samples = simulate_population_hitting_times(g, [(3, 0)] * 60, rng=11)
        assert (samples >= 0).all()
        assert float(samples.mean()) == pytest.approx(exact, rel=0.35)

    def test_meeting_times_match_exact(self):
        g = path(4)
        exact = exact_meeting_times(g)[0, 3]
        samples = simulate_meeting_times(g, [(0, 3)] * 60, rng=12)
        assert (samples >= 0).all()
        assert float(samples.mean()) == pytest.approx(exact, rel=0.35)

    def test_broadcast_matches_trajectory_serial_distribution(self):
        """The batched estimator's mean matches the pre-refactor
        trajectory-serial estimator (re-implemented here verbatim) on a
        seeded grid of independent runs."""
        g = clique(16)
        serial_mean = float(
            np.mean([_serial_broadcast_steps(g, 0, seed) for seed in range(40)])
        )
        batched = expected_broadcast_time_from(g, 0, repetitions=40, rng=13)
        assert batched.mean == pytest.approx(serial_mean, rel=0.25)

    def test_full_information_dominates_single_source(self):
        g = clique(12)
        full = full_information_time(g, repetitions=3, rng=14)
        single = expected_broadcast_time_from(g, 0, repetitions=3, rng=14)
        assert full.mean >= single.mean * 0.8


def _reference_influence_steps(graph: Graph, seed: int, max_steps: int) -> int:
    """Naive set-based influence process on one trajectory stream.

    Replays the engine's exact stream/block schedule but tracks influencer
    sets as Python sets and re-scans all of them after every merge — the
    slowest, most obviously correct implementation.
    """
    from repro.analytics import block_size, make_streams

    n = graph.n_nodes
    stream = make_streams(graph, [seed])[0]
    sets = [{v} for v in range(n)]
    everyone = set(range(n))
    consumed = 0
    round_index = 0
    while consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        iu = np.empty(block, dtype=np.int64)
        iv = np.empty(block, dtype=np.int64)
        stream.next_into(iu, iv)
        for i, (u, v) in enumerate(zip(iu.tolist(), iv.tolist()), start=1):
            merged = sets[u] | sets[v]
            sets[u] = merged
            sets[v] = set(merged)
            if all(s == everyone for s in sets):
                return consumed + i
        consumed += block
        round_index += 1
    return -1


def _serial_broadcast_steps(graph: Graph, source: int, seed: int) -> int:
    """The pre-refactor trajectory-serial epidemic loop (reference)."""
    n = graph.n_nodes
    scheduler = RandomScheduler(graph, rng=seed)
    informed = np.zeros(n, dtype=bool)
    informed[source] = True
    informed_count = 1
    step = 0
    while True:
        initiators, responders = scheduler.next_arrays(8192)
        for u, v in zip(initiators.tolist(), responders.tolist()):
            step += 1
            iu, iv = informed[u], informed[v]
            if iu != iv:
                informed[v if iu else u] = True
                informed_count += 1
                if informed_count == n:
                    return step


class TestInfluenceCountFix:
    """run_until_full's incremental fully-informed count is exact."""

    def test_matches_stepwise_scan(self):
        g = star(7)
        seed = 77
        fixed = InfluenceProcess(g, rng=np.random.default_rng(seed))
        steps = fixed.run_until_full(max_steps=100_000)
        # Replay the same stream one interaction at a time and find the
        # first step where a brute-force scan sees every bitset full.
        replay = InfluenceProcess(g, rng=np.random.default_rng(seed))
        full_mask = (1 << g.n_nodes) - 1
        brute = None
        for _ in range(steps + 10):
            replay.advance(1)
            if all(b == full_mask for b in replay._bitsets):
                brute = replay.step
                break
        assert brute == steps

    def test_already_full_returns_current_step(self):
        g = path(2)
        process = InfluenceProcess(g, rng=0)
        first = process.run_until_full(max_steps=100)
        assert first is not None
        assert process.run_until_full(max_steps=100) == process.step
