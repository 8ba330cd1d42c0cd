"""Experiment RUNTIME: batched measurement dispatch vs trial-serial.

The execution-plan runtime routes every harness measurement through the
replica-batched stack by default: all trials of a (protocol, graph) cell
advance together through ``repro_run_epoch`` C-kernel calls, each
trial's seeded stream drawn inside the kernel, and the kernel-maintained
leader counts gating the Python certificate.  This benchmark gates that
path against **trial-serial** dispatch — one ``run_leader_election`` per
trial, the harness's pre-runtime execution plan — on the Table-1
clique-100 workload:

* ``test_batched_measurement_speedup`` (token protocol, 64 trials) must
  show **≥ 3×** with the native kernel.  Without it the stack is
  unavailable and the plan executes trial-sequentially; the gate then
  only requires no regression (≥ 0.7×).
* ``test_fast_protocol_measurement`` adds the fast protocol, whose
  measurement additionally batches all trials' ``B(G)`` epidemics into
  one replica stack (native floor 1.4×).
* ``test_kernel_threaded_speedup`` requires the stack with 4 kernel
  threads to run **≥ 1.6×** faster than with 1; it runs only where 4
  cores exist.

Every test first asserts the faster path's results are **bit-identical**
to the slower ones (wall time aside) — the speedup must never come at
the cost of the seeded-stream contract.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.seeds import trial_seed
from repro.core.simulator import run_leader_election
from repro.engine.native import get_run_epoch_kernel
from repro.experiments import render_table
from repro.experiments.harness import (
    default_step_budget,
    fast_protocol_spec,
    run_measurement_trials,
    token_protocol_spec,
    trial_record_from_result,
)
from repro.graphs import clique
from repro.runtime import compile_plan
from repro.runtime.execute import _execute_stack

from _helpers import run_once

N = 100
BASE_SEED = 0


def _strip_wall(record):
    record = dict(record)
    record.pop("wall_time_seconds", None)
    return record


def _measure_dispatch(spec, repetitions):
    """(batched seconds, serial seconds, batched results, serial results)."""
    graph = clique(N)
    budget = default_step_budget(graph)
    seeds = [trial_seed(BASE_SEED, index) for index in range(repetitions)]

    # Untimed warm-up of both paths: kernel + table compilation and the
    # directed-pair caches land outside the measurement.
    run_measurement_trials(spec, graph, range(2), seed=BASE_SEED, max_steps=budget)
    run_leader_election(
        spec.factory(graph, seeds[0]), graph, rng=seeds[0], max_steps=budget, engine="auto"
    )

    # Interleaved min-of-4 rounds: transient machine load (a noisy CI
    # neighbour, a GC pause) hits both paths alike instead of biasing
    # whichever side happened to run during it.
    batched_seconds = float("inf")
    serial_seconds = float("inf")
    batched = None
    serial = None
    for _ in range(4):
        start = time.perf_counter()
        batched, _ = run_measurement_trials(
            spec, graph, range(repetitions), seed=BASE_SEED, max_steps=budget
        )
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        serial = [
            run_leader_election(
                spec.factory(graph, seed), graph, rng=seed, max_steps=budget, engine="auto"
            )
            for seed in seeds
        ]
        serial_seconds = min(serial_seconds, time.perf_counter() - start)

    # The gate is meaningless unless the two dispatch plans agree bit for
    # bit on every measured value.
    for index, (a, b) in enumerate(zip(batched, serial)):
        assert _strip_wall(trial_record_from_result(a)) == _strip_wall(
            trial_record_from_result(b)
        ), f"trial {index} diverged between batched and trial-serial dispatch"
    return batched_seconds, serial_seconds, batched, serial


def _report_row(report, title, repetitions, batched_s, serial_s, results, native):
    speedup = serial_s / batched_s
    report(
        render_table(
            [
                {
                    "graph": f"clique n={N}",
                    "trials": repetitions,
                    "mean steps": round(
                        sum(r.steps_executed for r in results) / len(results), 1
                    ),
                    "trial-serial s": round(serial_s, 3),
                    "batched s": round(batched_s, 3),
                    "speedup": round(speedup, 2),
                    "path": "C epoch-kernel stack" if native else "sequential fallback",
                }
            ],
            title=title,
        )
    )
    return speedup


@pytest.mark.benchmark(group="runtime-dispatch")
def test_batched_measurement_speedup(benchmark, report):
    """Batched harness measurements must beat trial-serial ≥3× (native)."""
    native = get_run_epoch_kernel() is not None
    batched_s, serial_s, results, _ = run_once(
        benchmark, _measure_dispatch, token_protocol_spec(), 64
    )
    speedup = _report_row(
        report,
        "RUNTIME: batched vs trial-serial measurement dispatch (token, clique n=100)",
        64,
        batched_s,
        serial_s,
        results,
        native,
    )
    floor = 3.0 if native else 0.7
    assert speedup >= floor, f"speedup {speedup:.2f}x below the {floor}x gate"


@pytest.mark.benchmark(group="runtime-dispatch")
def test_fast_protocol_measurement(benchmark, report):
    """Fast protocol: plan batches the trials AND their B(G) epidemics."""
    native = get_run_epoch_kernel() is not None
    batched_s, serial_s, results, _ = run_once(
        benchmark, _measure_dispatch, fast_protocol_spec(), 24
    )
    speedup = _report_row(
        report,
        "RUNTIME: batched vs trial-serial measurement dispatch (fast, clique n=100)",
        24,
        batched_s,
        serial_s,
        results,
        native,
    )
    floor = 1.4 if native else 0.6
    assert speedup >= floor, f"speedup {speedup:.2f}x below the {floor}x gate"


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


def _stack_plan(spec, graph, seeds, budget, threads):
    protocol = spec.factory(graph, seeds[0])
    return compile_plan(
        [protocol] * len(seeds),
        graph,
        seeds,
        max_steps=budget,
        engine="compiled",
        threads=threads,
    )


def _measure_threads(repetitions, threads):
    """(threaded seconds, 1-thread seconds, results) on the Table-1 clique workload."""
    spec = token_protocol_spec()
    graph = clique(N)
    budget = default_step_budget(graph)
    seeds = [trial_seed(BASE_SEED, index) for index in range(repetitions)]

    # Untimed warm-up: kernel + table compilation outside the measurement.
    _execute_stack(_stack_plan(spec, graph, seeds[:2], budget, threads))
    _execute_stack(_stack_plan(spec, graph, seeds[:2], budget, 1))

    threaded_seconds = float("inf")
    single_seconds = float("inf")
    threaded = None
    single = None
    for _ in range(4):
        start = time.perf_counter()
        threaded = _execute_stack(_stack_plan(spec, graph, seeds, budget, threads))
        threaded_seconds = min(threaded_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        single = _execute_stack(_stack_plan(spec, graph, seeds, budget, 1))
        single_seconds = min(single_seconds, time.perf_counter() - start)

    for index, (a, b) in enumerate(zip(threaded, single)):
        assert _result_tuple(a) == _result_tuple(b), (
            f"trial {index} diverged between {threads} kernel threads and 1"
        )
    return threaded_seconds, single_seconds, threaded


@pytest.mark.benchmark(group="runtime-dispatch")
@pytest.mark.skipif(get_run_epoch_kernel() is None, reason="epoch kernel unavailable")
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="threaded gate needs at least 4 cores"
)
def test_kernel_threaded_speedup(benchmark, report):
    """Four kernel threads must beat one ≥1.6× (same results)."""
    threaded_s, single_s, results = run_once(benchmark, _measure_threads, 64, 4)
    speedup = single_s / threaded_s
    report(
        render_table(
            [
                {
                    "graph": f"clique n={N}",
                    "trials": 64,
                    "mean steps": round(
                        sum(r.steps_executed for r in results) / len(results), 1
                    ),
                    "1 thread ms": round(single_s * 1000, 1),
                    "4 threads ms": round(threaded_s * 1000, 1),
                    "speedup": round(speedup, 2),
                }
            ],
            title="RUNTIME: epoch stack, 4 kernel threads vs 1 (token, clique n=100)",
        )
    )
    assert speedup >= 1.6, f"threaded speedup {speedup:.2f}x below the 1.6x gate"
