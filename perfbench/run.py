"""Paper-reproduction ledger: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload paper-repro --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload in turn
    python3 perfbench/run.py --workload all --smoke --seconds 1   # tiny sizes

Each run repeats iterations of one workload for ``--seconds`` seconds and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer metrics of a traced run (see ``perfbench/README.md``).  Lines
before it are for people (every metric with its unit), except the line
starting with :data:`RECORD_PREFIX`: one JSON object with the environment
and the ungated p90 metrics, which ``baseline.py`` keeps.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

import layers
import service
import spec
from tracer import Tracer
from tracer import clock as monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: Hard ceiling on one run, below the 180 s a run may take.
RUN_CEILING_S = 170.0

WORKLOADS = ("paper-repro", "elect-stack", "torus-million", "service-resubmit")

#: End-to-end metrics, as listed in ``BENCHMARK.json``.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("unit_latency_p50_ms", "ms"),
)

#: Printed in the record line and kept in the baseline, but not gated:
#: their run-to-run spread across seeds is too close to, or on the service
#: past, the largest bound allowed (README).
INFORMATIONAL = (
    ("unit_latency_p90_ms", "ms"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
)

#: Start of the line holding ``{"env": ..., "informational": {workload: ...}}``.
RECORD_PREFIX = "# record "

BLAS_THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class SetupError(RuntimeError):
    """The run cannot start: wrong directory or a forbidden environment."""


#: What a failed iteration raises: a crashed or timed-out process, a
#: malformed report, a service error, or a failed output check.
ITERATION_FAILURES = (
    RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired, asyncio.TimeoutError,
)


def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile (q in 1..99), as ``statistics.quantiles`` gives it."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100)[q - 1]


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def check_environment() -> None:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError(f"no program source under {SRC}: run from the root of a checkout")
    dials = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if dials:
        raise SetupError(
            "REPRO_* variables select executor paths; unset them first: " + ", ".join(dials)
        )


def child_environment(work: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(work, "tmp")
    return env


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment_record(prepared: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": prepared.get("numpy"),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "git_commit": git_commit(),
        "native_kernel": prepared.get("native_kernel"),
    }


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
def run_child(args: List[str], env: Dict[str, str], timeout: float) -> Dict[str, Any]:
    """Run ``child.py`` to completion and parse its report (last stdout line)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        env=env, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def iteration_seed(seed: int, index: int) -> int:
    """Every iteration of a run gets its own inputs, all fixed by ``seed``."""
    return seed * 1000 + index


class Run:
    """One benchmark run: iterations of one workload until time is up."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.started = started
        self.work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
        os.makedirs(os.path.join(self.work, "tmp"))
        self.env = child_environment(self.work)
        self.iterations: List[Dict[str, Any]] = []
        self.untraced: List[Dict[str, Any]] = []
        self.warmups: List[Dict[str, Any]] = []
        self.crashed = 0
        self.failed_checks = 0
        self.errors: List[str] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self) -> float:
        return RUN_CEILING_S - (monotonic() - self.started)

    # ---------------------------------------------------------------
    def execute(self) -> None:
        deadline = monotonic() + self.seconds
        durations: List[float] = []
        min_iterations = 1 if (self.smoke or self.trace) else 3
        index = 0
        # Start another iteration only if it should end before the deadline.
        while index < min_iterations or monotonic() + statistics.median(durations) < deadline:
            begin = monotonic()
            seed = iteration_seed(self.seed, index)
            produced: List[Dict[str, Any]] = []
            try:
                if self.trace:
                    if index == 0 and self.workload == "service-resubmit":
                        # The hosted server shares this process's caches: warm
                        # them so both halves of every pair start alike.
                        self.warmups.append(self.iteration(seed, traced=False))
                        produced.append(self.warmups[-1])
                    self.untraced.append(self.iteration(seed, traced=False))
                    produced.append(self.untraced[-1])
                self.iterations.append(self.iteration(seed, traced=self.trace))
                produced.append(self.iterations[-1])
            except ITERATION_FAILURES as error:
                self.crashed += 1
                self.errors.append(f"iteration {index}: {error}")
            for report in produced:
                try:
                    self.check_output(report, index, seed)
                except RuntimeError as error:
                    self.failed_checks += 1
                    self.errors.append(f"iteration {index}: {error}")
            durations.append(monotonic() - begin)
            index += 1
            if self.remaining() < 2 * max(durations):
                break

    def iteration(self, seed: int, traced: bool) -> Dict[str, Any]:
        if self.workload == "service-resubmit":
            return self.service_iteration(seed, traced)
        args = ["--workload", self.workload, "--seed", str(seed), "--trace", str(int(traced)),
                "--work", self.work]
        if self.smoke:
            args.append("--smoke")
        spawned = monotonic()
        report = run_child(args, self.env, self.remaining())
        report["spawned_at"] = spawned
        report["setup_s"] = report["setup_at"] - spawned
        report["wall_s"] = report["t_end"] - spawned
        report["iteration_s"] = report["t_end"] - report["t_start"]
        if traced:
            shutil.copyfile(os.path.join(self.work, "spans.json"),
                            os.path.join(WORK_ROOT, f"spans-{self.workload}.json"))
        return report

    def service_iteration(self, seed: int, traced: bool) -> Dict[str, Any]:
        os.environ["TMPDIR"] = tempfile.tempdir = self.env["TMPDIR"]
        tracer = None
        if traced:
            tracer = Tracer()
            layers.install_probes(tracer)
            layers.install_layers(tracer)
        try:
            report = asyncio.run(service.run_iteration(
                seed, self.work, self.env, self.smoke, hosted=self.trace, tracer=tracer))
        finally:
            if tracer is not None:
                tracer.close()
                tracer.write(os.path.join(WORK_ROOT, f"spans-{self.workload}.json"))
        self.check_service(report, seed)
        return report

    # ---------------------------------------------------------------
    def check_output(self, report: Dict[str, Any], index: int, seed: int) -> None:
        if report.get("errors"):
            raise RuntimeError("; ".join(report["errors"]))
        if self.smoke or seed != spec.DEFAULT_SEED or index != 0:
            return
        expected = spec.DIGESTS[self.workload]
        if report["digest"] != expected:
            raise RuntimeError(f"output digest {report['digest']} != pinned {expected}")

    def check_service(self, report: Dict[str, Any], seed: int) -> None:
        from repro.orchestration import run_scenario

        reference = run_scenario(service.scenario_for(seed, self.smoke), cache=False)
        expected = reference.canonical_json()
        mismatched = sum(result != expected for result in report.pop("results"))
        if mismatched:
            report["errors"].append(f"{mismatched} submit(s) differ from an in-process run")
            report["failed_submits"] = report.get("failed_submits", 0) + mismatched
        report["digest"] = spec.digest(json.dumps(spec.rounded(json.loads(expected)), sort_keys=True))

    # ---------------------------------------------------------------
    def correctness(self) -> Dict[str, int]:
        """Operations attempted and failed: trials, submits, output checks.

        Each iteration's output check is one operation; an iteration that
        crashed counts as one failed operation.
        """
        attempted = self.crashed
        failed = self.crashed + self.failed_checks
        for report in self.iterations + self.untraced + self.warmups:
            attempted += int(report.get("trials", 0)) + 1 + int(report.get("submits", 0))
            failed += int(report.get("failed_trials", 0)) + int(report.get("failed_submits", 0))
        return {"attempted": attempted, "failed": failed}

    def end_to_end(self) -> Dict[str, float]:
        its = self.iterations
        if self.workload == "elect-stack":
            walls = [wall for report in its for wall in report["iteration_walls"]]
        else:
            walls = [report["wall_s"] for report in its]
        units = [s * 1000.0 for report in its for s in report["unit_samples"]]
        requests = [s * 1000.0 for report in its for s in report["request_samples"]]
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(report["setup_s"] for report in its),
            "steps_per_s": sum(r["steps"] for r in its) / sum(r["exec_s"] for r in its),
            "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in its),
            "unit_latency_p50_ms": statistics.median(units),
            "unit_latency_p90_ms": percentile(units, 90),
            "request_p50_ms": statistics.median(requests),
            "request_p90_ms": percentile(requests, 90),
        }

    def per_layer(self) -> Dict[str, float]:
        return layers.per_layer_metrics(
            [report["trace"] for report in self.iterations],
            [report["iteration_s"] for report in self.iterations],
            [report["iteration_s"] for report in self.untraced],
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_workload(
    workload: str, args: argparse.Namespace, started: float, informational: Dict[str, Any]
) -> Dict[str, Any]:
    run = Run(workload, args.seed, args.seconds, bool(args.trace), args.smoke, started)
    try:
        run.execute()
    finally:
        run.close()
    outcome: Dict[str, Any] = {"correct": False, **run.correctness(), "metrics": {}}
    for error in run.errors:
        print(f"# {workload}: {error}")
    if not run.iterations:
        return outcome
    if args.trace:
        units = dict(layers.PER_LAYER)
        values = run.per_layer()
    else:
        units = dict(END_TO_END)
        values = run.end_to_end()
        informational[workload] = {
            name: {"value": values[name], "unit": unit} for name, unit in INFORMATIONAL
        }
        for name, unit in INFORMATIONAL:
            print(f"# {workload} {name} {values[name]:.6g} {unit} (not gated)")
    outcome["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    outcome["correct"] = outcome["failed"] == 0
    for name, metric in outcome["metrics"].items():
        print(f"# {workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"# {workload} failed_frac {outcome['failed']}/{outcome['attempted']}"
          f" = {outcome['failed'] / max(outcome['attempted'], 1):.4g}")
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one iteration")
    args = parser.parse_args(argv)
    started = monotonic()
    try:
        check_environment()
    except SetupError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_ROOT, exist_ok=True)
    prepare_dir = tempfile.mkdtemp(prefix="prepare-", dir=WORK_ROOT)
    try:
        os.makedirs(os.path.join(prepare_dir, "tmp"))
        prepared = run_child(["--workload", "prepare"], child_environment(prepare_dir), 900.0)
    finally:
        shutil.rmtree(prepare_dir, ignore_errors=True)
    informational: Dict[str, Any] = {}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {name: run_workload(name, args, monotonic(), informational) for name in workloads}
    if len(outcomes) == 1:
        result = next(iter(outcomes.values()))
    else:
        result = {
            "correct": all(o["correct"] for o in outcomes.values()),
            "attempted": sum(o["attempted"] for o in outcomes.values()),
            "failed": sum(o["failed"] for o in outcomes.values()),
            "metrics": {f"{w}/{n}": m for w, o in outcomes.items() for n, m in o["metrics"].items()},
        }
    if not result["metrics"]:
        print("error: no iteration completed", file=sys.stderr)
        return 1
    record = {"env": environment_record(prepared), "informational": informational}
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
