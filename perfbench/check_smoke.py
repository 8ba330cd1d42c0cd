"""Fast checks of the benchmark itself: every workload at tiny sizes.

Run from the root of the repository::

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)


def run_benchmark(*args: str, cwd: str = ROOT, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600,
    )


def smoke_result(trace: int) -> dict:
    done = run_benchmark("--workload", "all", "--smoke", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_end_to_end_metrics_appear_with_their_units():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    metrics = smoke_result(trace=0)["metrics"]
    for workload in WORKLOADS:
        for metric in BENCHMARK["end_to_end"]:
            reported = metrics[f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert reported["value"] > 0, (workload, metric["name"])


def test_per_layer_metrics_appear_and_self_times_add_up():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == layers.PER_LAYER
    metrics = smoke_result(trace=1)["metrics"]
    for workload in WORKLOADS:
        values = {}
        for metric in BENCHMARK["per_layer"]:
            reported = metrics[f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            values[metric["name"]] = reported["value"]
        covered = sum(values[name] for name in layers.SELF_TIME)
        assert covered + values["trace.untraced_s"] == pytest.approx(values["trace.wall_s"])
        assert values["trace.untraced_s"] >= 0


def test_refuses_executor_dials():
    env = dict(os.environ, REPRO_DISABLE_NATIVE="1")
    done = run_benchmark("--workload", "elect-stack", "--seconds", "1", env=env)
    assert done.returncode != 0
    assert done.stdout == ""


def test_fails_without_program_source():
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = run_benchmark("--workload", "paper-repro", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""


def test_self_time_excludes_child_spans():
    module = types.ModuleType("repro_fake")
    tracer = Tracer()

    def inner():
        return 1

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    tracer.wrap(module, "inner", "layer.inner")
    tracer.wrap(module, "outer", "layer.outer")
    with tracer.span("layer.root"):
        assert module.outer() == 2
    tracer.close()
    assert module.inner is inner and module.outer is outer
    assert tracer.calls("layer.inner") == 2 and tracer.calls("layer.outer") == 1
    root_total = tracer.spans[0][2] - tracer.spans[0][1]
    assert tracer.covered_s() == pytest.approx(root_total)
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 1]
