"""One iteration of ``service-resubmit``: a fresh job server, one worker,
one cold submit and many warm resubmits of the same scenario.

Untraced, the server is a ``repro-popsim serve`` subprocess.  Traced, the
benchmark hosts :class:`repro.service.server.JobServer` in its own event
loop (no local workers) and the tracer sees the server's frames, store I/O
and aggregation.  The client always runs on a second thread, which the
tracer ignores, so nothing the client encodes, decodes or aggregates is
charged to a layer.  Unit execution stays in the worker processes.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import tempfile
from typing import Any, Dict, List, Optional

import spec
from tracer import Tracer, clock

HERE = os.path.dirname(os.path.abspath(__file__))
STARTUP_TIMEOUT = 60.0
SUBMIT_TIMEOUT = 120.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def scenario_for(seed: int, smoke: bool):
    from repro.orchestration import get_scenario

    scenario = get_scenario(spec.SERVICE_SCENARIO).with_overrides(
        sizes=spec.SERVICE_SIZES, repetitions=spec.SERVICE_REPETITIONS,
        trials_per_shard=spec.SERVICE_TRIALS_PER_UNIT, seed=seed,
    )
    if smoke:
        scenario = scenario.with_overrides(
            sizes=spec.SERVICE_SMOKE["sizes"], repetitions=spec.SERVICE_SMOKE["repetitions"]
        )
    return scenario


async def _wait_port(path: str, server) -> int:
    deadline = clock() + STARTUP_TIMEOUT
    while not os.path.exists(path):
        if server.returncode is not None or clock() > deadline:
            raise RuntimeError("job server did not start")
        await asyncio.sleep(0.005)
    with open(path, encoding="ascii") as handle:
        return int(handle.read())


async def _stop(process, timeout: float = 10.0) -> None:
    try:
        await asyncio.wait_for(process.wait(), timeout)
    except asyncio.TimeoutError:
        with contextlib.suppress(ProcessLookupError):
            process.kill()
        await process.wait()


async def client_session(
    port: int, scenario, resubmits: int, results: List[str]
) -> Dict[str, Any]:
    """One cold submit, then ``resubmits`` warm ones; appends each result to ``results``."""
    from repro.service.client import ServiceClient

    client = ServiceClient("127.0.0.1", port, timeout=SUBMIT_TIMEOUT)
    dispatched: Dict[str, float] = {}
    unit_samples: List[float] = []
    steps = sim_s = trials = failed_trials = 0.0

    def on_event(frame: Dict[str, Any]) -> None:
        nonlocal steps, sim_s, trials, failed_trials
        now = clock()
        if frame.get("state") == "running":
            dispatched[frame["unit"]] = now
        elif frame.get("state") == "done":
            unit_samples.append(now - dispatched[frame["unit"]])
            for record in frame["payload"]["records"]:
                trials += 1
                steps += record["steps_executed"]
                sim_s += record["wall_time_seconds"]
                if not (record["stabilized"] and record["leaders"] == 1):
                    failed_trials += 1

    errors: List[str] = []
    start = clock()
    cold = await client.submit_async(scenario, on_event=on_event)
    wall_s = clock() - start
    results.append(cold.canonical_json())
    if cold.executed_units != cold.total_units:
        errors.append("cold submit was served from a store it should not have")

    request_samples: List[float] = []
    failed_submits = 0
    for _ in range(resubmits):
        start = clock()
        warm = await client.submit_async(scenario)
        request_samples.append(clock() - start)
        results.append(warm.canonical_json())
        if warm.executed_units != 0:
            failed_submits += 1
    return {
        "wall_s": wall_s, "errors": errors, "unit_samples": unit_samples,
        "request_samples": request_samples, "steps": steps, "exec_s": sim_s,
        "trials": trials, "failed_trials": failed_trials, "submits": 1 + resubmits,
        "failed_submits": failed_submits,
    }


async def run_iteration(
    seed: int, work: str, env: Dict[str, str], smoke: bool, hosted: bool,
    tracer: Optional[Tracer] = None,
) -> Dict[str, Any]:
    """Run one iteration and return its measurements and results.

    ``results`` holds the canonical JSON of the cold submit followed by
    every warm resubmit; the caller compares them with an in-process run.
    """
    from repro.service.server import JobServer

    scenario = scenario_for(seed, smoke)
    resubmits = spec.SERVICE_SMOKE["resubmits"] if smoke else spec.SERVICE_RESUBMITS
    store_dir = tempfile.mkdtemp(prefix="store-", dir=work)
    t0 = clock()
    server = process = None
    workers: List[Any] = []
    report: Dict[str, Any] = {"errors": [], "results": []}
    try:
        if hosted:
            server = JobServer(port=0, cache_dir=store_dir)
            _, port = await server.start()
        else:
            port_file = store_dir + ".port"
            process = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--port-file", port_file, "--cache-dir", store_dir,
                env=env, stdout=asyncio.subprocess.DEVNULL,
            )
            port = await _wait_port(port_file, process)
        for _ in range(spec.SERVICE_WORKERS):
            workers.append(await asyncio.create_subprocess_exec(
                sys.executable, os.path.join(HERE, "service_worker.py"), f"127.0.0.1:{port}",
                env=env, stdout=asyncio.subprocess.PIPE,
            ))
        for worker in workers:
            line = await asyncio.wait_for(worker.stdout.readline(), STARTUP_TIMEOUT)
            if line.strip() != b"ready":
                raise RuntimeError("service worker failed its handshake")
        report["setup_s"] = clock() - t0

        # The client runs its own event loop on another thread, so a traced
        # run (which wraps calls on this thread only) sees the server's side.
        report.update(await asyncio.to_thread(
            asyncio.run, client_session(port, scenario, resubmits, report["results"])))
        pids = [worker.pid for worker in workers]
        pids.append(process.pid if process is not None else os.getpid())
        report["peak_rss_mb"] = max(peak_rss_mb(pid) for pid in pids)
    finally:
        if server is not None:
            await server.drain(timeout=30.0)
        if process is not None and process.returncode is None:
            process.send_signal(signal.SIGTERM)
            await _stop(process)
        for worker in workers:
            if server is None and process is None:
                worker.kill()
            await _stop(worker)
    report["iteration_s"] = clock() - t0
    if tracer is not None:
        report["trace"] = tracer.summary()
    return report
