"""Embarrassingly-parallel replicas of one (graph, protocol) pair.

Monte-Carlo experiments run the same protocol on the same graph many times
with different seeds.  :func:`run_replicas` executes R such replicas as
*one* :class:`~repro.runtime.plan.ExecutionPlan`: the plan compiles the
protocol's transition tables once and the runtime executors
(:mod:`repro.runtime.execute`) run every replica against them — either
through the replica-batched stack, which advances all replicas through
whole epochs per C-kernel call with their seeded streams drawn inside the
kernel, or replica by replica through the compiled single-run engine.
Every replica draws from its own independent scheduler stream, so both
strategies are bit-identical to R separate reference runs with the same
seeds.

Stability certificates are evaluated at the same ``check_interval``
cadence as the reference simulator; in the stacked path a replica whose
certificate fires drops out of the stack (its scheduler stops being
consumed) and the remaining replicas continue.  ``drain_width`` hands
the last few stragglers to the sequential engine mid-run; with the
kernel-blocked stack this is an optimisation knob only — results are
identical for every value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from ..core.protocol import PopulationProtocol
from ..graphs.graph import Graph
from .compiler import DEFAULT_MAX_STATES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.simulator import SimulationResult

#: Historical default for handing lockstep stragglers to the sequential
#: engine.  The kernel-blocked stack no longer needs a wide drain (its
#: per-block overhead is paid once per stack, not per step), so the
#: default plan drains only below this width when ``mode="lockstep"`` is
#: requested explicitly; ``mode="auto"`` never drains.
LOCKSTEP_DRAIN_WIDTH = 24


def run_replicas(
    protocol: PopulationProtocol,
    graph: Graph,
    seeds: Sequence[Any],
    max_steps: int,
    inputs: Optional[Sequence[Any]] = None,
    check_interval: Optional[int] = None,
    mode: str = "auto",
    backend: str = "auto",
    max_states: int = DEFAULT_MAX_STATES,
    drain_width: Optional[int] = None,
    threads: Optional[int] = None,
) -> List["SimulationResult"]:
    """Run one replica per seed; results match the reference runs exactly.

    Parameters
    ----------
    protocol / graph:
        The protocol and interaction graph shared by all replicas.
    seeds:
        One scheduler seed (or generator) per replica.
    max_steps / inputs / check_interval:
        As in :meth:`repro.core.simulator.Simulator.run`.
    mode:
        ``"auto"`` (default) uses the replica-batched stack whenever the
        epoch kernel is available and every seed is kernel-seedable, and
        falls back to sequential execution otherwise; ``"lockstep"``
        requests the stack explicitly (with the historical straggler
        drain); ``"sequential"`` runs replicas one at a time through the
        compiled single-run engine.  All modes are exact — they differ in wall time only.
    backend:
        Backend forwarded to single-replica runs (see
        :class:`~repro.engine.stepper.CompiledRun`).
    drain_width:
        Stack width at or below which remaining replicas are handed to
        the sequential engine (``mode="lockstep"`` defaults to
        :data:`LOCKSTEP_DRAIN_WIDTH`, ``mode="auto"`` to 0).
    threads:
        Replica-axis kernel threads for the replica-batched stack (``None``
        defers to ``REPRO_KERNEL_THREADS``).  Results are bit-identical
        for any value.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    seeds = list(seeds)
    if not seeds:
        return []
    if mode not in ("auto", "lockstep", "sequential"):
        raise ValueError(f"unknown replica mode {mode!r}")
    if drain_width is None:
        drain_width = LOCKSTEP_DRAIN_WIDTH if mode == "lockstep" else 0
    from ..runtime import compile_plan, execute_plan

    plan = compile_plan(
        [protocol] * len(seeds),
        graph,
        seeds,
        max_steps=max_steps,
        engine="compiled",
        backend=backend,
        check_interval=check_interval,
        inputs=inputs,
        max_states=max_states,
        replica_mode=mode,
        drain_width=int(drain_width),
        threads=threads,
    )
    return execute_plan(plan)
