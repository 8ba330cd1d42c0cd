"""Execution plans: compile a run once, execute it anywhere.

An :class:`ExecutionPlan` captures everything needed to execute ``R``
replicas of one ``(protocol, graph, topology schedule)`` workload — the
per-replica scheduler seeds, the resolved engine, the shared compiled
transition tables, the certificate cadence — as one immutable object.
:func:`compile_plan` performs the resolution exactly once; executors
(:mod:`repro.runtime.execute`) then run the plan without re-deriving
anything.

Before this layer existed, the engine-selection logic below lived in
four places with slightly different spellings: ``Simulator.run``
(single runs), ``repro.engine.replicas.run_replicas`` (replica stacks),
``repro.experiments.harness._run_measurement_batch`` (measurements) and
``repro.orchestration.runner`` (sharded sweeps).  All four now call
:func:`compile_plan`; the resolution rules are:

* ``engine="reference"`` — every replica runs the pure-Python
  interpreter (:data:`ExecutionPlan.mode` ``"reference"``).
* ``engine="compiled"`` / ``"auto"`` with **homogeneous** replicas (same
  ``compile_key``, static topology, no stream override, no trace) — one
  table set is compiled up front and shared (``"shared"``); a
  compilation failure raises for ``"compiled"`` and demotes the whole
  plan to the reference interpreter for ``"auto"``, mirroring the
  historical harness behaviour.
* everything else — per-replica resolution at execution time
  (``"single"``), preserving ``Simulator.run``'s lazy-compilation
  semantics including the mid-run fallback to the reference interpreter
  when lazy state discovery outgrows the table bound and the scheduler
  stream is re-creatable from its seed.

Plans never change measured values: for any mode, replica ``i``'s result
is bit-identical to a standalone ``Simulator.run`` with seed
``seeds[i]`` (``tests/test_runtime_plan.py`` pins this property across
engines, backends and topology schedules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Sequence

from ..graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..core.protocol import PopulationProtocol
    from ..dynamics.schedule import TopologySchedule
    from ..engine.compiler import CompiledProtocol

#: Engine choices accepted by :func:`compile_plan` (and ``Simulator``).
ENGINES = ("reference", "compiled", "auto")

#: Replica execution strategies (see :mod:`repro.runtime.execute`).
REPLICA_MODES = ("auto", "lockstep", "sequential")


@dataclass
class ExecutionPlan:
    """A compiled, runnable description of ``R`` replica executions.

    Instances are produced by :func:`compile_plan` and consumed by
    :func:`repro.runtime.execute.execute_plan`; the fields are resolved
    values, not requests (``mode`` instead of a raw engine string,
    ``check_interval`` always concrete, ``compiled`` already built for
    shared-table plans).
    """

    graph: Graph
    protocols: List["PopulationProtocol"]
    seeds: List[Any]
    max_steps: int
    engine: str
    backend: str
    check_interval: int
    mode: str  # "reference" | "shared" | "single"
    schedule: Optional["TopologySchedule"] = None
    inputs: Optional[Sequence[Any]] = None
    max_states: Optional[int] = None
    compiled: Optional["CompiledProtocol"] = None
    scheduler: Optional[Any] = None  # single-replica stream override (replay)
    record_leader_trace: bool = False
    trace_resolution: int = 64
    replica_mode: str = "auto"
    drain_width: int = 0
    #: Replica-axis kernel threads for the replica-batched stack; ``None``
    #: defers to ``REPRO_KERNEL_THREADS`` at execution time.  Purely a
    #: throughput dial — results are bit-identical for any value.
    threads: Optional[int] = None
    #: Shard count for the partitioned executor
    #: (:mod:`repro.sharding`); ``None`` keeps the plan on the batched
    #: stack.  Purely a capacity dial — results are bit-identical for
    #: any value, and ineligible plans fall through unchanged.
    shards: Optional[int] = None
    #: Process count for the sharded executor's fork-based shard-worker
    #: pool; ``None`` or ``0`` runs the shards in-process (the default).
    #: Purely a throughput dial — results are byte-identical for any
    #: value, and an unavailable pool (no fork, incomplete tables, a
    #: killed worker) silently demotes to the in-process sharded path.
    shard_workers: Optional[int] = None
    #: Opt-in per-shard observability: when set, the sharded executor
    #: attaches a ``shard_stats`` dict to every ``SimulationResult``
    #: (excluded from canonical aggregates — it never affects measured
    #: values or cache bytes).
    collect_shard_stats: bool = False
    _initial_states: Optional[List[Any]] = field(default=None, repr=False)

    @property
    def n_replicas(self) -> int:
        return len(self.protocols)

    def initial_states(self) -> List[Any]:
        """The shared initial configuration (built once per plan)."""
        if self._initial_states is None:
            protocol = self.protocols[0]
            n = self.graph.n_nodes
            if self.inputs is None:
                states: List[Any] = [protocol.initial_state(None)] * n
            else:
                if len(self.inputs) != n:
                    raise ValueError("inputs must provide one symbol per node")
                states = [protocol.initial_state(symbol) for symbol in self.inputs]
            self._initial_states = states
        return self._initial_states

    def execute(self) -> List[Any]:
        """Run the plan (see :func:`repro.runtime.execute.execute_plan`)."""
        from .execute import execute_plan

        return execute_plan(self)


def _homogeneous(protocols: Sequence["PopulationProtocol"]) -> bool:
    """Whether all replicas can share one compiled table set."""
    first = protocols[0]
    if all(protocol is first for protocol in protocols):
        return True
    keys = [protocol.compile_key() for protocol in protocols]
    return keys[0] is not None and all(key == keys[0] for key in keys)


def compile_plan(
    protocols: Sequence["PopulationProtocol"],
    graph: Graph,
    seeds: Sequence[Any],
    max_steps: int,
    engine: str = "auto",
    backend: str = "auto",
    check_interval: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
    inputs: Optional[Sequence[Any]] = None,
    max_states: Optional[int] = None,
    scheduler: Optional[Any] = None,
    record_leader_trace: bool = False,
    trace_resolution: int = 64,
    replica_mode: str = "auto",
    drain_width: int = 0,
    threads: Optional[int] = None,
    shards: Optional[int] = None,
    shard_workers: Optional[int] = None,
    collect_shard_stats: bool = False,
) -> ExecutionPlan:
    """Resolve one workload into an :class:`ExecutionPlan`.

    Parameters mirror :meth:`repro.core.simulator.Simulator.run` (single
    replica) and :func:`repro.engine.run_replicas` (stacks); ``seeds``
    supplies one scheduler seed (or generator) per replica and must match
    ``protocols`` in length.  See the module docstring for the engine
    resolution rules.
    """
    protocols = list(protocols)
    seeds = list(seeds)
    if not protocols:
        raise ValueError("a plan needs at least one replica")
    if len(seeds) != len(protocols):
        raise ValueError("need exactly one scheduler seed per replica")
    if max_steps < 0:
        raise ValueError("max_steps must be non-negative")
    if graph.n_nodes < 1:
        raise ValueError("graph must be non-empty")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if replica_mode not in REPLICA_MODES:
        raise ValueError(f"unknown replica mode {replica_mode!r}")
    if threads is not None and int(threads) < 1:
        raise ValueError("threads must be positive")
    if shards is not None and int(shards) < 1:
        raise ValueError("shards must be positive")
    if shard_workers is not None and int(shard_workers) < 0:
        raise ValueError("shard_workers must be non-negative (0 = in-process)")
    if schedule is not None:
        if scheduler is not None:
            raise ValueError("pass either schedule or scheduler, not both")
        if schedule.n_nodes != graph.n_nodes:
            raise ValueError(
                f"schedule universe has {schedule.n_nodes} nodes, "
                f"graph has {graph.n_nodes}"
            )
    if scheduler is not None and len(protocols) > 1:
        raise ValueError("a stream override applies to single-replica plans only")

    if check_interval is None:
        from ..core.simulator import default_check_interval

        check_interval = default_check_interval(graph)
    check_interval = max(1, int(check_interval))

    mode = "single"
    compiled = None
    if engine == "reference":
        mode = "reference"
    elif (
        len(protocols) > 1
        and schedule is None
        and scheduler is None
        and not record_leader_trace
    ):
        from ..engine.compiler import (
            DEFAULT_MAX_STATES,
            ProtocolCompilationError,
            compilation_worthwhile,
            get_compiled,
        )

        worthwhile = engine == "compiled" or compilation_worthwhile(
            protocols[0], max_states
        )
        if worthwhile and _homogeneous(protocols):
            try:
                compiled = get_compiled(
                    protocols[0],
                    max_states=max_states if max_states is not None else DEFAULT_MAX_STATES,
                )
                mode = "shared"
            except ProtocolCompilationError:
                if engine == "compiled":
                    raise
                mode = "reference"

    return ExecutionPlan(
        graph=graph,
        protocols=protocols,
        seeds=seeds,
        max_steps=int(max_steps),
        engine=engine,
        backend=backend,
        check_interval=check_interval,
        mode=mode,
        schedule=schedule,
        inputs=inputs,
        max_states=max_states,
        compiled=compiled,
        scheduler=scheduler,
        record_leader_trace=record_leader_trace,
        trace_resolution=trace_resolution,
        replica_mode=replica_mode,
        drain_width=drain_width,
        threads=None if threads is None else int(threads),
        shards=None if shards is None else int(shards),
        shard_workers=None if shard_workers is None else int(shard_workers),
        collect_shard_stats=bool(collect_shard_stats),
    )
