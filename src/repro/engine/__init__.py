"""Compiled execution engine for population protocols.

The engine turns a :class:`~repro.core.protocol.PopulationProtocol` whose
transition function is a pure function of the two interacting states into
dense lookup tables (:mod:`repro.engine.compiler`), and then executes
scheduler batches against those tables with three interchangeable, exactly
equivalent backends (:mod:`repro.engine.stepper`):

* ``native`` — a small C kernel compiled on demand with the system C
  compiler and driven through :mod:`ctypes`;
* ``vector`` — NumPy block application with a conflict-splitting pass that
  partitions each 64k-interaction block into node-disjoint segments;
* ``scalar`` — a tight Python loop over integer state codes.

:mod:`repro.engine.replicas` runs R independent replicas of the same
(graph, protocol) pair through one compiled table set — by default as a
replica-batched stack in which one ``repro_run_epoch`` kernel call
advances every replica to its next certificate boundary, drawing each
replica's seeded stream inside the kernel (see
:mod:`repro.runtime.execute`), with an exact sequential fallback when no
C compiler is available.  The experiment harness routes repeated
Monte-Carlo trials through the same execution plans.

All backends reproduce the reference simulator's sequential semantics
bit-for-bit: same scheduler stream, same stabilization step, same output
history.  ``tests/test_engine_equivalence.py`` enforces this for every
bundled protocol.
"""

from .compiler import (
    CompiledProtocol,
    ProtocolCompilationError,
    clear_compilation_cache,
    compilation_worthwhile,
    compile_protocol,
    get_compiled,
)
from .replicas import run_replicas
from .stepper import CompiledRun, available_backends

__all__ = [
    "CompiledProtocol",
    "CompiledRun",
    "ProtocolCompilationError",
    "available_backends",
    "clear_compilation_cache",
    "compilation_worthwhile",
    "compile_protocol",
    "get_compiled",
    "run_replicas",
]
