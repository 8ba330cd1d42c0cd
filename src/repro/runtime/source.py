"""The unified interaction sampler behind every seeded pair stream.

:class:`InteractionSource` is the single implementation of buffered
ordered-pair sampling in this package.  ``RandomScheduler`` (static
graphs), ``DynamicScheduler`` (time-varying topologies) and the
analytics trajectory streams are all thin shells over it; before this
module existed each of the three carried its own refill/consume
machinery.

Two seeded *dialects* coexist, both defined here and both preserved bit
for bit:

* the **scheduler dialect** (protocol simulations): refills draw
  ``integers(0, m)`` (a uniform edge) followed by ``integers(0, 2)`` (a
  uniform orientation), in that order, with refill size
  ``max(batch_size, minimum)`` where ``minimum`` is the draws still
  needed by the current call.  The default ``batch_size`` is
  :data:`REFILL_SIZE`; because certificate-cadence blocks never exceed
  it, the refill sequence — and hence every seeded trajectory — is
  independent of how consumers chunk their reads.
* the **directed dialect** (analytics streams): demand-sized single
  draws ``integers(0, 2m)`` straight into the directed pair-index space
  (:mod:`repro.runtime.pairs`), via :meth:`draw_pair_indices`.

On a dynamic topology a refill is **capped at the current epoch
boundary**: a pre-sample buffer never crosses an epoch switch, so every
draw is made — and decoded — against the edge table it will be applied
to.  For a single-epoch schedule no cap ever fires and the stream is
bit-identical to the static one on the same seed.

Internally the buffer holds raw directed pair indices; endpoints are
decoded on consumption through the shared tables.  That lets the
replica-batched executor (:mod:`repro.runtime.execute`) read undecoded
indices with :meth:`next_pair_indices` and leave the decode to the C
kernel, while ``next_batch`` / ``next_arrays`` reproduce the historical
decoded streams exactly.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..graphs.graph import Graph
from ..graphs.random_graphs import RngLike, as_rng
from .pairs import decode_pairs, directed_tables, encode_oriented

#: Pre-sample size per RNG refill in the scheduler dialect.  4096 keeps
#: the sampling fully vectorised while wasting little work on short runs
#: (stabilization-bound executions often need only a few thousand
#: interactions).  The refill size is part of the seeded stream
#: definition — changing it changes every seeded trajectory (last
#: changed from 65536 in the engine PR; see CHANGES.md).  This constant
#: is the single source of truth; ``repro.core.scheduler`` re-exports it
#: for backward compatibility and the orchestrator hashes it into
#: scenario content hashes.
REFILL_SIZE = 4096

Interaction = Tuple[int, int]


class InteractionSource:
    """One seeded ordered-pair stream over a static or dynamic topology.

    Parameters
    ----------
    topology:
        A :class:`~repro.graphs.graph.Graph` (sampled forever) or a
        :class:`~repro.dynamics.schedule.TopologySchedule` (sampled from
        the epoch graph active at the current step; duck-typed so this
        module needs no import of :mod:`repro.dynamics`).
    rng:
        Seed or :class:`numpy.random.Generator` for reproducibility.
    batch_size:
        Scheduler-dialect pre-sample size per refill (see
        :data:`REFILL_SIZE`).
    """

    def __init__(
        self, topology, rng: RngLike = None, batch_size: int = REFILL_SIZE
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._rng = as_rng(rng)
        self._batch_size = int(batch_size)
        self._buffer: np.ndarray = np.zeros(0, dtype=np.int64)
        self._cursor = 0
        self._position = 0
        if isinstance(topology, Graph):
            if topology.n_edges == 0:
                raise ValueError("cannot schedule interactions on an edgeless graph")
            self._schedule = None
            self._epoch_graph: Optional[Graph] = topology
            self._epoch_end: Optional[int] = None
            # Decode tables are built on first *decoded* consumption:
            # undecoded readers (the stack executors' next_pair_indices
            # paths and the sharded engine, which routes raw indices
            # through memory-mapped per-shard tables) never materialise
            # the resident 2m endpoint arrays.
            self._du: Optional[np.ndarray] = None
            self._dv: Optional[np.ndarray] = None
            self._edge_count = topology.n_edges
        else:
            self._schedule = topology
            self._epoch_graph = None
            self._epoch_end = 0  # forces epoch activation on the first refill
            self._du = self._dv = np.zeros(0, dtype=np.int64)
            self._edge_count = 0

    # ------------------------------------------------------------------
    # Stream state
    # ------------------------------------------------------------------
    @property
    def steps_emitted(self) -> int:
        """Total number of interactions handed out so far."""
        return self._position

    @property
    def generator(self) -> np.random.Generator:
        """The underlying seeded Generator (kernel state export/import)."""
        return self._rng

    @property
    def pair_count(self) -> int:
        """Size ``2m`` of the active epoch's directed pair-index space."""
        return 2 * self._edge_count

    @property
    def pair_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The active epoch's directed endpoint tables (kernel decode)."""
        return self._tables()

    def _tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """The decode tables, built lazily on a static topology."""
        if self._du is None:
            assert self._epoch_graph is not None
            self._du, self._dv = directed_tables(self._epoch_graph)
        return self._du, self._dv

    @property
    def active_graph(self) -> Graph:
        """The graph the *next* interaction will be drawn from."""
        if self._schedule is None or self._cursor < self._buffer.shape[0]:
            assert self._epoch_graph is not None
            return self._epoch_graph
        return self._schedule.graph_at(self._position)

    # ------------------------------------------------------------------
    # Refills (the seeded scheduler dialect, defined exactly once)
    # ------------------------------------------------------------------
    def _activate_epoch(self, position: int) -> None:
        schedule = self._schedule
        assert schedule is not None
        index, _, end = schedule.epoch_at(position)
        graph = schedule.epoch_graph(index)
        self._epoch_graph = graph
        self._epoch_end = end
        self._du, self._dv = directed_tables(graph)
        self._edge_count = graph.n_edges

    def _refill(self, minimum: int) -> None:
        """THE seeded pair draw: uniform edge index, then uniform orientation.

        Refills happen only on an empty buffer, with ``minimum`` = the
        draws still needed by the current call; on a dynamic topology
        the refill is capped at the current epoch boundary.  The two-call
        draw order is part of the seeded-stream definition.
        """
        position = self._position
        if self._epoch_end is not None and position >= self._epoch_end:
            self._activate_epoch(position)
        size = max(self._batch_size, minimum)
        if self._epoch_end is not None:
            size = min(size, self._epoch_end - position)
        edge_indices = self._rng.integers(0, self._edge_count, size=size)
        orientations = self._rng.integers(0, 2, size=size)
        self._buffer = encode_oriented(edge_indices, orientations, self._edge_count)
        self._cursor = 0

    def _consume(self, size: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield ``(indices, du, dv)`` chunks totalling ``size`` draws.

        The decode tables are captured per chunk because a refill at a
        chunk boundary may swap epochs on a dynamic topology.
        """
        if size < 0:
            raise ValueError("batch size must be non-negative")
        remaining = size
        while remaining > 0:
            available = self._buffer.shape[0] - self._cursor
            if available == 0:
                self._refill(remaining)
                available = self._buffer.shape[0]
            take = min(available, remaining)
            chunk = self._buffer[self._cursor : self._cursor + take]
            self._cursor += take
            self._position += take
            remaining -= take
            du, dv = self._tables()
            yield chunk, du, dv

    # ------------------------------------------------------------------
    # Consumption (shared by every scheduler shell)
    # ------------------------------------------------------------------
    def next_interaction(self) -> Interaction:
        """The next ordered (initiator, responder) pair."""
        if self._cursor >= self._buffer.shape[0]:
            self._refill(1)
        index = self._buffer[self._cursor]
        self._cursor += 1
        self._position += 1
        du, dv = self._tables()
        return (int(du[index]), int(dv[index]))

    def next_batch(self, size: int) -> List[Interaction]:
        """The next ``size`` ordered pairs, in order, as Python tuples."""
        result: List[Interaction] = []
        for chunk, du, dv in self._consume(size):
            result.extend(zip(du.take(chunk).tolist(), dv.take(chunk).tolist()))
        return result

    def next_arrays(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """Like :meth:`next_batch` but returns numpy arrays (hot loops)."""
        initiators = np.empty(size, dtype=np.int64)
        responders = np.empty(size, dtype=np.int64)
        filled = 0
        for chunk, du, dv in self._consume(size):
            take = chunk.shape[0]
            np.take(du, chunk, out=initiators[filled : filled + take])
            np.take(dv, chunk, out=responders[filled : filled + take])
            filled += take
        return initiators, responders

    def next_pair_indices(self, size: int) -> np.ndarray:
        """The next ``size`` draws as raw directed pair indices.

        Same stream, undecoded: kernels that hold the directed endpoint
        tables (:attr:`pair_tables`) decode these themselves, saving two
        Python-level gathers per block.  Only meaningful while the
        tables are constant, i.e. on a static topology.
        """
        out = np.empty(size, dtype=np.int64)
        self.next_pair_indices_into(out)
        return out

    def next_pair_indices_into(self, out: np.ndarray) -> None:
        """:meth:`next_pair_indices` into a preallocated row (hot path)."""
        size = out.shape[0]
        if size < 0:
            raise ValueError("batch size must be non-negative")
        buffer = self._buffer
        cursor = self._cursor
        filled = 0
        while filled < size:
            available = buffer.shape[0] - cursor
            if available == 0:
                self._refill(size - filled)
                buffer = self._buffer
                cursor = self._cursor
                available = buffer.shape[0]
            take = min(available, size - filled)
            out[filled : filled + take] = buffer[cursor : cursor + take]
            cursor += take
            filled += take
            self._position += take
        self._cursor = cursor

    # ------------------------------------------------------------------
    # The directed dialect (analytics trajectory streams)
    # ------------------------------------------------------------------
    def draw_pair_indices(self, out: np.ndarray, bound: Optional[int] = None) -> None:
        """Demand-sized draw straight into the directed pair-index space.

        One bounded-integers call over ``[0, bound)`` — the analytics
        engine's seeded-stream definition (block sizes are chosen by the
        caller's lockstep schedule, not by the refill contract).
        ``bound`` overrides the draw bound (dynamic stacks pass the
        active epoch's ``2m_k``); the default is the source's own
        ``2m``.
        """
        limit = self.pair_count if bound is None else int(bound)
        out[...] = self._rng.integers(0, limit, size=out.shape[0])

    def draw_pairs_into(self, initiators: np.ndarray, responders: np.ndarray) -> None:
        """Directed-dialect draw decoded through the endpoint tables."""
        draws = self._rng.integers(0, self.pair_count, size=initiators.shape[0])
        du, dv = self._tables()
        du.take(draws, out=initiators)
        dv.take(draws, out=responders)


def decode_pair_indices(
    graph: Graph, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode raw pair indices against ``graph``'s directed tables."""
    du, dv = directed_tables(graph)
    return decode_pairs(indices, du, dv)


# ----------------------------------------------------------------------
# Kernel-resident streams
# ----------------------------------------------------------------------
def pack_generator_state(generator: np.random.Generator, out: np.ndarray) -> None:
    """Export a PCG64-backed Generator into one kernel RNG state row.

    The row layout mirrors numpy's ``PCG64().state`` dict — state hi/lo,
    inc hi/lo, ``has_uint32``, ``uinteger`` — so the kernel continues the
    exact stream, buffered 32-bit half-word included.
    """
    state = generator.bit_generator.state
    if state["bit_generator"] != "PCG64":  # pragma: no cover - guarded by callers
        raise ValueError("kernel streams require a PCG64 bit generator")
    inner = state["state"]
    mask = (1 << 64) - 1
    out[0] = (inner["state"] >> 64) & mask
    out[1] = inner["state"] & mask
    out[2] = (inner["inc"] >> 64) & mask
    out[3] = inner["inc"] & mask
    out[4] = int(state["has_uint32"])
    out[5] = int(state["uinteger"])
    out[6] = 0
    out[7] = 0


def unpack_generator_state(generator: np.random.Generator, row: np.ndarray) -> None:
    """Import one kernel RNG state row back into a PCG64-backed Generator."""
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (int(row[0]) << 64) | int(row[1]),
            "inc": (int(row[2]) << 64) | int(row[3]),
        },
        "has_uint32": int(row[4]),
        "uinteger": int(row[5]),
    }


def kernel_seedable(seed) -> bool:
    """Whether ``seed`` can seed an in-kernel stream.

    The kernel reimplements ``SeedSequence`` for non-negative integers
    below ``2**64`` (at most two 32-bit entropy words) — exactly the
    range the package's own :func:`repro.core.seeds.derive_seed`
    produces.  Generators and wider seeds stay on the NumPy paths.
    """
    return isinstance(seed, (int, np.integer)) and 0 <= int(seed) < (1 << 64)


class KernelSource:
    """Replica-batched scheduler-dialect streams living in kernel state.

    The kernel twin of a row of :class:`InteractionSource` objects: per
    replica, one PCG64 state row (``rng_state``), one cursor/fill/
    position triple (``src_state``) and one pre-sample buffer row
    (``buffers``), all advanced *inside* the C kernel
    (``repro_run_epoch`` / ``repro_source_fill``).  Seeding, refill
    sizes and draw order are bit-identical to
    ``InteractionSource(graph, np.random.default_rng(seed))``, so a
    replica can leave the kernel mid-stream and continue in Python
    (:meth:`python_source`) without perturbing a single draw.
    """

    def __init__(
        self,
        graph: Graph,
        seeds,
        batch_size: int = REFILL_SIZE,
        buffer_capacity: Optional[int] = None,
    ) -> None:
        from ..engine.native import RNG_STATE_WORDS, SRC_STATE_WORDS, get_rng_kernels

        kernels = get_rng_kernels()
        if kernels is None:
            raise RuntimeError("the native kernel is unavailable; use InteractionSource")
        if graph.n_edges == 0:
            raise ValueError("cannot schedule interactions on an edgeless graph")
        self._graph = graph
        self._batch = int(batch_size)
        self._kernels = kernels
        capacity = max(self._batch, int(buffer_capacity or 0))
        count = len(seeds)
        self.rng_state = np.zeros((count, RNG_STATE_WORDS), dtype=np.uint64)
        self.src_state = np.zeros((count, SRC_STATE_WORDS), dtype=np.int64)
        self.buffers = np.zeros((count, capacity), dtype=np.int64)
        seed_words = np.ascontiguousarray([int(seed) for seed in seeds], dtype=np.uint64)
        kernels["pcg64_init"](seed_words.ctypes.data, count, self.rng_state.ctypes.data)

    @property
    def batch_size(self) -> int:
        return self._batch

    @property
    def buffer_capacity(self) -> int:
        return self.buffers.shape[1]

    def compact(self, keep: np.ndarray) -> None:
        """Drop finished replica rows (mirrors the executor's compaction)."""
        self.rng_state = np.ascontiguousarray(self.rng_state[keep])
        self.src_state = np.ascontiguousarray(self.src_state[keep])
        self.buffers = np.ascontiguousarray(self.buffers[keep])

    def fill(self, row: int, out: np.ndarray) -> None:
        """``next_pair_indices_into`` for one row, drawn in-kernel."""
        count = out.shape[0]
        if count > self.buffer_capacity:
            raise ValueError("draw exceeds the kernel buffer capacity")
        self._kernels["source_fill"](
            self.rng_state[row].ctypes.data,
            self.src_state[row].ctypes.data,
            self.buffers[row].ctypes.data,
            self._graph.n_edges,
            self._batch,
            count,
            out.ctypes.data,
        )

    def export_generator(self, row: int) -> np.random.Generator:
        """A NumPy Generator continuing row ``row``'s stream exactly."""
        generator = np.random.Generator(np.random.PCG64())
        unpack_generator_state(generator, self.rng_state[row])
        return generator

    def python_source(self, row: int) -> InteractionSource:
        """Hand row ``row`` back to Python mid-stream (straggler drain).

        The returned :class:`InteractionSource` owns a Generator restored
        from the kernel state and the row's unconsumed pre-sample buffer,
        so subsequent draws are bit-identical to never having entered the
        kernel at all.
        """
        source = InteractionSource(
            self._graph, rng=self.export_generator(row), batch_size=self._batch
        )
        cursor = int(self.src_state[row, 0])
        fill = int(self.src_state[row, 1])
        source._buffer = self.buffers[row, :fill].copy()
        source._cursor = cursor
        source._position = int(self.src_state[row, 2])
        return source
