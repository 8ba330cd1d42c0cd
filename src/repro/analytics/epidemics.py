"""Replica-batched one-way epidemics and influence processes.

The Monte-Carlo analytics floor of the experiment harness — ``B(G)``
estimates, full-information times, distance-``k`` propagation times — is
built from two stochastic processes:

* the **single-source epidemic**: one informed bit per node, spread along
  sampled interactions until all ``n`` nodes (or a stop set) are reached;
* the **all-pairs influence process**: one ``n``-bit influencer set per
  node, merged pairwise until every node is influenced by every node.

This module runs ``R`` independent trajectories of either process in
lockstep: epidemics as an ``(R, n)`` uint8 informed matrix, influence as
an ``(R, n, ⌈n/64⌉)`` packed uint64 bitset tensor.  Each trajectory reads
its private scheduler stream (:mod:`repro.analytics.streams`), one block
per round, and finished replicas are compacted out of the stack so
stabilized stragglers do not drag the batch.

Three execution paths produce bit-identical results:

* the epoch C kernels (:func:`repro.engine.native.get_broadcast_epoch_kernel`,
  :func:`~repro.engine.native.get_influence_epoch_kernel`) — interpreter-free
  inner loops over the whole ``(R, block)`` stack, drawing each
  trajectory's stream inside the kernel;
* a vectorized NumPy path — a Python loop over the block's steps with all
  replica-axis work done in array operations (the no-compiler fallback);
* a scalar path for tiny stacks (``R < 4``), where per-element NumPy
  overhead would exceed a plain Python loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.native import (
    RNG_STATE_WORDS,
    get_broadcast_epoch_kernel,
    get_influence_epoch_kernel,
    kernel_thread_count,
)
from ..graphs.graph import Graph
from ..runtime.source import pack_generator_state, unpack_generator_state
from .streams import (
    TrajectoryStream,
    block_size,
    directed_pairs,
    fill_draw_rows,
    iter_width_chunks,
    make_streams,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..dynamics.schedule import TopologySchedule

#: Below this many co-resident replicas the scalar Python loop beats the
#: per-step fancy-indexing overhead of the NumPy path.  Dispatch only —
#: all paths compute identical results.
_SCALAR_MAX_REPLICAS = 4

BUDGET_EXHAUSTED = -1


def _pack_stream_states(streams: Sequence[TrajectoryStream]) -> Optional[np.ndarray]:
    """Export the streams' PCG64 states into kernel RNG rows.

    Returns ``None`` (keeping the stream on the NumPy draw path) if any
    stream rides a bit generator the kernel cannot continue.
    """
    rows = np.zeros((len(streams), RNG_STATE_WORDS), dtype=np.uint64)
    try:
        for j, stream in enumerate(streams):
            pack_generator_state(stream.generator, rows[j])
    except (KeyError, TypeError, ValueError):
        return None
    return rows


def _writeback_stream_states(
    streams: Sequence[TrajectoryStream], rows: np.ndarray, mask: np.ndarray
) -> None:
    """Import kernel RNG rows back into the streams selected by ``mask``.

    The epoch kernels burn a finished replica's remaining block draws, so
    the written-back generator state is exactly where the NumPy path
    (which pre-draws whole blocks) would have left it.
    """
    for j, stream in enumerate(streams):
        if mask[j]:
            unpack_generator_state(stream.generator, rows[j])


def _active_tables(
    graph: Graph,
    schedule: Optional["TopologySchedule"],
    consumed: int,
    block: int,
) -> Tuple[np.ndarray, np.ndarray, Optional[int], int]:
    """Directed endpoint tables + draw bound for the block at ``consumed``.

    On a static run (``schedule is None``) this is the graph's own tables
    and the block size is untouched.  On a dynamic run the block is
    clipped at the next epoch boundary, so every draw in it is made — and
    decoded — against one epoch's edge table, and all co-resident
    replicas cross the epoch switch together (they share ``consumed``).
    """
    if schedule is None:
        directed_u, directed_v = directed_pairs(graph)
        return directed_u, directed_v, None, block
    index, _, end = schedule.epoch_at(consumed)
    if end is not None:
        block = min(block, end - consumed)
    directed_u, directed_v = directed_pairs(schedule.epoch_graph(index))
    return directed_u, directed_v, int(directed_u.shape[0]), block


# ----------------------------------------------------------------------
# Single-source epidemics
# ----------------------------------------------------------------------
def run_epidemic_batch(
    graph: Graph,
    sources: Sequence[int],
    seeds: Sequence[int],
    max_steps: int,
    stopmasks: Optional[np.ndarray] = None,
    replica_batch: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> np.ndarray:
    """Steps until completion for ``R`` independent epidemics.

    Trajectory ``t`` starts at ``sources[t]`` and reads the stream seeded
    by ``seeds[t]``.  Without ``stopmasks`` an epidemic completes when all
    ``n`` nodes are informed; with ``stopmasks`` (an ``(R, n)`` uint8
    matrix) it completes when a newly informed node has its mask bit set
    (distance-``k`` propagation).  Returns an int64 array with the 1-based
    completion step per trajectory, or :data:`BUDGET_EXHAUSTED` where
    ``max_steps`` ran out.  ``replica_batch`` caps how many trajectories
    are co-resident; it never changes the results.

    ``schedule`` runs the epidemics on a time-varying topology: blocks
    are clipped at epoch boundaries so all co-resident trajectories
    advance through epoch switches in lockstep, and every draw samples
    the active epoch's ordered-pair table.  A single-epoch schedule
    reproduces the static run bit for bit.
    """
    count = len(sources)
    if len(seeds) != count:
        raise ValueError("need exactly one seed per trajectory")
    if schedule is not None and schedule.n_nodes != graph.n_nodes:
        raise ValueError("schedule universe does not match the graph")
    for source in sources:
        if not (0 <= int(source) < graph.n_nodes):
            raise ValueError("source out of range")
    results = np.full(count, BUDGET_EXHAUSTED, dtype=np.int64)
    for chunk in iter_width_chunks(count, replica_batch):
        schedulers = make_streams(graph, [seeds[t] for t in chunk])
        chunk_sources = [int(sources[t]) for t in chunk]
        chunk_masks = None if stopmasks is None else stopmasks[list(chunk)]
        _run_epidemic_stack(
            graph,
            schedulers,
            chunk_sources,
            chunk_masks,
            max_steps,
            results,
            chunk.start,
            schedule,
        )
    return results


def run_single_epidemic(
    graph: Graph,
    source: int,
    stream: TrajectoryStream,
    max_steps: int,
    stopmask: Optional[np.ndarray] = None,
) -> Optional[int]:
    """One epidemic on a caller-provided stream (shared-generator wrappers).

    Consumes the stream with the same block schedule as the batched
    engine, so e.g. a distance-``k`` run and a full broadcast with the
    same seed share their interaction schedule step for step.
    """
    results = np.full(1, BUDGET_EXHAUSTED, dtype=np.int64)
    masks = None if stopmask is None else np.ascontiguousarray(stopmask, dtype=np.uint8)[None, :]
    _run_epidemic_stack(graph, [stream], [int(source)], masks, max_steps, results, 0)
    steps = int(results[0])
    return None if steps == BUDGET_EXHAUSTED else steps


def _run_epidemic_stack(
    graph: Graph,
    schedulers: List[TrajectoryStream],
    sources: List[int],
    stopmasks: Optional[np.ndarray],
    max_steps: int,
    results: np.ndarray,
    result_offset: int,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    """Run one wave of co-resident epidemics to completion or budget."""
    n = graph.n_nodes
    active = len(schedulers)
    informed = np.zeros((active, n), dtype=np.uint8)
    informed[np.arange(active), np.asarray(sources, dtype=np.int64)] = 1
    counts = np.ones(active, dtype=np.int64)
    indices = np.arange(result_offset, result_offset + active, dtype=np.int64)
    masks = (
        None
        if stopmasks is None
        else np.ascontiguousarray(stopmasks, dtype=np.uint8)
    )
    epoch_kernel = get_broadcast_epoch_kernel()
    # Draw inside the kernel.  Stream states move into RNG rows and
    # are written back whenever a stream leaves the stack, so callers
    # holding the stream (run_single_epidemic) observe exactly the state
    # the NumPy draw path would have left.
    rng_rows = None if epoch_kernel is None else _pack_stream_states(schedulers)
    threads = kernel_thread_count()
    consumed = 0
    round_index = 0
    while schedulers and consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        directed_u, directed_v, pair_count, block = _active_tables(
            graph, schedule, consumed, block
        )
        a = len(schedulers)
        finish = np.full(a, -1, dtype=np.int64)
        if rng_rows is not None:
            bound = 2 * graph.n_edges if pair_count is None else pair_count
            epoch_kernel(
                informed.ctypes.data,
                rng_rows.ctypes.data,
                directed_u.ctypes.data,
                directed_v.ctypes.data,
                bound,
                a,
                block,
                n,
                masks.ctypes.data if masks is not None else None,
                counts.ctypes.data,
                finish.ctypes.data,
                threads,
            )
        else:
            draws = np.empty((a, block), dtype=np.int64)
            fill_draw_rows(schedulers, draws, pair_count)
            if a >= _SCALAR_MAX_REPLICAS:
                iu = directed_u.take(draws)
                iv = directed_v.take(draws)
                _numpy_epidemic_block(informed, iu, iv, counts, finish, n, masks)
            else:
                _scalar_epidemic_block(
                    informed, draws, directed_u, directed_v, counts, finish, n, masks
                )
        done = finish >= 0
        if done.any():
            results[indices[done]] = consumed + finish[done]
            keep = ~done
            if rng_rows is not None:
                _writeback_stream_states(schedulers, rng_rows, done)
                rng_rows = np.ascontiguousarray(rng_rows[keep])
            informed = np.ascontiguousarray(informed[keep])
            counts = counts[keep]
            indices = indices[keep]
            if masks is not None:
                masks = np.ascontiguousarray(masks[keep])
            schedulers = [s for s, k in zip(schedulers, keep) if k]
        consumed += block
        round_index += 1
    if rng_rows is not None and schedulers:
        _writeback_stream_states(
            schedulers, rng_rows, np.ones(len(schedulers), dtype=bool)
        )


def _numpy_epidemic_block(
    informed: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    counts: np.ndarray,
    finish: np.ndarray,
    n: int,
    masks: Optional[np.ndarray],
) -> None:
    a, block = iu.shape
    rows = np.arange(a)
    active = np.ones(a, dtype=bool)
    for i in range(block):
        u = iu[:, i]
        v = iv[:, i]
        informed_u = informed[rows, u]
        spread = (informed_u != informed[rows, v]) & active
        if not spread.any():
            continue
        touched = rows[spread]
        informed[touched, u[spread]] = 1
        informed[touched, v[spread]] = 1
        counts[spread] += 1
        if masks is None:
            hit = counts[spread] == n
        else:
            fresh = np.where(informed_u[spread] == 1, v[spread], u[spread])
            hit = masks[touched, fresh] == 1
        if hit.any():
            finish[touched[hit]] = i + 1
            active[touched[hit]] = False
            if not active.any():
                return


def _scalar_epidemic_block(
    informed: np.ndarray,
    draws: np.ndarray,
    directed_u: np.ndarray,
    directed_v: np.ndarray,
    counts: np.ndarray,
    finish: np.ndarray,
    n: int,
    masks: Optional[np.ndarray],
) -> None:
    a, block = draws.shape
    for r in range(a):
        inf = informed[r]
        stop = None if masks is None else masks[r]
        count = int(counts[r])
        row_u = directed_u.take(draws[r]).tolist()
        row_v = directed_v.take(draws[r]).tolist()
        for i in range(block):
            u = row_u[i]
            v = row_v[i]
            a_informed = inf[u]
            if a_informed != inf[v]:
                fresh = v if a_informed else u
                inf[u] = 1
                inf[v] = 1
                count += 1
                if (stop[fresh] if stop is not None else count == n):
                    finish[r] = i + 1
                    break
        counts[r] = count


# ----------------------------------------------------------------------
# All-pairs influence (full-information time)
# ----------------------------------------------------------------------
def run_influence_batch(
    graph: Graph,
    seeds: Sequence[int],
    max_steps: int,
    replica_batch: Optional[int] = None,
    schedule: Optional["TopologySchedule"] = None,
) -> np.ndarray:
    """Steps until every node is influenced by every node, per trajectory.

    Influencer sets are packed 64 sources per uint64 word; one interaction
    is a ``⌈n/64⌉``-word OR applied to both endpoints.  Same return
    conventions, batching semantics and ``schedule`` behaviour as
    :func:`run_epidemic_batch`.
    """
    count = len(seeds)
    if schedule is not None and schedule.n_nodes != graph.n_nodes:
        raise ValueError("schedule universe does not match the graph")
    results = np.full(count, BUDGET_EXHAUSTED, dtype=np.int64)
    for chunk in iter_width_chunks(count, replica_batch):
        chunk_seeds = [int(seeds[t]) for t in chunk]
        _run_influence_stack(graph, chunk_seeds, max_steps, results, chunk.start, schedule)
    return results


def _run_influence_stack(
    graph: Graph,
    seeds: List[int],
    max_steps: int,
    results: np.ndarray,
    result_offset: int,
    schedule: Optional["TopologySchedule"] = None,
) -> None:
    n = graph.n_nodes
    epoch_kernel = get_influence_epoch_kernel()
    if epoch_kernel is None and len(seeds) < _SCALAR_MAX_REPLICAS and schedule is None:
        # The tiny-stack fallback decodes draws through its stream's own
        # static tables, so dynamic runs take the generic path instead.
        _scalar_influence(graph, seeds, max_steps, results, result_offset)
        return
    schedulers = make_streams(graph, seeds)
    active = len(schedulers)
    words = (n + 63) // 64
    bits = np.zeros((active, n, words), dtype=np.uint64)
    node_ids = np.arange(n)
    bits[:, node_ids, node_ids // 64] = np.uint64(1) << (node_ids % 64).astype(np.uint64)
    # Buffered fancy-index |= would drop duplicate word indices; build the
    # full mask (low n bits set) word by word instead.
    full = np.array(
        [(1 << min(64, n - 64 * j)) - 1 for j in range(words)], dtype=np.uint64
    )
    flags = np.zeros((active, n), dtype=np.uint8)
    counts = np.zeros(active, dtype=np.int64)
    indices = np.arange(result_offset, result_offset + active, dtype=np.int64)
    rng_rows = None if epoch_kernel is None else _pack_stream_states(schedulers)
    threads = kernel_thread_count()
    consumed = 0
    round_index = 0
    while schedulers and consumed < max_steps:
        block = min(block_size(round_index), max_steps - consumed)
        directed_u, directed_v, pair_count, block = _active_tables(
            graph, schedule, consumed, block
        )
        a = len(schedulers)
        finish = np.full(a, -1, dtype=np.int64)
        if rng_rows is not None:
            bound = 2 * graph.n_edges if pair_count is None else pair_count
            epoch_kernel(
                bits.ctypes.data,
                rng_rows.ctypes.data,
                directed_u.ctypes.data,
                directed_v.ctypes.data,
                bound,
                a,
                block,
                n,
                words,
                full.ctypes.data,
                flags.ctypes.data,
                counts.ctypes.data,
                finish.ctypes.data,
                threads,
            )
        else:
            draws = np.empty((a, block), dtype=np.int64)
            fill_draw_rows(schedulers, draws, pair_count)
            iu = directed_u.take(draws)
            iv = directed_v.take(draws)
            _numpy_influence_block(bits, iu, iv, full, flags, counts, finish, n)
        done = finish >= 0
        if done.any():
            results[indices[done]] = consumed + finish[done]
            keep = ~done
            if rng_rows is not None:
                rng_rows = np.ascontiguousarray(rng_rows[keep])
            bits = np.ascontiguousarray(bits[keep])
            flags = np.ascontiguousarray(flags[keep])
            counts = counts[keep]
            indices = indices[keep]
            schedulers = [s for s, k in zip(schedulers, keep) if k]
        consumed += block
        round_index += 1


def _numpy_influence_block(
    bits: np.ndarray,
    iu: np.ndarray,
    iv: np.ndarray,
    full: np.ndarray,
    flags: np.ndarray,
    counts: np.ndarray,
    finish: np.ndarray,
    n: int,
) -> None:
    a, block = iu.shape
    rows = np.arange(a)
    active = np.ones(a, dtype=bool)
    for i in range(block):
        u = iu[:, i]
        v = iv[:, i]
        merged = bits[rows, u] | bits[rows, v]
        bits[rows, u] = merged
        bits[rows, v] = merged
        newly_full = (merged == full).all(axis=1) & active
        if not newly_full.any():
            continue
        flag_u = flags[rows, u]
        flag_v = flags[rows, v]
        counts[newly_full] += (
            (1 - flag_u[newly_full].astype(np.int64))
            + (1 - flag_v[newly_full].astype(np.int64))
        )
        touched = rows[newly_full]
        flags[touched, u[newly_full]] = 1
        flags[touched, v[newly_full]] = 1
        hit = active & (counts == n)
        if hit.any():
            finish[hit] = i + 1
            active &= ~hit
            if not active.any():
                return


def _scalar_influence(
    graph: Graph,
    seeds: List[int],
    max_steps: int,
    results: np.ndarray,
    result_offset: int,
) -> None:
    """Tiny-stack fallback: Python-int bitsets on the same streams/schedule."""
    n = graph.n_nodes
    full_mask = (1 << n) - 1
    for offset, seed in enumerate(seeds):
        stream = make_streams(graph, [seed])[0]
        bitsets = [1 << v for v in range(n)]
        full_count = 1 if n == 1 else 0
        consumed = 0
        round_index = 0
        while consumed < max_steps:
            block = min(block_size(round_index), max_steps - consumed)
            iu = np.empty(block, dtype=np.int64)
            iv = np.empty(block, dtype=np.int64)
            stream.next_into(iu, iv)
            finish = -1
            for i, (u, v) in enumerate(zip(iu.tolist(), iv.tolist()), start=1):
                merged = bitsets[u] | bitsets[v]
                if merged == full_mask:
                    full_count += (bitsets[u] != full_mask) + (bitsets[v] != full_mask)
                bitsets[u] = merged
                bitsets[v] = merged
                if full_count == n:
                    finish = i
                    break
            if finish >= 0:
                results[result_offset + offset] = consumed + finish
                break
            consumed += block
            round_index += 1
