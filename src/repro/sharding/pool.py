"""A deterministic, persistent shard-worker process pool.

:class:`ShardWorkerPool` turns the sharded executor's span schedule into
actual process parallelism: the global ``int64`` code block lives in
:mod:`multiprocessing.shared_memory` (node state indexed by global node
id — exactly the in-process layout), a fixed set of fork-based workers
owns the shards (shard ``s`` belongs to worker ``s % n_workers``), and
each routed chunk becomes one *super-step* — the parent draws and
annotates the chunk (the single global seeded stream never leaves the
parent) and ships each worker its whole program at once: the draws it
owns as flat endpoint arrays, split into runs at the boundary events
that touch its shards.  The workers execute their runs concurrently,
one native-kernel call per run against the shared block; between two
handshakes each worker writes only its own shards' nodes, so concurrent
runs touch disjoint state.

Determinism comes from the schedule, not from timing: within a segment
the shard-local runs commute (disjoint state), and every order-critical
draw — a boundary event — is applied *by the parent, in global draw
order*, between two pipe round-trips with exactly the workers whose
shards it touches (a worker not involved in a boundary keeps running;
the barrier is pairwise, not global).  The parent's
:class:`~repro.sharding.source.ExchangeQueue` posted/delivered matrices
and its per-chunk quiescence assert are the cross-process contract: a
lost or reordered hand-off shows up as a non-quiescent fabric, not as a
silently wrong result.  Results are byte-identical to the in-process
sharded path for any worker count.

The pool requires *complete* transition tables (parallel lazy state
discovery would assign codes in process-dependent order); any breakage
at run time — a worker killed mid-super-step, a closed pipe, a table
miss — raises :class:`ShardPoolError`, which the executor answers by
closing the pool and rerunning the replica in-process, byte-identically
(the stream is re-creatable from its seed).
``REPRO_DISABLE_SHARD_WORKERS=1`` disables the pool entirely.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import weakref
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, List, Optional

import numpy as np

from .partition import PartitionedGraph
from .source import SpanBlock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..engine.compiler import CompiledProtocol


class ShardPoolError(RuntimeError):
    """The worker pool broke (dead worker, closed pipe, table miss).

    Always recoverable: the executor closes the pool and reruns the
    replica in-process from its seed, byte-identically.
    """


def _worker_main(conn, codes_view, compiled, kernel) -> None:
    """A shard worker's request loop (runs in the forked child).

    The worker owns nothing but kernel calls: each ``chunk`` message is
    its whole super-step program — the draws it owns as flat global
    endpoint arrays, split into runs by the boundary events it must
    handshake on.  Every run is one kernel call against the inherited
    shared-memory global code block (a worker only ever touches its own
    shards' nodes, so concurrent runs write disjoint state); each
    handshake blocks until the parent's ``go``, which guarantees the
    boundary event it is waiting on has been applied.  The worker
    reports its per-chunk leader delta / last-change max and its
    per-replica seen mask back to the parent.  Tables are complete by
    pool construction, so ``dpack`` is frozen and a kernel stop short of
    the run length is a protocol violation, reported as an error.
    """
    dpack_ptr = compiled.dpack.ctypes.data
    stride = compiled.stride
    kshift = compiled.kshift
    seen = np.zeros(stride, dtype=np.uint8)
    seen_ptr = seen.ctypes.data
    codes_ptr = codes_view.ctypes.data

    def handshake(seg: int) -> bool:
        conn.send(("sync", seg))
        go = conn.recv()
        if go[0] != "go" or go[1] != seg:
            conn.send(("error", f"out-of-order boundary handshake: {go!r}"))
            return False
        return True

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        tag = msg[0]
        if tag == "stop":
            break
        if tag == "reset":
            seen[:] = 0
            continue
        if tag == "collect":
            conn.send(("seen", seen.tobytes()))
            continue
        # tag == "chunk": run k covers draws [splits[k-1], splits[k])
        # (the first run starts at 0, the last ends at iu.size), with
        # the handshake on boundary segment syncs[k] after run k.
        _, iu, iv, steps, splits, syncs = msg
        iu_ptr = iu.ctypes.data
        iv_ptr = iv.ctypes.data
        steps_ptr = steps.ctypes.data
        n_syncs = int(syncs.size)
        n_draws = int(iu.size)
        prev = 0
        leaders = 0
        last = 0
        failed = False
        try:
            for k in range(n_syncs + 1):
                hi = int(splits[k]) if k < n_syncs else n_draws
                n = hi - prev
                if n:
                    last_io = ctypes.c_int64(0)
                    leaders_io = ctypes.c_int64(0)
                    done = kernel(
                        codes_ptr,
                        iu_ptr + 8 * prev,
                        iv_ptr + 8 * prev,
                        steps_ptr + 8 * prev,
                        n,
                        dpack_ptr,
                        stride,
                        kshift,
                        seen_ptr,
                        ctypes.byref(last_io),
                        ctypes.byref(leaders_io),
                    )
                    leaders += leaders_io.value
                    if last_io.value > last:
                        last = last_io.value
                    if done != n:
                        conn.send(
                            ("error", "transition-table miss in a shard worker")
                        )
                        failed = True
                        break
                    prev = hi
                else:
                    prev = hi
                if k < n_syncs and not handshake(int(syncs[k])):
                    failed = True
                    break
        except (EOFError, OSError):
            return
        if not failed:
            conn.send(("done", leaders, last))


def _release_shm(blocks: List[shared_memory.SharedMemory]) -> None:
    # Unlink before close: close() raises BufferError while any numpy
    # view of the block is still alive (e.g. referenced by a traceback
    # frame during failure-path demotion); unlink works regardless and
    # the mapping itself is freed when the last view goes away.
    for shm in blocks:
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover - already gone
            pass
        try:
            shm.close()
        except (BufferError, OSError):  # pragma: no cover - views still alive
            pass


class ShardWorkerPool:
    """Persistent fork-based workers over shared-memory shard blocks.

    Construction forks the workers immediately (the compiled tables and
    the shared-memory views ride the fork — nothing is pickled); any
    failure to fork (non-fork platform, daemonic parent) raises, which
    the executor's probe treats as "no pool".  The pool is reused across
    all replicas of a plan and must be :meth:`close`\\ d.
    """

    def __init__(
        self,
        partition: PartitionedGraph,
        compiled: "CompiledProtocol",
        n_workers: int,
    ) -> None:
        if not compiled.tables_complete:
            raise ShardPoolError("the worker pool requires complete transition tables")
        ctx = multiprocessing.get_context("fork")
        self.n_shards = partition.n_shards
        self.n_workers = max(1, min(int(n_workers), self.n_shards))
        self._closed = False
        #: Owning worker of each shard (shard ``s`` -> worker ``s % n``).
        self.worker_of = np.arange(self.n_shards, dtype=np.int64) % self.n_workers

        n_nodes = partition.graph.n_nodes
        self._shm: List[shared_memory.SharedMemory] = []
        try:
            shm = shared_memory.SharedMemory(create=True, size=max(8 * int(n_nodes), 8))
            self._shm.append(shm)
            #: The single global code block, shared with every worker
            #: (node state indexed by global node id, exactly the
            #: in-process layout — workers address it with global ids,
            #: and between two handshakes they write disjoint nodes).
            self.codes = np.frombuffer(shm.buf, dtype=np.int64, count=int(n_nodes))
            self._finalizer = weakref.finalize(self, _release_shm, self._shm)

            self._conns = []
            self._procs = []
            from ..engine.native import get_run_shard_kernel

            kernel = get_run_shard_kernel()
            if kernel is None:
                raise ShardPoolError("native shard kernel unavailable")
            for w in range(self.n_workers):
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child_conn, self.codes, compiled, kernel),
                    daemon=True,
                    name=f"repro-shard-worker-{w}",
                )
                proc.start()
                child_conn.close()
                self._conns.append(parent_conn)
                self._procs.append(proc)
        except BaseException:
            self.close()
            raise

    def owner(self, shard: int) -> int:
        """The worker that runs ``shard``'s local runs."""
        return shard % self.n_workers

    def replica_backend(self, initial_codes: np.ndarray) -> "_PoolBackend":
        """Reset the shared block for a fresh replica and hand back the
        executor-facing backend."""
        self.codes[:] = initial_codes
        for conn in self._conns:
            self._send(conn, ("reset",))
        return _PoolBackend(self)

    # -- pipe plumbing --------------------------------------------------
    def _send(self, conn, msg) -> None:
        try:
            conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise ShardPoolError(f"shard worker pipe closed: {exc}") from exc

    def _recv(self, conn, expect: str):
        try:
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardPoolError(f"shard worker died mid-super-step: {exc}") from exc
        if msg[0] == "error":
            raise ShardPoolError(msg[1])
        if msg[0] != expect:
            raise ShardPoolError(f"expected {expect!r} from worker, got {msg[0]!r}")
        return msg

    def close(self) -> None:
        """Stop the workers and release the shared blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in getattr(self, "_conns", []):
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in getattr(self, "_procs", []):
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in getattr(self, "_conns", []):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self.codes = []
        _release_shm(self._shm)
        self._shm = []


class _PoolBackend:
    """The executor's run backend over a :class:`ShardWorkerPool`.

    ``begin_chunk`` consumes the routed chunk as a *span* schedule
    (:meth:`~repro.sharding.source.ShardedInteractionSource.next_spans`)
    and ships each worker its whole super-step program at once: the
    shard-local draws it owns, in draw order, as flat global endpoint
    arrays, split into runs at the boundary events that touch one of its
    shards (boundary events touching only *other* workers' shards
    commute with its draws, so they never split its runs).  The
    executor's chunk loop then only drives the boundary handshakes
    (``sync_boundary`` / ``release_boundary``) and the final per-chunk
    barrier (``finish_chunk``); the runs themselves overlap freely
    across workers.
    """

    name = "pool"

    def __init__(self, pool: ShardWorkerPool) -> None:
        self._pool = pool
        self.codes = pool.codes
        self._block: SpanBlock = None
        self._involved: List[List[int]] = []

    def reset_replica(self, initial_codes: np.ndarray) -> None:
        self.codes[:] = initial_codes

    def begin_chunk(self, routed, size: int, base_step: int, state: Any) -> SpanBlock:
        block = routed.next_spans(size)
        self._block = block
        pool = self._pool
        bp = block.boundary_pos
        # Per-draw owning worker (of the initiator's shard); boundary
        # draws are excluded from every program — the parent applies
        # them, in global draw order, through the exchange fabric.
        owner_draw = np.take(pool.worker_of, block.init_shard)
        local = block.init_shard == block.resp_shard
        owner_i = np.take(pool.worker_of, block.init_shard[bp])
        owner_j = np.take(pool.worker_of, block.resp_shard[bp])
        self._involved = [
            [int(oi)] if oi == oj else sorted((int(oi), int(oj)))
            for oi, oj in zip(owner_i, owner_j)
        ]
        base = base_step + 1
        # One flat program per worker, built with array ops and shipped
        # as a handful of large contiguous arrays (numpy pickles at
        # memcpy speed) — never one message per run.
        for w, conn in enumerate(pool._conns):
            pos_w = np.flatnonzero(local & (owner_draw == w))
            sync_w = np.flatnonzero((owner_i == w) | (owner_j == w))
            pool._send(
                conn,
                (
                    "chunk",
                    block.gu[pos_w],
                    block.gv[pos_w],
                    pos_w + base,
                    np.searchsorted(pos_w, bp[sync_w]),
                    sync_w,
                ),
            )
        return block

    def run_segment(self, seg: int, state: Any) -> None:
        pass  # the workers run ahead on their own programs

    def boundary(self, seg: int):
        """``(init shard, resp shard, init node, resp node, a, b)``."""
        block = self._block
        pos = int(block.boundary_pos[seg])
        si = int(block.init_shard[pos])
        sj = int(block.resp_shard[pos])
        gi = int(block.gu[pos])
        gj = int(block.gv[pos])
        self._cursor = (gi, gj)
        return si, sj, gi, gj, int(self.codes[gi]), int(self.codes[gj])

    def write_boundary(self, seg: int, na: int, nb: int) -> None:
        gi, gj = self._cursor
        self.codes[gi] = na
        self.codes[gj] = nb

    def assemble(self, partition) -> np.ndarray:
        return self.codes.copy()

    def sync_boundary(self, seg: int) -> None:
        """Wait until every worker whose shards the boundary touches has
        finished all runs ordered before it."""
        pool = self._pool
        for w in self._involved[seg]:
            msg = pool._recv(pool._conns[w], "sync")
            if msg[1] != seg:
                raise ShardPoolError(
                    f"boundary handshake out of order: expected {seg}, got {msg[1]}"
                )

    def release_boundary(self, seg: int) -> None:
        """Unblock the involved workers (the boundary event is applied)."""
        pool = self._pool
        for w in self._involved[seg]:
            pool._send(pool._conns[w], ("go", seg))

    def finish_chunk(self, state: Any) -> None:
        """The super-step barrier: fold every worker's leader delta and
        last-change max into the replica state."""
        pool = self._pool
        for conn in pool._conns:
            msg = pool._recv(conn, "done")
            state.leaders += int(msg[1])
            if int(msg[2]) > state.last_change:
                state.last_change = int(msg[2])

    def end_replica(self, state: Any) -> None:
        """Union the workers' seen masks into the replica's."""
        pool = self._pool
        for conn in pool._conns:
            pool._send(conn, ("collect",))
        for conn in pool._conns:
            msg = pool._recv(conn, "seen")
            worker_seen = np.frombuffer(msg[1], dtype=np.uint8)
            np.bitwise_or(
                state.seen[: worker_seen.size],
                worker_seen[: state.seen.size],
                out=state.seen[: worker_seen.size],
            )
