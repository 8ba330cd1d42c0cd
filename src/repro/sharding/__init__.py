"""Sharded graph engine: million-node topologies behind the runtime seam.

The package splits a topology into per-shard CSR adjacency blocks
(:class:`PartitionedGraph`), routes the global seeded ``[0, 2m)`` pair
stream to owning shards through memory-mapped routing tables
(:class:`ShardedInteractionSource`) with explicit boundary-pair exchange
queues (:class:`ExchangeQueue`), and executes plans shard-locally
(:func:`execute_sharded`) behind the same probe-and-fallback seam as the
epoch stack → NumPy executor chain.  Execution follows the *span*
schedule (:class:`SpanBlock`): each routed chunk runs in draw order as
one native-kernel call against a global code array, and only boundary
events stay order-critical.  Without the kernel a sharded plan takes the
unsharded executor chain, which gives identical results.

The determinism contract (gated by ``tests/test_sharding.py`` and
``scripts/ci_parallel_equivalence.py``): 1-shard execution is
byte-identical to the batched path for any seed, and k-shard execution
is byte-identical to 1-shard for any k.  Sharding is a *capacity* dial —
it bounds resident memory so sparse families reach n >= 10^6 — never a
semantics dial.
"""

from .executor import execute_sharded, sharded_eligible
from .partition import PARTITION_MODES, PartitionedGraph
from .source import ExchangeQueue, ShardedInteractionSource, SpanBlock

__all__ = [
    "PARTITION_MODES",
    "PartitionedGraph",
    "ExchangeQueue",
    "ShardedInteractionSource",
    "SpanBlock",
    "execute_sharded",
    "sharded_eligible",
]
