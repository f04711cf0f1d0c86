"""Distributed strong simulation (Section 4.3) over a simulated cluster.

Every site evaluates the balls around its surviving centers on the
readable reference per-ball step (:class:`SiteWorker`), on both runtime
backends; the ``engine`` a :class:`Cluster` is given is validated and
selects nothing.
"""

from repro.distributed.coordinator import (
    Cluster,
    DistributedRunReport,
    crossing_ball_bound,
    distributed_match,
)
from repro.distributed.fragment import Fragment, fragment_graph
from repro.distributed.network import Message, MessageBus
from repro.distributed.partition import (
    PARTITIONERS,
    bfs_partition,
    cut_edges,
    greedy_edge_cut_partition,
    hash_partition,
)
from repro.distributed.runtime import (
    BACKENDS,
    process_backend_available,
    resolve_backend,
)
from repro.distributed.worker import SiteWorker

__all__ = [
    "BACKENDS",
    "Cluster",
    "DistributedRunReport",
    "Fragment",
    "Message",
    "MessageBus",
    "PARTITIONERS",
    "SiteWorker",
    "bfs_partition",
    "crossing_ball_bound",
    "cut_edges",
    "distributed_match",
    "fragment_graph",
    "greedy_edge_cut_partition",
    "hash_partition",
    "process_backend_available",
    "resolve_backend",
]
