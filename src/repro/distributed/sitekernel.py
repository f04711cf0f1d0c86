"""Per-site CSR execution substrate for the distributed protocol.

PR 1 gave the centralized entry points a compiled execution kernel
(:mod:`repro.core.kernel`), but the distributed workers kept the slow
reference path: every ball rebuilt a hash-set ``DiGraph`` and re-ran the
set-based dual-simulation fixpoint, so the Section 4.3 protocol never saw
the 2–5x kernel win.  This module closes that gap with the same pattern
MADlib uses for in-database analytics: the compiled kernel is pushed down
to each data-parallel site instead of shipping rows to a central
evaluator.

:class:`SiteGraphIndex` is the per-site analogue of
:class:`~repro.core.kernel.GraphIndex`, built on the same shared
growable-CSR substrate (:class:`~repro.core.kernel.GrowableCSRIndex` —
integer node ids, per-node forward / reverse / undirected rows, stable
ids under extension) with three distributed-specific twists:

* **Incremental extension.**  A fragment only knows its own nodes' full
  adjacency; remote neighbors start as unmaterialized *stubs* (an id with
  no label and empty rows).  When a ball BFS reaches a stub, the worker
  fetches the node record over the message bus (charging it exactly as
  the reference path does) and the record is appended to the index in
  place — ids are stable, so previously compiled rows stay valid.

* **Per-query remote reset.**  The owned part of the index is compiled
  once per site and reused across queries ("fragments compile once per
  site"); the remote extension is reverted to stubs at the start of each
  query (:meth:`SiteGraphIndex.reset_remote`) so fetch accounting per
  query is identical to the reference path, which re-ships records after
  the coordinator clears the per-query cache.

* **Owned-delta maintenance.**  The mutation pipeline
  (``Cluster.apply_update`` →
  :meth:`~repro.distributed.worker.SiteWorker.apply_update`) patches the
  *owned* rows in place through the growable-CSR helpers — new owned
  nodes append a slot, owned edge endpoints patch their own rows, owned
  removals tombstone — so per-site indexes stay warm across updates
  instead of recompiling per query.  Stub rows are never patched: a
  stub's adjacency is materialized wholesale from the owner's (already
  updated) fragment on the next fetch.

The per-ball matching itself (:func:`site_match_ball`) reuses the
kernel's compiled-pattern representation and counter-based fixpoint
(:func:`~repro.core.kernel._dual_sim_eager`) unchanged: candidate sets
hold integer ids, ball membership is implicit in the seeds, and only
successful balls pay for object-graph materialization.  The fixpoint and
extraction never read the adjacency row of a non-candidate node, so
unmaterialized stubs outside the ball are never touched.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.core.digraph import Label, Node
from repro.core.kernel import (
    GrowableCSRIndex,
    _CompiledPattern,
    _dual_sim_eager,
    _extract_perfect_subgraph,
)
from repro.core.result import PerfectSubgraph
from repro.distributed.fragment import Fragment

#: ``label, successors, predecessors`` — the record served for one node.
NodeRecord = Tuple[Label, Set[Node], Set[Node]]

#: Fetches the records of a batch of nodes (same order), charging the
#: message bus one ``fetch`` message per record.  Batching lets the ball
#: BFS request a whole layer's missing records in one transport round
#: trip — essential for the process backend, where each round trip is a
#: pipe crossing — without changing the per-record accounting.
FetchManyFn = Callable[[List[Node]], List[NodeRecord]]


class SiteGraphIndex(GrowableCSRIndex):
    """One site's fragment compiled to integer ids + growable CSR rows.

    Owned nodes are interned first, in fragment insertion order, and
    flagged in :attr:`is_owned`.  Remote nodes are interned on first
    sight; a remote id is *materialized* once its record has been
    fetched and its label and adjacency rows filled in.

    The row layout is inherited from
    :class:`~repro.core.kernel.GrowableCSRIndex` — the same layout
    :class:`~repro.core.kernel.GraphIndex` uses — so the kernel's
    fixpoint and extraction helpers run on either index unchanged.
    """

    __slots__ = ("materialized", "is_owned", "_remote_live")

    def __init__(self, fragment: Fragment) -> None:
        super().__init__()
        self.materialized: List[bool] = []
        self.is_owned: List[bool] = []
        self._remote_live = 0  # currently materialized remote nodes
        for node in fragment.labels:
            self.is_owned[self._intern(node)] = True
        labels = fragment.labels
        succ = fragment.succ
        pred = fragment.pred
        for node, i in list(self.index_of.items()):
            self._fill(i, labels[node], succ[node], pred[node])

    # ------------------------------------------------------------------
    def _intern(self, node: Node) -> int:
        """The id of ``node``, assigning a fresh stub id on first sight."""
        i = self.index_of.get(node)
        if i is None:
            i = self._new_slot(node)
            self.materialized.append(False)
            self.is_owned.append(False)
        return i

    def _fill(
        self, i: int, label: Label, succ: Set[Node], pred: Set[Node]
    ) -> None:
        """Materialize id ``i`` from its full (global) adjacency."""
        intern = self._intern
        fwd = [intern(target) for target in succ]
        und = fwd.copy()
        und.extend(intern(source) for source in pred if source not in succ)
        self.fwd_rows[i] = fwd
        self.rev_rows[i] = [intern(source) for source in pred]
        self.und_rows[i] = und
        self.labels[i] = label
        self.materialized[i] = True

    def materialize(self, i: int, record: NodeRecord) -> None:
        """Extend the index with a fetched remote node record."""
        label, succ, pred = record
        self._fill(i, label, succ, pred)
        self._remote_live += 1

    def reset_remote(self) -> None:
        """Revert every remote node to an unmaterialized stub.

        Called at the start of each query (via the worker's per-query
        cache clear) and before applying an update, so remote records are
        re-fetched — and re-charged — exactly like the reference path.
        Ids are stable across resets: owned rows keep referencing the
        stubbed ids, which simply get refilled on the next fetch.  O(1)
        when no remote is materialized, so a burst of updates between
        queries pays the slot scan at most once.
        """
        if not self._remote_live:
            return
        is_owned = self.is_owned
        materialized = self.materialized
        for i in range(len(self.nodes)):
            if materialized[i] and not is_owned[i]:
                self.labels[i] = None
                self.materialized[i] = False
                self.fwd_rows[i] = []
                self.rev_rows[i] = []
                self.und_rows[i] = []
        self._remote_live = 0

    # ------------------------------------------------------------------
    # Owned-delta maintenance (the per-site half of the mutation pipeline)
    # ------------------------------------------------------------------
    def add_owned_node(self, node: Node, label: Label) -> None:
        """Append a slot for a newly owned (isolated) node."""
        i = self._intern(node)
        self.is_owned[i] = True
        self.materialized[i] = True
        self.labels[i] = label

    def remove_owned_node(self, node: Node) -> None:
        """Tombstone an owned node whose incident edges are already gone."""
        i = self.index_of.pop(node)
        self.is_owned[i] = False
        self.materialized[i] = False
        self.labels[i] = None
        self.nodes[i] = None
        self.fwd_rows[i] = []
        self.rev_rows[i] = []
        self.und_rows[i] = []

    def relabel_owned_node(self, node: Node, label: Label) -> None:
        """Update the stored label of an owned node."""
        self.labels[self.index_of[node]] = label

    def add_owned_edge(
        self, source: Node, target: Node, owns_source: bool, owns_target: bool
    ) -> None:
        """Patch the *owned* endpoints' rows for a new edge.

        Stub (remote) rows are never patched — their adjacency is always
        materialized wholesale from the owner's fragment on fetch — so
        each side updates only the rows it owns.  The undirected appends
        are membership-guarded: already present exactly when the reverse
        edge existed (or for the second half of a self-loop).
        """
        s = self._intern(source)
        t = self._intern(target)
        if owns_source:
            self.fwd_rows[s].append(t)
            und_s = self.und_rows[s]
            if t not in und_s:
                und_s.append(t)
        if owns_target:
            self.rev_rows[t].append(s)
            und_t = self.und_rows[t]
            if s not in und_t:
                und_t.append(s)

    def remove_owned_edge(
        self,
        source: Node,
        target: Node,
        owns_source: bool,
        owns_target: bool,
        reverse_exists: bool,
    ) -> None:
        """Patch the *owned* endpoints' rows for a removed edge.

        ``reverse_exists`` — whether the opposite edge ``target ->
        source`` still exists (the worker answers this from its fragment
        adjacency) — decides whether the undirected link survives.  The
        undirected removals are membership-guarded so a both-endpoints-
        owned self-loop removes its single entry exactly once.
        """
        s = self.index_of[source]
        t = self.index_of[target]
        if owns_source:
            self.fwd_rows[s].remove(t)
            if not reverse_exists:
                und_s = self.und_rows[s]
                if t in und_s:
                    und_s.remove(t)
        if owns_target:
            self.rev_rows[t].remove(s)
            if not reverse_exists:
                und_t = self.und_rows[t]
                if s in und_t:
                    und_t.remove(s)

    def __repr__(self) -> str:
        return (
            f"SiteGraphIndex(owned={sum(self.is_owned)}, "
            f"interned={len(self.nodes)}, "
            f"materialized={sum(self.materialized)})"
        )


def site_ball_bfs(
    index: SiteGraphIndex,
    fetch_many: FetchManyFn,
    center: int,
    radius: int,
) -> Tuple[List[int], int]:
    """Bounded undirected BFS over the site index, fetching across cuts.

    Identical ball membership to the reference
    :meth:`~repro.distributed.worker.SiteWorker.build_ball`: every ball
    node — including the border layer — is materialized, because the
    induced ball subgraph needs border-to-border edges and the reference
    path likewise ships the record of every ball member.  Each layer's
    unmaterialized stubs are fetched in **one** ``fetch_many`` call
    (one transport round trip on the process backend) and charged one
    bus message per record, in discovery order — the same records, the
    same charges, the same totals as fetching one at a time (the
    worker's per-query cache keeps repeat visits free, preserving the
    Section 4.3 shipment bound).

    Returns ``(order, epoch)``: ball node ids in BFS order (center
    first) and the epoch under which the calling thread's stamp buffer
    marks membership (each site owns its index, and the visited buffer
    is thread-local).
    """
    visit = index.visit_state()
    epoch = visit.new_epoch()
    stamp = visit.stamp
    materialized = index.materialized
    nodes = index.nodes
    rows = index.und_rows
    # Materializing a stub can intern *new* stub slots (the fetched
    # record's neighbors), growing the index mid-BFS; the thread-local
    # stamp buffer must keep covering every slot before its id is read.
    def grow_stamp() -> None:
        shortfall = len(nodes) - len(stamp)
        if shortfall > 0:
            stamp.extend([0] * shortfall)

    def materialize_batch(ids: List[int]) -> None:
        records = fetch_many([nodes[i] for i in ids])
        for i, record in zip(ids, records):
            index.materialize(i, record)
        grow_stamp()

    if not materialized[center]:
        materialize_batch([center])
    stamp[center] = epoch
    order = [center]
    frontier = [center]
    depth = 0
    while frontier and depth < radius:
        nxt: List[int] = []
        missing: List[int] = []
        for v in frontier:
            for w in rows[v]:
                if stamp[w] != epoch:
                    stamp[w] = epoch
                    if not materialized[w]:
                        missing.append(w)
                    nxt.append(w)
        if missing:
            # Rows of this layer's nodes are only read on the *next*
            # layer, so deferring materialization to one batch per layer
            # observes identically to the one-at-a-time original.
            materialize_batch(missing)
        order.extend(nxt)
        frontier = nxt
        depth += 1
    return order, epoch


def site_match_ball(
    cp: _CompiledPattern,
    index: SiteGraphIndex,
    fetch_many: FetchManyFn,
    center: int,
    radius: int,
) -> Optional[PerfectSubgraph]:
    """One ball of the per-site ``Match`` loop on the kernel substrate.

    Mirrors the reference worker's ``build_ball`` + ``dual_simulation``
    + ``extract_max_perfect_subgraph`` sequence: label-compatible seeds
    restricted to the ball, the counter fixpoint, then extraction.  No
    cross-ball dedup happens here — the reference path ships every
    discovered subgraph and lets the coordinator dedup, and the per-site
    partial counts are part of the observable protocol output.
    """
    order, _ = site_ball_bfs(index, fetch_many, center, radius)
    by_label = cp.by_label
    labels = index.labels
    sim: List[Set[int]] = [set() for _ in range(cp.size)]
    for v in order:
        for u in by_label.get(labels[v], ()):
            sim[u].add(v)
    if not all(sim):
        return None
    if not _dual_sim_eager(cp, index, sim):
        return None
    return _extract_perfect_subgraph(cp, index, center, sim)
