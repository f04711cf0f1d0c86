"""Delta-invalidated LRU result cache for the query service.

Entries are keyed by ``(data graph, canonical pattern key, algorithm,
engine)`` and hold results in a *canonical-position-indexed* encoding
(see :mod:`repro.service.executor` for the encoders), so one entry
serves every pattern isomorphic to the one that populated it.

Freshness is enforced two ways, belt and suspenders:

* every entry records the ``DiGraph.version`` it is valid for, and a
  lookup only hits when that matches the graph's current version —
  a mutation the cache never heard about (or one inside a still-open
  ``batch()``) can therefore never serve a stale result; and
  :meth:`ResultCache.store` refuses a payload whose pre-compute version
  no longer matches, so a mutation racing a long-running query cannot
  plant an entry that later deliveries would never know to invalidate;
* the cache *subscribes* to each graph's
  :class:`~repro.core.digraph.GraphDelta` stream and, instead of
  flushing the graph's entries on every mutation, keeps an entry live —
  advancing its valid version — when the delta group **provably cannot
  affect it**:

  ===============  ====================================================
  delta            keeps an entry with pattern label set ``L`` live iff
  ===============  ====================================================
  ``add_node``     its label is outside ``L`` (the node is isolated at
                   that point: it can seed no candidate set, and a ball
                   centered on it matches nothing)
  ``remove_node``  its label is outside ``L`` (incident-edge deltas
                   precede it in the same batch and are judged
                   separately; the node itself is already isolated)
  ``relabel``      both the old and the new label are outside ``L``
                   (candidacy is unchanged on both sides; edges — and
                   hence every ball — are untouched)
  ``add_edge`` /   **global relations** (``dual``, ``sim``): either
  ``remove_edge``  endpoint's label is outside ``L`` — an edge is only
                   ever consulted as a witness between two candidates,
                   and a node whose label is outside ``L`` is never a
                   candidate.  **Ball-based algorithms** (``match``,
                   ``match-plus``, entries stamped with the pattern
                   diameter ``d_Q``): no *candidate* — no node with a
                   label in ``L`` — lies within undirected distance
                   ``d_Q`` of either endpoint.  Such an edge cannot
                   change any ball's candidate membership: a candidate
                   entering or leaving some ``B(w, d_Q)`` would need a
                   shortest path through the edge, whose prefix reaches
                   the nearer endpoint within ``d_Q`` — contradiction.
                   Non-candidate ball members are invisible to dual
                   simulation (sim sets hold only label-compatible
                   nodes and witness edges join two candidates), so
                   every ball's match outcome is unchanged.  Distances
                   are measured by one BFS from all edge-delta
                   endpoints over the delivery-time graph *augmented
                   with the group's removed edges* (and through its
                   removed nodes): the augmented edge set is a superset
                   of every intermediate state's, so its distances
                   lower-bound theirs and the check is sound for every
                   delta in the group, additions and removals alike.
  ===============  ====================================================

Everything else invalidates the entry.  The rules err on the side of
dropping (e.g. an edge delta whose endpoint labels cannot be recovered
invalidates unconditionally, as does a ball-based entry stored without
a radius stamp), so a hit is always exactly what a fresh computation
would produce — the property the differential tests assert.

**Distributed entries** (:meth:`ResultCache.lookup_distributed` /
:meth:`ResultCache.store_distributed`) extend the machinery to a live
:class:`~repro.distributed.coordinator.Cluster`: the freshness stamp
is the cluster's per-site **version vector** instead of a
``DiGraph.version``, and the delta stream arrives through
``Cluster.subscribe`` (one delta per routed ``apply_update``).  Their
retention rule is *stricter* than the table above, because a
distributed entry replays the query's full bus log and per-site counts
byte-identically, not just its result: every node is a ball center in
the Section 4.3 protocol, so an **edge** delta can grow or shrink
boundary-crossing balls — and hence the accounted fetch traffic —
arbitrarily far from every candidate, where the ``d_Q`` distance rule
would wrongly retain.  Edge deltas therefore always drop distributed
entries.  **Node** deltas whose labels are disjoint from the entry's
pattern labels provably change nothing a fresh run would observe: an
added node starts isolated (a silent local singleton ball, appended
after every existing center), a removed node is isolated by the delta
ordering contract (its incident-edge removals, delivered first,
already dropped the entry if it had any), and a relabel changes
neither ball membership nor record sizes (fetch units are ``1 +
degree``) nor candidacy outside the pattern's labels.  Distributed
entries are engine-independent (the engines' output-identity contract
makes one entry valid for every engine).

:class:`CacheStats` exposes hit/miss/store/invalidation counters; all
cache operations are thread-safe (one lock, held only for dict work).
The cache also hosts the **single-flight table** services coalesce
duplicate computations on (:meth:`ResultCache.begin_flight`), so
several services sharing one store — one ``cache=`` passed to each, or
the distributed result store every cluster carries — elect one leader
per key across all of them: a miss storm costs one computation.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DiGraph,
    GraphDelta,
    Label,
)

#: Algorithms whose results depend on ball topology: edge deltas
#: invalidate their entries unless they are provably too far from every
#: candidate (see the module docstring's rule table).
BALL_BASED_ALGORITHMS = frozenset({"match", "match-plus"})

#: The algorithm slot distributed entries are keyed under.  It never
#: collides with a centralized key: centralized entries are keyed by a
#: graph-subscription token, distributed ones by a cluster-subscription
#: token, and tokens are allocated from one shared counter.
DISTRIBUTED_ALGORITHM = "distributed"

#: Sentinels for the distance digest: a label the BFS never reached is
#: "infinitely far", and a missing labels_raw lookup must not collide
#: with ``None`` (a legal label).
_FAR = float("inf")
_DEPTH_MISS = object()


@dataclass
class CacheStats:
    """Counters for one :class:`ResultCache`.

    Attributes
    ----------
    hits / misses:
        Lookup outcomes.
    stores:
        Entries written (one per computed miss).
    invalidations:
        Entries dropped because a delta could have affected them.
    retained:
        Entry×delta-group combinations that *survived* invalidation —
        the precision the label rules buy over flush-on-any-mutation.
    evictions:
        Entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0
    retained: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry:
    """One cached result.

    ``radius`` is the pattern diameter ``d_Q`` the result's balls were
    bounded by — the distance horizon of the ball-based edge-delta rule.
    (For ``match-plus`` the stored original-pattern diameter is an upper
    bound on the minimized pattern's, which only makes the rule more
    conservative.)  ``None`` means "unknown": edge deltas then drop the
    entry unconditionally, the pre-PR-5 behavior.
    """

    __slots__ = (
        "payload", "label_set", "ball_based", "valid_version", "radius",
    )

    def __init__(
        self,
        payload: object,
        label_set: FrozenSet[Label],
        ball_based: bool,
        valid_version: int,
        radius: Optional[int] = None,
    ) -> None:
        self.payload = payload
        self.label_set = label_set
        self.ball_based = ball_based
        self.valid_version = valid_version
        self.radius = radius


class _GraphSubscription:
    """The cache's listener on one data graph's delta stream.

    Held strongly by the cache (the graph itself only holds a weakref),
    and holding the graph weakly in turn, so neither keeps the other
    alive.  When the graph dies, the weakref callback purges its
    entries.
    """

    __slots__ = ("token", "graph_ref", "keys", "_cache_ref", "__weakref__")

    def __init__(self, token: int, graph: DiGraph, cache: "ResultCache") -> None:
        self.token = token
        self._cache_ref = weakref.ref(cache)
        self.keys: Set[tuple] = set()
        self.graph_ref = weakref.ref(
            graph, lambda _ref, t=token: self._purge(t)
        )
        graph.subscribe(self)

    def _purge(self, token: int) -> None:
        cache = self._cache_ref()
        if cache is not None:
            cache._drop_graph(token)

    def on_graph_deltas(self, deltas: Tuple[GraphDelta, ...]) -> None:
        cache = self._cache_ref()
        if cache is not None:
            cache._on_deltas(self, deltas)


class _ClusterSubscription:
    """The cache's listener on one cluster's routed-delta stream.

    The distributed twin of :class:`_GraphSubscription`: held strongly
    by the cache, holding the cluster weakly, purging the cluster's
    entries when it dies.  ``valid_version`` of its entries is the
    cluster's version vector (a tuple), not a scalar graph version.
    """

    __slots__ = ("token", "cluster_ref", "keys", "_cache_ref", "__weakref__")

    def __init__(self, token: int, cluster, cache: "ResultCache") -> None:
        self.token = token
        self._cache_ref = weakref.ref(cache)
        self.keys: Set[tuple] = set()
        self.cluster_ref = weakref.ref(
            cluster, lambda _ref, t=token: self._purge(t)
        )
        cluster.subscribe(self)

    def _purge(self, token: int) -> None:
        cache = self._cache_ref()
        if cache is not None:
            cache._drop_graph(token)

    def on_cluster_deltas(self, deltas: Tuple[GraphDelta, ...]) -> None:
        cache = self._cache_ref()
        if cache is not None:
            cache._on_cluster_deltas(self, deltas)


class ResultCache:
    """LRU cache of canonical-position-encoded matching results."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._subscriptions: "weakref.WeakKeyDictionary[DiGraph, _GraphSubscription]" = (
            weakref.WeakKeyDictionary()
        )
        self._cluster_subscriptions: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        #: token -> graph OR cluster subscription (one shared counter,
        #: so keys of the two kinds can never collide in ``_entries``).
        self._by_token: Dict[int, object] = {}
        self._next_token = 0
        # Single-flight table (see ``begin_flight``): key -> the
        # leader's done event.  Its own lock, never held while waiting.
        self._flights: Dict[object, threading.Event] = {}
        self._flight_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self,
        graph: DiGraph,
        canonical_key: tuple,
        algorithm: str,
        engine: str,
    ) -> Optional[object]:
        """The cached payload, or ``None`` on a miss.

        A hit requires the entry's valid version to equal the graph's
        *current* version — mutations buffered in an open ``batch()``
        (version bumped, deltas undelivered) thus read as misses.
        """
        with self._lock:
            subscription = self._subscriptions.get(graph)
            if subscription is None:
                self.stats.misses += 1
                return None
            key = (subscription.token, canonical_key, algorithm, engine)
            entry = self._entries.get(key)
            if entry is None or entry.valid_version != graph.version:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.payload

    def store(
        self,
        graph: DiGraph,
        canonical_key: tuple,
        algorithm: str,
        engine: str,
        label_set: FrozenSet[Label],
        payload: object,
        computed_version: Optional[int] = None,
        radius: Optional[int] = None,
    ) -> None:
        """Insert (or refresh) one computed result.

        ``computed_version`` is the ``graph.version`` the caller read
        *before* computing ``payload``.  If the graph has moved since,
        the payload describes a past state — and later delta deliveries
        would judge only *future* mutations against it, never the missed
        one — so the store is refused outright rather than inserting an
        entry that could be resurrected stale.

        ``radius`` is the pattern diameter; for ball-based algorithms it
        enables the distance-based edge-delta retention rule (omitting
        it keeps the always-drop behavior).
        """
        with self._lock:
            version = graph.version
            if computed_version is not None and computed_version != version:
                return  # raced with a mutation: the payload is already old
            subscription = self._subscriptions.get(graph)
            if subscription is None:
                token = self._next_token
                self._next_token += 1
                subscription = _GraphSubscription(token, graph, self)
                self._subscriptions[graph] = subscription
                self._by_token[token] = subscription
            key = (subscription.token, canonical_key, algorithm, engine)
            self._entries[key] = _Entry(
                payload,
                label_set,
                algorithm in BALL_BASED_ALGORITHMS,
                version,
                radius,
            )
            self._entries.move_to_end(key)
            subscription.keys.add(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                owner = self._by_token.get(evicted_key[0])
                if owner is not None:
                    owner.keys.discard(evicted_key)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (subscriptions stay, for their graphs' reuse)."""
        with self._lock:
            self._entries.clear()
            for subscription in self._by_token.values():
                subscription.keys.clear()

    # ------------------------------------------------------------------
    # Distributed entries (cluster-keyed, version-vector gated)
    # ------------------------------------------------------------------
    def lookup_distributed(
        self, cluster, canonical_key: tuple, radius: int
    ) -> Optional[object]:
        """The cached run-report payload for ``cluster``, or ``None``.

        A hit requires the entry's valid version vector to equal the
        cluster's *current* :meth:`~Cluster.version_vector` — any
        ``apply_update`` since the store reads as a miss unless the
        delta deliveries provably retained the entry.  The key carries
        no engine slot: the engines' output-identity contract makes one
        entry valid for every engine choice.
        """
        with self._lock:
            subscription = self._cluster_subscriptions.get(cluster)
            if subscription is None:
                self.stats.misses += 1
                return None
            key = (
                subscription.token, canonical_key, DISTRIBUTED_ALGORITHM,
                radius,
            )
            entry = self._entries.get(key)
            if entry is None or entry.valid_version != cluster.version_vector():
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry.payload

    def store_distributed(
        self,
        cluster,
        canonical_key: tuple,
        radius: int,
        label_set: FrozenSet[Label],
        payload: object,
        computed_vector: Optional[Tuple[int, ...]] = None,
    ) -> None:
        """Insert one computed distributed run report.

        ``computed_vector`` is the version vector the run was evaluated
        under (``DistributedRunReport.version_vector``); if the cluster
        has moved since, the store is refused — the missed update's
        delivery predates the entry and could never invalidate it.
        ``radius`` is the effective ball radius of the run (part of the
        key: different radii are different queries) and the ``d_Q``
        horizon of the edge-delta retention rule.
        """
        with self._lock:
            vector = cluster.version_vector()
            if computed_vector is not None and computed_vector != vector:
                return  # raced with apply_update: the payload is already old
            subscription = self._cluster_subscriptions.get(cluster)
            if subscription is None:
                token = self._next_token
                self._next_token += 1
                subscription = _ClusterSubscription(token, cluster, self)
                self._cluster_subscriptions[cluster] = subscription
                self._by_token[token] = subscription
            key = (
                subscription.token, canonical_key, DISTRIBUTED_ALGORITHM,
                radius,
            )
            self._entries[key] = _Entry(
                payload, label_set, True, vector, radius
            )
            self._entries.move_to_end(key)
            subscription.keys.add(key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                owner = self._by_token.get(evicted_key[0])
                if owner is not None:
                    owner.keys.discard(evicted_key)
                self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Single-flight table
    # ------------------------------------------------------------------
    def begin_flight(self, key: object) -> Optional[threading.Event]:
        """Claim leadership of one in-flight computation.

        Returns ``None`` when the caller became the leader (it must
        compute, publish, and call :meth:`end_flight`), or the current
        leader's done event to wait on before re-running the lookup.
        Hosting the table on the cache — not the service — means every
        service sharing this store (a shared ``cache=`` or a cluster's
        result store) coalesces on the same leader.
        """
        with self._flight_lock:
            event = self._flights.get(key)
            if event is None:
                self._flights[key] = threading.Event()
                return None
            return event

    def end_flight(self, key: object) -> None:
        """Release leadership and wake every waiter (idempotent)."""
        with self._flight_lock:
            event = self._flights.pop(key, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------
    # Delta invalidation
    # ------------------------------------------------------------------
    def _on_deltas(
        self,
        subscription: _GraphSubscription,
        deltas: Tuple[GraphDelta, ...],
    ) -> None:
        with self._lock:
            if not subscription.keys:
                return
            graph = subscription.graph_ref()
            if graph is None:  # racing with graph teardown
                self._drop_graph(subscription.token)
                return
            self._judge_group(subscription, graph, deltas, graph.version)

    def _on_cluster_deltas(
        self,
        subscription: _ClusterSubscription,
        deltas: Tuple[GraphDelta, ...],
    ) -> None:
        # Delivered by ``Cluster.apply_update`` under the protocol lock,
        # *after* routing: the version vector describes the post-delta
        # state, which is what a surviving entry's new valid version
        # must be.  A distributed entry replays the query's bus log, so
        # retention must preserve the *observation*, not just the
        # result: edge deltas always drop (they can change fetch
        # traffic around any ball center, however far from every
        # candidate), node deltas retain only when their labels are
        # disjoint from the entry's pattern labels (see the module
        # docstring for why that provably preserves the full replay).
        with self._lock:
            if not subscription.keys:
                return
            cluster = subscription.cluster_ref()
            if cluster is None:  # racing with cluster teardown
                self._drop_graph(subscription.token)
                return
            version = cluster.version_vector()
            node_kinds = (ADD_NODE, REMOVE_NODE, RELABEL)
            nodes_only = all(delta.kind in node_kinds for delta in deltas)
            touched: Set[Label] = set()
            for delta in deltas:
                touched.add(delta.label)
                if delta.kind == RELABEL:
                    touched.add(delta.old_label)
            survivors = []
            dropped = []
            for key in subscription.keys:
                entry = self._entries.get(key)
                if entry is None:
                    dropped.append(key)  # evicted; tidy the key set
                    continue
                if nodes_only and touched.isdisjoint(entry.label_set):
                    survivors.append(entry)
                else:
                    del self._entries[key]
                    dropped.append(key)
                    self.stats.invalidations += 1
            for key in dropped:
                subscription.keys.discard(key)
            for entry in survivors:
                entry.valid_version = version
            self.stats.retained += len(survivors)

    def _judge_group(
        self, subscription, graph, deltas, version
    ) -> None:
        """Judge one delta group against a graph subscription's entries.

        ``graph`` is the delivery-time state and ``version`` the
        freshness stamp surviving entries advance to.
        """
        digest = self._digest_group(graph, deltas)
        label_depths = self._label_depths_if_needed(
            graph, deltas, digest, subscription
        )
        survivors = []
        dropped = []
        for key in subscription.keys:
            entry = self._entries.get(key)
            if entry is None:
                dropped.append(key)  # evicted; tidy the key set
                continue
            if self._group_harmless(digest, entry, label_depths):
                survivors.append(entry)
            else:
                del self._entries[key]
                dropped.append(key)
                self.stats.invalidations += 1
        for key in dropped:
            subscription.keys.discard(key)
        for entry in survivors:
            entry.valid_version = version
        self.stats.retained += len(survivors)

    @staticmethod
    def _digest_group(
        graph: DiGraph, deltas: Tuple[GraphDelta, ...]
    ) -> Tuple[Set[Label], bool, List[Tuple[object, object]], bool]:
        """Resolve one delta group's touched labels, once for all entries.

        Returns ``(node_labels, any_edge, edge_label_pairs, unjudgeable)``:
        every label a node-lifecycle/relabel delta touches, whether any
        edge delta occurred, the (source label, target label) pair of
        each edge delta, and whether anything defied classification
        (unknown kind or unrecoverable endpoint — drops every entry).
        Endpoint labels resolve against the graph, falling back to the
        group's own ``remove_node`` deltas: a removed endpoint has left
        the label map by delivery time, but its removal delta (always in
        the same batch) still carries the label.
        """
        removed_labels: Dict[object, Label] = {
            delta.node: delta.label
            for delta in deltas
            if delta.kind == REMOVE_NODE
        }
        node_labels: Set[Label] = set()
        edge_pairs: List[Tuple[object, object]] = []
        any_edge = False
        unjudgeable = False
        for delta in deltas:
            kind = delta.kind
            if kind == ADD_NODE or kind == REMOVE_NODE:
                node_labels.add(delta.label)
            elif kind == RELABEL:
                node_labels.add(delta.label)
                node_labels.add(delta.old_label)
            elif kind == ADD_EDGE or kind == REMOVE_EDGE:
                any_edge = True
                labels = []
                for node in (delta.source, delta.target):
                    if node in graph:
                        labels.append(graph.label(node))
                    elif node in removed_labels:
                        labels.append(removed_labels[node])
                    else:
                        unjudgeable = True  # cannot prove anything
                        break
                else:
                    edge_pairs.append((labels[0], labels[1]))
            else:
                unjudgeable = True  # unknown delta kind: be safe
        return node_labels, any_edge, edge_pairs, unjudgeable

    def _label_depths_if_needed(
        self,
        graph: DiGraph,
        deltas: Tuple[GraphDelta, ...],
        digest,
        subscription: _GraphSubscription,
    ) -> Optional[Dict[Label, int]]:
        """The edge-delta distance digest, when some entry can use it.

        Returns ``label -> minimum undirected distance from any
        edge-delta endpoint``, computed by one BFS bounded by the
        largest radius among the ball-based entries that the node-label
        rule alone would keep — or ``None`` when no entry needs it (no
        edge deltas, an unjudgeable group, or no radius-stamped
        ball-based survivor candidates), so mutation storms on graphs
        without ball-based entries never pay for a BFS.
        """
        node_labels, any_edge, _, unjudgeable = digest
        if not any_edge or unjudgeable:
            return None
        depth_limit = -1
        for key in subscription.keys:
            entry = self._entries.get(key)
            if (
                entry is not None
                and entry.ball_based
                and entry.radius is not None
                and node_labels.isdisjoint(entry.label_set)
            ):
                depth_limit = max(depth_limit, entry.radius)
        if depth_limit < 0:
            return None
        return self._label_depths(graph, deltas, depth_limit)

    @staticmethod
    def _label_depths(
        graph: DiGraph, deltas: Tuple[GraphDelta, ...], depth_limit: int
    ) -> Dict[Label, int]:
        """Min distance from the group's edge-delta endpoints per label.

        One undirected BFS from *all* edge-delta endpoints (so the
        per-label depth is the minimum over every endpoint) over the
        delivery-time graph **augmented with the group's removed
        edges**.  The augmented edge set is a superset of every
        intermediate state of the group (final = pre ∪ additions −
        removals, hence every intermediate ⊆ final ∪ removals), so the
        BFS distances lower-bound the distances at each delta's own
        application point — "no label in ``L`` within ``d``" here
        implies it for every step, additions and removals alike.  Nodes
        removed in the group are traversed through the overlay (their
        incident edges are all in the group, by the ``remove_node``
        batch contract) but contribute no label: the node-label rule
        already dropped any entry whose label set they touch.
        """
        overlay: Dict[object, Set[object]] = {}
        seeds: Set[object] = set()
        for delta in deltas:
            kind = delta.kind
            if kind == ADD_EDGE or kind == REMOVE_EDGE:
                seeds.add(delta.source)
                seeds.add(delta.target)
                if kind == REMOVE_EDGE:
                    overlay.setdefault(delta.source, set()).add(delta.target)
                    overlay.setdefault(delta.target, set()).add(delta.source)
        labels_raw = graph.labels_raw()
        depths: Dict[Label, int] = {}
        seen: Set[object] = set(seeds)
        frontier = list(seeds)
        for node in frontier:
            label = labels_raw.get(node, _DEPTH_MISS)
            if label is not _DEPTH_MISS and label not in depths:
                depths[label] = 0
        depth = 0
        while frontier and depth < depth_limit:
            next_frontier = []
            for node in frontier:
                if node in labels_raw:
                    neighborhood = [
                        graph.successors_raw(node),
                        graph.predecessors_raw(node),
                        overlay.get(node, ()),
                    ]
                else:  # removed in this group: overlay holds its edges
                    neighborhood = [overlay.get(node, ())]
                for adjacency in neighborhood:
                    for neighbor in adjacency:
                        if neighbor in seen:
                            continue
                        seen.add(neighbor)
                        label = labels_raw.get(neighbor, _DEPTH_MISS)
                        if label is not _DEPTH_MISS and label not in depths:
                            depths[label] = depth + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
            depth += 1
        return depths

    @staticmethod
    def _group_harmless(
        digest, entry: _Entry, label_depths: Optional[Dict[Label, int]]
    ) -> bool:
        """True iff no delta in the digested group can change ``entry``.

        Implements the rule table in the module docstring as pure set
        work — the per-group label resolution already happened in
        :meth:`_digest_group` (and the per-group distance BFS in
        :meth:`_label_depths_if_needed`), so judging an entry does no
        graph traversal of its own.
        """
        node_labels, any_edge, edge_pairs, unjudgeable = digest
        if unjudgeable:
            return False
        labels = entry.label_set
        if not node_labels.isdisjoint(labels):
            return False
        if not any_edge:
            return True
        if entry.ball_based:
            radius = entry.radius
            if radius is None or label_depths is None:
                return False  # no distance information: any edge may matter
            # Keep iff no candidate label occurs within d_Q of any
            # edge-delta endpoint — then no ball's candidate membership
            # (nor its candidate-to-candidate edge set) can have changed.
            return all(
                label_depths.get(label, _FAR) > radius for label in labels
            )
        return all(
            source not in labels or target not in labels
            for source, target in edge_pairs
        )

    def _drop_graph(self, token: int) -> None:
        with self._lock:
            subscription = self._by_token.pop(token, None)
            if subscription is None:
                return
            for key in subscription.keys:
                self._entries.pop(key, None)
            subscription.keys.clear()
