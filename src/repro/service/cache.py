"""Delta-invalidated LRU result cache for the query service.

Entries are keyed by ``(delta source, key, algorithm)`` and hold results
in a *canonical-position-indexed* encoding (see
:mod:`repro.service.executor` for the encoders), so one entry serves
every pattern isomorphic to the one that populated it.  A *delta
source* is either a data graph (:class:`~repro.core.digraph.DiGraph`;
``key`` is the pattern's canonical key) or a live
:class:`~repro.distributed.coordinator.Cluster` (algorithm
``"distributed"``; ``key`` is ``(canonical key, radius)``).  Both expose
the same two things: a ``version`` freshness stamp — the graph's
mutation counter, the cluster's per-site version vector — and
``subscribe(listener)``, which delivers ``on_graph_deltas(deltas)`` with
the new version already in place.  The cache has one path for both.

Freshness is enforced two ways, belt and suspenders:

* every entry records the source ``version`` it is valid for, and a
  lookup only hits when that matches the source's current version —
  a mutation the cache never heard about (or one inside a still-open
  ``DiGraph.batch()``) can therefore never serve a stale result; and
  :meth:`ResultCache.store` refuses a payload whose pre-compute version
  no longer matches, so a mutation racing a long-running query cannot
  plant an entry that later deliveries would never know to invalidate;
* the cache *subscribes* to each source's
  :class:`~repro.core.digraph.GraphDelta` stream and, instead of
  flushing the source's entries on every mutation, keeps an entry live —
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
  ``add_edge`` /   the entry is a **global relation** (``dual``,
  ``remove_edge``  ``sim``) and either endpoint's label is outside
                   ``L``: an edge is only ever consulted as a witness
                   between two candidates, and a node whose label is
                   outside ``L`` is never a candidate.  **Ball-based**
                   entries (``match``, ``match-plus``, ``distributed``)
                   always drop.
  ===============  ====================================================

Everything else invalidates the entry.  The rules err on the side of
dropping (an edge delta whose endpoint labels cannot be recovered drops
every global entry too), so a hit is always exactly what a fresh
computation would produce — the property the differential tests assert.

The node rules also hold for distributed entries, which replay the
query's full bus log and per-site counts, not just its result: an added
node starts isolated (a silent local singleton ball, appended after
every existing center), a removed node is isolated by the delta ordering
contract, and a relabel changes neither ball membership nor record
sizes (fetch units are ``1 + degree``) nor candidacy outside ``L``.  An
edge delta, though, can change the fetch traffic around any ball
center, however far from every candidate.  Endpoint labels are resolved
only when a global entry needs them, so a cluster source never needs a
label lookup.

:class:`CacheStats` exposes hit/miss/store/invalidation counters, and
every live cache — a service's and each cluster's result store alike —
is folded into the ``cache.*`` metrics.  All cache operations are
thread-safe (one lock, held only for dict work).  The cache also hosts
the **single-flight table** services coalesce duplicate computations on
(:meth:`ResultCache.begin_flight`), so several services sharing one
store — one ``cache=`` passed to each, or the result store every
cluster carries — elect one leader per key across all of them: a miss
storm costs one computation.
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
    GraphDelta,
    Label,
)
from repro.obs.metrics import get_registry as _obs_registry

#: Algorithms whose results depend on ball topology: every edge delta
#: invalidates their entries (see the module docstring's rule table).
BALL_BASED_ALGORITHMS = frozenset({"match", "match-plus", "distributed"})


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


#: Every live cache, for the metrics collector below (weak: a dropped
#: cache stops being sampled without unregistration).
_ALL_CACHES: "weakref.WeakSet" = weakref.WeakSet()

_CACHE_FIELDS = (
    "hits", "misses", "stores", "invalidations", "retained", "evictions",
)


def _sample_cache_metrics():
    """Snapshot-time fold of every live cache's counters."""
    totals = {name: 0 for name in _CACHE_FIELDS}
    for cache in list(_ALL_CACHES):
        for name in _CACHE_FIELDS:
            totals[name] += getattr(cache.stats, name)
    return [(f"cache.{name}", {}, totals[name]) for name in _CACHE_FIELDS]


_obs_registry().register_collector(_sample_cache_metrics, _sample_cache_metrics)


class _Entry:
    """One cached result."""

    __slots__ = ("payload", "label_set", "ball_based", "valid_version")

    def __init__(
        self,
        payload: object,
        label_set: FrozenSet[Label],
        ball_based: bool,
        valid_version: object,
    ) -> None:
        self.payload = payload
        self.label_set = label_set
        self.ball_based = ball_based
        self.valid_version = valid_version


class _Subscription:
    """The cache's listener on one delta source.

    Held strongly by the cache (the source itself only holds a weakref),
    and holding the source weakly in turn, so neither keeps the other
    alive.  When the source dies, the weakref callback purges its
    entries.
    """

    __slots__ = ("token", "source_ref", "keys", "_cache_ref", "__weakref__")

    def __init__(self, token: int, source, cache: "ResultCache") -> None:
        self.token = token
        self._cache_ref = weakref.ref(cache)
        self.keys: Set[tuple] = set()
        self.source_ref = weakref.ref(
            source, lambda _ref, t=token: self._purge(t)
        )
        source.subscribe(self)

    def _purge(self, token: int) -> None:
        cache = self._cache_ref()
        if cache is not None:
            cache._drop_source(token)

    def on_graph_deltas(self, deltas: Tuple[GraphDelta, ...]) -> None:
        cache = self._cache_ref()
        if cache is not None:
            cache._on_deltas(self, deltas)


class _DeltaGroup:
    """One delivered delta group, digested once for every entry it judges.

    ``node_labels`` holds every label a node-lifecycle or relabel delta
    touches; ``judgeable`` turns false on anything that defies the rule
    table (an unknown delta kind, an unrecoverable edge endpoint), which
    drops every entry the group judges.
    """

    __slots__ = (
        "source", "deltas", "node_labels", "has_edges", "judgeable",
        "_edge_labels",
    )

    def __init__(self, source, deltas: Tuple[GraphDelta, ...]) -> None:
        self.source = source
        self.deltas = deltas
        self.node_labels: Set[Label] = set()
        self.has_edges = False
        self.judgeable = True
        self._edge_labels: Optional[List[Tuple[Label, Label]]] = None
        for delta in deltas:
            kind = delta.kind
            if kind == ADD_EDGE or kind == REMOVE_EDGE:
                self.has_edges = True
            elif kind == ADD_NODE or kind == REMOVE_NODE:
                self.node_labels.add(delta.label)
            elif kind == RELABEL:
                self.node_labels.add(delta.label)
                self.node_labels.add(delta.old_label)
            else:
                self.judgeable = False  # unknown delta kind: be safe

    def harmless(self, entry: _Entry) -> bool:
        """True iff no delta in the group can change ``entry``."""
        labels = entry.label_set
        if not self.judgeable or not self.node_labels.isdisjoint(labels):
            return False
        if not self.has_edges:
            return True
        if entry.ball_based:
            return False
        edge_labels = self._resolve_edge_labels()
        return self.judgeable and all(
            source not in labels or target not in labels
            for source, target in edge_labels
        )

    def _resolve_edge_labels(self) -> List[Tuple[Label, Label]]:
        """The (source label, target label) pair of each edge delta.

        Only global entries ask, and only a ``DiGraph`` holds them (a
        cluster's entries are all ball-based).  Resolved on first need
        against the graph's live label map,
        falling back to the group's own ``remove_node`` deltas: a
        removed endpoint has left the label map by delivery time, but
        its removal delta (always in the same batch) still carries the
        label.
        """
        if self._edge_labels is not None:
            return self._edge_labels
        labels = self.source.labels_raw()
        removed = {
            delta.node: delta.label
            for delta in self.deltas
            if delta.kind == REMOVE_NODE
        }

        def label_of(node):
            return labels[node] if node in labels else removed[node]

        try:
            self._edge_labels = [
                (label_of(delta.source), label_of(delta.target))
                for delta in self.deltas
                if delta.kind == ADD_EDGE or delta.kind == REMOVE_EDGE
            ]
        except KeyError:  # an endpoint no delta names: prove nothing
            self.judgeable = False
            self._edge_labels = []
        return self._edge_labels


class ResultCache:
    """LRU cache of canonical-position-encoded matching results."""

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self._subscriptions: "weakref.WeakKeyDictionary[object, _Subscription]" = (
            weakref.WeakKeyDictionary()
        )
        #: token -> subscription (tokens key ``_entries``, so entries of
        #: different sources can never collide).
        self._by_token: Dict[int, _Subscription] = {}
        self._next_token = 0
        # Single-flight table (see ``begin_flight``): key -> the
        # leader's done event.  Its own lock, never held while waiting.
        self._flights: Dict[object, threading.Event] = {}
        self._flight_lock = threading.Lock()
        _ALL_CACHES.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, source, key: tuple, algorithm: str) -> Optional[object]:
        """The cached payload, or ``None`` on a miss.

        A hit requires the entry's valid version to equal the source's
        *current* ``version`` — mutations buffered in an open
        ``DiGraph.batch()`` (version bumped, deltas undelivered) thus
        read as misses.
        """
        with self._lock:
            subscription = self._subscriptions.get(source)
            if subscription is None:
                self.stats.misses += 1
                return None
            entry_key = (subscription.token, key, algorithm)
            entry = self._entries.get(entry_key)
            if entry is None or entry.valid_version != source.version:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(entry_key)
            self.stats.hits += 1
            return entry.payload

    def store(
        self,
        source,
        key: tuple,
        algorithm: str,
        label_set: FrozenSet[Label],
        payload: object,
        computed_version: object = None,
    ) -> None:
        """Insert (or refresh) one computed result.

        ``computed_version`` is the ``source.version`` the caller read
        *before* computing ``payload``.  If the source has moved since,
        the payload describes a past state — and later delta deliveries
        would judge only *future* mutations against it, never the missed
        one — so the store is refused outright rather than inserting an
        entry that could be resurrected stale.
        """
        with self._lock:
            version = source.version
            if computed_version is not None and computed_version != version:
                return  # raced with a mutation: the payload is already old
            subscription = self._subscriptions.get(source)
            if subscription is None:
                token = self._next_token
                self._next_token += 1
                subscription = _Subscription(token, source, self)
                self._subscriptions[source] = subscription
                self._by_token[token] = subscription
            entry_key = (subscription.token, key, algorithm)
            self._entries[entry_key] = _Entry(
                payload,
                label_set,
                algorithm in BALL_BASED_ALGORITHMS,
                version,
            )
            self._entries.move_to_end(entry_key)
            subscription.keys.add(entry_key)
            self.stats.stores += 1
            while len(self._entries) > self.max_entries:
                evicted_key, _ = self._entries.popitem(last=False)
                owner = self._by_token.get(evicted_key[0])
                if owner is not None:
                    owner.keys.discard(evicted_key)
                self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (subscriptions stay, for their sources' reuse)."""
        with self._lock:
            self._entries.clear()
            for subscription in self._by_token.values():
                subscription.keys.clear()

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
        subscription: _Subscription,
        deltas: Tuple[GraphDelta, ...],
    ) -> None:
        with self._lock:
            if not subscription.keys:
                return
            source = subscription.source_ref()
            if source is None:  # racing with source teardown
                self._drop_source(subscription.token)
                return
            group = _DeltaGroup(source, deltas)
            survivors = []
            dropped = []
            for key in subscription.keys:
                entry = self._entries.get(key)
                if entry is None:
                    dropped.append(key)  # evicted; tidy the key set
                    continue
                if group.harmless(entry):
                    survivors.append(entry)
                else:
                    del self._entries[key]
                    dropped.append(key)
                    self.stats.invalidations += 1
            for key in dropped:
                subscription.keys.discard(key)
            # Deliveries arrive with the post-delta version in place:
            # that is the state a surviving entry is now valid for.
            version = source.version
            for entry in survivors:
                entry.valid_version = version
            self.stats.retained += len(survivors)

    def _drop_source(self, token: int) -> None:
        with self._lock:
            subscription = self._by_token.pop(token, None)
            if subscription is None:
                return
            for key in subscription.keys:
                self._entries.pop(key, None)
            subscription.keys.clear()
