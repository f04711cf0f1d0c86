"""Site workers: per-fragment dual filter, ball construction and matching.

Each worker owns a :class:`~repro.distributed.fragment.Fragment`.  Per
query it first takes part in the distributed dual filter
(:mod:`repro.distributed.sitefilter`: :meth:`SiteWorker.begin_query`,
then :meth:`SiteWorker.filter_round` until the coordinator stops), and
then evaluates the per-ball part of algorithm ``Match`` for every ball
centered at one of its *surviving* nodes — the owned nodes inside the
global dual-simulation relation; a ball around any other center cannot
match.  When a ball's BFS crosses the fragment boundary,
the worker *fetches* the remote node records (label + adjacency) from the
owning site through the message bus — the accounted data shipment.  A
per-worker cache ensures each remote record is shipped at most once per
query, so the total shipment is bounded by the union of the
boundary-crossing balls, which is the Section 4.3 bound.

Every ball runs the reference per-ball step on every engine:
:meth:`SiteWorker.build_ball` (fetch-accounted), then the set-based
:func:`~repro.core.dualsim.dual_simulation` fixpoint, then
:func:`~repro.core.strong.extract_max_perfect_subgraph`.  The dual
filter leaves each site a few balls per query, and a compiled per-site
index measured no faster on them, so the sites keep this one substrate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.ball import Ball
from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DiGraph,
    GraphDelta,
    Label,
    Node,
)
from repro.core.dualsim import dual_simulation
from repro.core.pattern import Pattern
from repro.core.result import PerfectSubgraph
from repro.core.strong import extract_max_perfect_subgraph
from repro.distributed.fragment import Fragment
from repro.distributed.network import MessageBus
from repro.distributed.sitefilter import (
    FilterEntry,
    FilterOutbox,
    SiteFilter,
)
from repro.exceptions import DistributedError
from repro.obs.trace import capture as _obs_capture

#: ``label, successors, predecessors`` — the record served for one node.
NodeRecord = Tuple[Label, Set[Node], Set[Node]]

#: A site's answer to one dual-filter round: its sends, by receiving
#: site, and how many of its owned nodes still survive.
FilterReply = Tuple[FilterOutbox, int]


class SiteWorker:
    """One site of the simulated cluster."""

    def __init__(self, fragment: Fragment, bus: MessageBus) -> None:
        self.fragment = fragment
        self.bus = bus
        self._peers: Dict[int, "SiteWorker"] = {}
        self._remote_cache: Dict[Node, NodeRecord] = {}
        #: Queries this worker evaluated.
        self.queries_served = 0
        #: Per-query fetch telemetry (reset with the remote cache):
        #: batched fetch calls, records shipped, bus units charged.
        self.fetch_round_trips = 0
        self.fetch_records = 0
        self.fetch_units = 0
        #: The traced ``site.evaluate`` subtree of the last query, when
        #: tracing was enabled during it (``None`` otherwise).  The
        #: coordinator grafts it under its ``distributed.run`` span.
        self.last_span = None
        #: The query in flight — ``(pattern, radius)`` — and its dual
        #: filter, from ``begin_query`` to ``match_local``.
        self._query: Optional[Tuple[Pattern, int]] = None
        self._filter: Optional[SiteFilter] = None

    # ------------------------------------------------------------------
    # Cluster wiring
    # ------------------------------------------------------------------
    def connect(self, peers: Dict[int, "SiteWorker"]) -> None:
        """Register the other sites (done once by the coordinator)."""
        self._peers = peers

    def serve_node(self, node: Node) -> NodeRecord:
        """Answer a fetch for an owned node: label plus full adjacency."""
        if not self.fragment.owns(node):
            raise DistributedError(
                f"site {self.fragment.site_id} does not own {node!r}"
            )
        return (
            self.fragment.labels[node],
            set(self.fragment.succ[node]),
            set(self.fragment.pred[node]),
        )

    # ------------------------------------------------------------------
    # Remote access with accounting
    # ------------------------------------------------------------------
    def _record_for(self, node: Node) -> NodeRecord:
        """The record of any node, fetching (and charging) if remote."""
        if self.fragment.owns(node):
            return (
                self.fragment.labels[node],
                self.fragment.succ[node],
                self.fragment.pred[node],
            )
        cached = self._remote_cache.get(node)
        if cached is not None:
            return cached
        self._fetch_missing([node])
        return self._remote_cache[node]

    def _owner_of(self, node: Node) -> int:
        owner = self.fragment.remote_owner.get(node)
        if owner is None:
            # A node two hops outside the fragment: route by asking the
            # peer that owns it, discovered through the global directory
            # the coordinator supplies (peers dict keyed by site).
            owner = self._locate_owner(node)
        return owner

    def _fetch_missing(self, nodes: List[Node]) -> None:
        """Fetch and charge the records of uncached remote ``nodes``.

        The accounting granularity is the *record*: one ``fetch`` bus
        message of ``1 + degree`` units per node, exactly as if each had
        been requested alone.  Batching exists so a transport can ship a
        whole BFS layer's requests in one round trip (the process
        backend overrides this method); the protocol observation is
        identical either way.
        """
        self.fetch_round_trips += 1
        self.fetch_records += len(nodes)
        for node in nodes:
            owner = self._owner_of(node)
            record = self._peers[owner].serve_node(node)
            # One unit for the node record + one per incident edge.
            units = 1 + len(record[1]) + len(record[2])
            self.bus.send(owner, self.fragment.site_id, "fetch", units)
            self.fetch_units += units
            self._remote_cache[node] = record

    def _ensure_records(self, nodes: List[Node]) -> None:
        """Make every node's record available locally (batch-fetching)."""
        owns = self.fragment.owns
        cache = self._remote_cache
        missing = [
            node for node in nodes if not owns(node) and node not in cache
        ]
        if missing:
            self._fetch_missing(missing)

    def _locate_owner(self, node: Node) -> int:
        """Find the owner of a node not adjacent to this fragment."""
        for site, peer in self._peers.items():
            if peer.fragment.owns(node):
                return site
        raise DistributedError(f"no site owns node {node!r}")

    def clear_cache(self) -> None:
        """Drop fetched remote records (coordinator calls between queries)."""
        self._remote_cache.clear()
        self.fetch_round_trips = 0
        self.fetch_records = 0
        self.fetch_units = 0

    # ------------------------------------------------------------------
    # Mutation pipeline: owned-fragment delta application
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta, owner_of) -> None:
        """Apply one owned-fragment delta to this site's state.

        The per-site half of ``Cluster.apply_update``: patches the
        fragment dictionaries in place.  ``owner_of`` maps any node to
        its owning site, for refreshing the ``remote_owner`` routing
        table when an edge reaches off-site.

        Remote records cached from the previous query are dropped first
        (they may describe pre-update adjacency); the next query
        re-fetches — and the bus re-charges — them exactly as it would
        have anyway after the coordinator's per-query cache clear.
        """
        self._remote_cache.clear()
        fragment = self.fragment
        kind = delta.kind
        if kind == ADD_EDGE or kind == REMOVE_EDGE:
            source, target = delta.source, delta.target
            owns_source = fragment.owns(source)
            owns_target = fragment.owns(target)
            if not (owns_source or owns_target):
                raise DistributedError(
                    f"site {fragment.site_id} owns neither endpoint of "
                    f"({source!r}, {target!r})"
                )
            if kind == ADD_EDGE:
                if owns_source:
                    fragment.succ[source].add(target)
                    if not owns_target:
                        fragment.remote_owner[target] = owner_of[target]
                if owns_target:
                    fragment.pred[target].add(source)
                    if not owns_source:
                        fragment.remote_owner[source] = owner_of[source]
            else:
                if owns_source:
                    fragment.succ[source].discard(target)
                if owns_target:
                    fragment.pred[target].discard(source)
        elif kind == ADD_NODE:
            fragment.labels[delta.node] = delta.label
            fragment.succ[delta.node] = set()
            fragment.pred[delta.node] = set()
            fragment.remote_owner.pop(delta.node, None)
        elif kind == REMOVE_NODE:
            # Incident-edge deltas were applied first (the pipeline
            # decomposes node removals), so the node is isolated here.
            del fragment.labels[delta.node]
            del fragment.succ[delta.node]
            del fragment.pred[delta.node]
        elif kind == RELABEL:
            fragment.labels[delta.node] = delta.label
        else:  # pragma: no cover - the kinds above are exhaustive
            raise DistributedError(f"unknown graph delta kind {kind!r}")

    def forget_remote(self, node: Node) -> None:
        """Drop a (cluster-wide removed) node from the routing table."""
        self.fragment.remote_owner.pop(node, None)
        self._remote_cache.pop(node, None)

    # ------------------------------------------------------------------
    # Distributed ball construction + matching
    # ------------------------------------------------------------------
    def runtime_stats(self) -> Dict[str, object]:
        """Observability counters for this worker.

        The one stats shape every backend reports: the process runtime's
        ``stats`` command delegates here, so `Cluster.worker_stats()` is
        key-compatible wherever the workers live.
        """
        return {
            "site": self.fragment.site_id,
            # No site compiles an index; the key stays, always 0, because
            # the frozen benchmark (perfbench's ``worker.index_builds``)
            # reads it by name.
            "index_builds": 0,
            "queries_served": self.queries_served,
            "owned_nodes": self.fragment.num_nodes,
        }

    def build_ball(self, center: Node, radius: int) -> Ball:
        """Undirected BFS to ``radius`` across fragment boundaries.

        Identical node/edge content to the centralized
        :func:`repro.core.ball.extract_ball`; remote hops are fetched and
        accounted — batched per BFS layer, so the process transport pays
        one round trip per layer while the bus still charges one message
        per shipped record (every ball member's record is fetched, as
        before; only the request grouping differs).
        """
        distances: Dict[Node, int] = {center: 0}
        frontier: List[Node] = [center]
        self._ensure_records(frontier)
        depth = 0
        while frontier and depth < radius:
            next_frontier: List[Node] = []
            for node in frontier:
                _, successors, predecessors = self._record_for(node)
                for neighbor in successors | predecessors:
                    if neighbor not in distances:
                        distances[neighbor] = depth + 1
                        next_frontier.append(neighbor)
            self._ensure_records(next_frontier)
            frontier = next_frontier
            depth += 1

        subgraph = DiGraph()
        node_set = set(distances)
        for node in node_set:
            label, _, _ = self._record_for(node)
            subgraph.add_node(node, label)
        for node in node_set:
            _, successors, _ = self._record_for(node)
            for target in successors:
                if target in node_set:
                    subgraph.add_edge(node, target)
        return Ball(subgraph, center, radius, distances)

    def begin_query(
        self, pattern: Pattern, radius: Optional[int] = None
    ) -> FilterReply:
        """Start one query: reset per-query state and seed the dual filter.

        Returns round 0 of the filter, which travels back with the query
        broadcast.
        """
        if radius is None:
            radius = pattern.diameter
        self.clear_cache()
        self._query = (pattern, radius)
        self._filter = SiteFilter(self.fragment, pattern)
        return self._filter.announce(), len(self._filter.survivors())

    def filter_round(self, inbox: Iterable[FilterEntry]) -> FilterReply:
        """One dual-filter round k ≥ 1 over what the peers sent."""
        site_filter = self._filter_in_flight()
        return site_filter.refine(inbox), len(site_filter.survivors())

    def match_local(self) -> List[PerfectSubgraph]:
        """Run per-ball strong simulation around every surviving center.

        Evaluates the query :meth:`begin_query` started, once its dual
        filter has converged, and ends it.  Returns the site's partial
        result Θ_i (possibly containing subgraphs that other sites also
        discover; the coordinator dedups).
        """
        survivors = self._filter_in_flight().survivors()
        pattern, radius = self._query
        self._query = self._filter = None
        centers = [node for node in self.fragment.labels if node in survivors]
        self.queries_served += 1
        with _obs_capture("site.evaluate") as _sp:
            partial = self._match_balls(pattern, radius, centers)
            if _sp.enabled:
                _sp.set(
                    site=self.fragment.site_id,
                    # The code that ran: every site runs the reference
                    # per-ball step, whatever engine the cluster named.
                    engine="python",
                    balls=len(centers),
                    partial=len(partial),
                    **{
                        "fetch.round_trips": self.fetch_round_trips,
                        "fetch.records": self.fetch_records,
                        "fetch.units": self.fetch_units,
                    },
                )
        self.last_span = _sp if _sp.enabled else None
        return partial

    def _filter_in_flight(self) -> SiteFilter:
        if self._filter is None:
            raise DistributedError(
                f"site {self.fragment.site_id} has no query in flight"
            )
        return self._filter

    def _match_balls(
        self, pattern: Pattern, radius: int, centers: List[Node]
    ) -> List[PerfectSubgraph]:
        """The per-ball step around each of ``centers``, in order.

        Per ball: a fetch-accounted ``DiGraph`` ball, the set-based dual
        simulation fixpoint, then the maximum perfect subgraph.  No
        per-site dedup is applied; the coordinator dedups, and the
        per-site partial counts are part of the protocol observation.
        """
        partial: List[PerfectSubgraph] = []
        for center in centers:
            ball = self.build_ball(center, radius)
            relation = dual_simulation(pattern, ball.graph)
            if relation.is_empty():
                continue
            subgraph = extract_max_perfect_subgraph(pattern, ball, relation)
            if subgraph is not None:
                partial.append(subgraph)
        return partial
