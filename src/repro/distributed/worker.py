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

Like the centralized entry points, a worker takes an execution engine
(``engine="auto"|"kernel"|"numpy"|"python"``).  It keeps two
substrates, and the ``compiled`` flag of the engine's row in
:data:`repro.core.engines.ENGINE_TABLE` picks one:

* reference (``"python"``) — every ball rebuilds a hash-set ``DiGraph``
  and runs the set-based dual-simulation fixpoint.  Readable, mirrors
  the paper's pseudocode; the right choice when debugging result or
  traffic differences.
* compiled (``"kernel"``, ``"numpy"`` and the ``"auto"`` default) — the
  fragment is compiled once per site into a
  :class:`~repro.distributed.sitekernel.SiteGraphIndex` (integer ids +
  CSR rows) that is *extended incrementally* as remote node records
  arrive over the bus; balls and fixpoints then run over flat integer
  arrays exactly as in :mod:`repro.core.kernel`.

The dual filter runs once, over the fragment dicts both substrates
share, and both substrates evaluate the same survivors in fragment
order.  All engines fetch exactly the records of the remote ball
members, so the message sequence, the per-link unit totals and the
Section 4.3 data-shipment bound are engine-independent (enforced by
``tests/test_distributed_kernel_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.ball import Ball
from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DiGraph,
    GraphDelta,
    Node,
)
from repro.core.dualsim import dual_simulation
from repro.core.engines import ENGINE_TABLE
from repro.core.kernel import _CompiledPattern, resolve_engine
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
from repro.distributed.sitekernel import (
    NodeRecord,
    SiteGraphIndex,
    site_match_ball,
)
from repro.exceptions import DistributedError
from repro.obs.trace import capture as _obs_capture

#: A site's answer to one dual-filter round: its sends, by receiving
#: site, and how many of its owned nodes still survive.
FilterReply = Tuple[FilterOutbox, int]


class SiteWorker:
    """One site of the simulated cluster."""

    def __init__(
        self,
        fragment: Fragment,
        bus: MessageBus,
        engine: str = "auto",
    ) -> None:
        resolve_engine(engine)  # validate eagerly, before any query runs
        self.fragment = fragment
        self.bus = bus
        self.engine = engine
        self._peers: Dict[int, "SiteWorker"] = {}
        self._remote_cache: Dict[Node, NodeRecord] = {}
        self._site_index: Optional[SiteGraphIndex] = None
        #: How many times this worker compiled a fresh ``SiteGraphIndex``.
        #: A warm worker holds this at 1 across queries and updates — the
        #: observable "fragments compile once per site" guarantee, which
        #: the process runtime re-asserts per worker process.
        self.index_builds = 0
        #: Queries this worker evaluated (any engine).
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
        #: The query in flight — ``(pattern, radius, resolved engine)`` —
        #: and its dual filter, from ``begin_query`` to ``match_local``.
        self._query: Optional[Tuple[Pattern, int, str]] = None
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

    def _records_for_many(self, nodes: List[Node]) -> List[NodeRecord]:
        """The records of ``nodes``, fetched in one batch where remote."""
        self._ensure_records(nodes)
        record_for = self._record_for
        return [record_for(node) for node in nodes]

    def _locate_owner(self, node: Node) -> int:
        """Find the owner of a node not adjacent to this fragment."""
        for site, peer in self._peers.items():
            if peer.fragment.owns(node):
                return site
        raise DistributedError(f"no site owns node {node!r}")

    def clear_cache(self) -> None:
        """Drop fetched remote records (coordinator calls between queries).

        Also reverts the compiled site index's remote extension to stubs,
        so the next kernel-engine query re-fetches — and the bus
        re-charges — remote records exactly like the reference path.
        The owned part of the index survives: fragments compile once per
        site.
        """
        self._remote_cache.clear()
        self.fetch_round_trips = 0
        self.fetch_records = 0
        self.fetch_units = 0
        if self._site_index is not None:
            self._site_index.reset_remote()

    # ------------------------------------------------------------------
    # Mutation pipeline: owned-fragment delta application
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta, owner_of) -> None:
        """Apply one owned-fragment delta to this site's state.

        The per-site half of ``Cluster.apply_update``: patches the
        fragment dictionaries (the source of truth both engines read) and
        — when a site index has been compiled — the index's *owned* CSR
        rows in place, keeping it warm instead of recompiling per query.
        ``owner_of`` maps any node to its owning site, for refreshing the
        ``remote_owner`` routing table when an edge reaches off-site.

        Remote records cached from the previous query are dropped first
        (they may describe pre-update adjacency); the next query
        re-fetches — and the bus re-charges — them exactly as it would
        have anyway after the coordinator's per-query cache clear.
        """
        self._remote_cache.clear()
        index = self._site_index
        if index is not None:
            index.reset_remote()
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
                if index is not None:
                    index.add_owned_edge(
                        source, target, owns_source, owns_target
                    )
            else:
                if owns_source:
                    fragment.succ[source].discard(target)
                if owns_target:
                    fragment.pred[target].discard(source)
                # Does the opposite edge target -> source survive?  An
                # owned endpoint knows: it sees all its incident edges.
                reverse_exists = (
                    (owns_target and source in fragment.succ[target])
                    or (owns_source and target in fragment.pred[source])
                )
                if index is not None:
                    index.remove_owned_edge(
                        source, target, owns_source, owns_target,
                        reverse_exists,
                    )
        elif kind == ADD_NODE:
            fragment.labels[delta.node] = delta.label
            fragment.succ[delta.node] = set()
            fragment.pred[delta.node] = set()
            fragment.remote_owner.pop(delta.node, None)
            if index is not None:
                index.add_owned_node(delta.node, delta.label)
        elif kind == REMOVE_NODE:
            # Incident-edge deltas were applied first (the pipeline
            # decomposes node removals), so the node is isolated here.
            del fragment.labels[delta.node]
            del fragment.succ[delta.node]
            del fragment.pred[delta.node]
            if index is not None:
                index.remove_owned_node(delta.node)
        elif kind == RELABEL:
            fragment.labels[delta.node] = delta.label
            if index is not None:
                index.relabel_owned_node(delta.node, delta.label)
        else:  # pragma: no cover - the kinds above are exhaustive
            raise DistributedError(f"unknown graph delta kind {kind!r}")

    def forget_remote(self, node: Node) -> None:
        """Drop a (cluster-wide removed) node from the routing table."""
        self.fragment.remote_owner.pop(node, None)
        self._remote_cache.pop(node, None)

    # ------------------------------------------------------------------
    # Distributed ball construction + matching
    # ------------------------------------------------------------------
    def site_index(self) -> SiteGraphIndex:
        """The site's compiled index, built on first (kernel) use."""
        index = self._site_index
        if index is None:
            index = SiteGraphIndex(self.fragment)
            self._site_index = index
            self.index_builds += 1
        return index

    def runtime_stats(self) -> Dict[str, object]:
        """Observability counters for this worker.

        The one stats shape every backend reports: the process runtime's
        ``stats`` command delegates here, so `Cluster.worker_stats()` is
        key-compatible wherever the workers live.
        """
        return {
            "site": self.fragment.site_id,
            "index_builds": self.index_builds,
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
        self,
        pattern: Pattern,
        radius: Optional[int] = None,
        engine: Optional[str] = None,
    ) -> FilterReply:
        """Start one query: reset per-query state and seed the dual filter.

        Returns round 0 of the filter, which travels back with the query
        broadcast.  ``engine`` overrides the worker default for this
        query only.
        """
        if radius is None:
            radius = pattern.diameter
        resolved = resolve_engine(self.engine if engine is None else engine)
        self.clear_cache()
        self._query = (pattern, radius, resolved)
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
        pattern, radius, resolved = self._query
        self._query = self._filter = None
        centers = [node for node in self.fragment.labels if node in survivors]
        self.queries_served += 1
        with _obs_capture("site.evaluate") as _sp:
            if ENGINE_TABLE[resolved].compiled:
                partial = self._match_local_kernel(pattern, radius, centers)
            else:
                partial = self._match_local_python(pattern, radius, centers)
            if _sp.enabled:
                _sp.set(
                    site=self.fragment.site_id,
                    engine=resolved,
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

    def _match_local_python(
        self, pattern: Pattern, radius: int, centers: List[Node]
    ) -> List[PerfectSubgraph]:
        """Reference path: per-ball ``DiGraph`` + set-based fixpoint."""
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

    def _match_local_kernel(
        self, pattern: Pattern, radius: int, centers: List[Node]
    ) -> List[PerfectSubgraph]:
        """Kernel path: ball BFS + counter fixpoint over the site index.

        ``centers`` arrive in the same fragment order as on the reference
        path, and no per-site dedup is applied, so the partial list — and
        with it the per-site counts and the ``result`` traffic — is
        engine-identical.  The index is compiled on the first query even
        when no center survives, so a warm worker stays warm.
        """
        index = self.site_index()
        cp = _CompiledPattern(pattern)
        fetch_many = self._records_for_many
        index_of = index.index_of
        partial: List[PerfectSubgraph] = []
        for center in centers:
            subgraph = site_match_ball(
                cp, index, fetch_many, index_of[center], radius
            )
            if subgraph is not None:
                partial.append(subgraph)
        return partial
