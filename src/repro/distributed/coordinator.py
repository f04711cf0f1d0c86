"""The coordinator of the distributed strong-simulation protocol.

Section 4.3, transcribed, with the paper's Match+ dual filter run at
the sites:

1. the coordinator receives a pattern ``Q`` and broadcasts it to every
   site (accounted as ``query`` traffic);
2. the sites compute the dual-simulation relation of ``Q`` and ``G`` by
   partial evaluation over border nodes
   (:mod:`repro.distributed.sitefilter`): round 0 returns with the
   broadcast, and the coordinator routes each round's candidate
   announcements and removals between sites (``filter`` traffic) until
   a round k ≥ 1 sends nothing;
3. each site evaluates the per-ball algorithm for balls centered at its
   *surviving* nodes — its nodes in that relation, in fragment order —
   fetching cross-fragment ball regions through the bus (accounted as
   ``fetch`` traffic — the quantity the paper's locality bound
   constrains);
4. each site ships its partial result back (``result`` traffic);
5. the coordinator unions the partials, deduplicating identical perfect
   subgraphs discovered from centers on different sites.

Step 2 changes no result: a ball's maximum dual relation is a dual
simulation of ``G`` and so lies inside the global relation, and a
center outside it yields no perfect subgraph.  Results, per-site
partial counts and ``result`` traffic are those of plain ``Match``;
only ``fetch`` traffic shrinks, and ``filter`` traffic is added.

The protocol is generic over partitioning and returns *exactly* the
centralized ``Match`` output (asserted by the integration tests).

The protocol is also generic over the *execution engine*: ``Cluster``
accepts ``engine="auto"|"kernel"|"numpy"|"python"``, resolves it once
and builds every :class:`~repro.distributed.worker.SiteWorker` on the
result; every query on the cluster runs on that engine.  With a compiled
engine each site compiles its fragment once into a per-site CSR index
(:mod:`repro.distributed.sitekernel`) and extends it incrementally as
remote records arrive over the bus; the result set, the per-site partial
counts and the full traffic accounting are engine-independent, so the
Section 4.3 bound holds unchanged (enforced by
``tests/test_distributed_kernel_equivalence.py``).

Orthogonally to the engine, ``Cluster`` accepts a runtime ``backend``
(``"inproc"`` | ``"processes"``, see :mod:`repro.distributed.runtime`)
choosing *where* the site workers live; the protocol observation is
byte-identical across backends (enforced by ``tests/test_runtime.py``).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DeltaListeners,
    DiGraph,
    GraphDelta,
    Label,
    Node,
)
from repro.core.kernel import resolve_engine
from repro.core.pattern import Pattern
from repro.core.result import MatchResult
from repro.distributed.fragment import Assignment, Fragment, fragment_graph
from repro.distributed.network import MessageBus
from repro.distributed.runtime.transport import (
    make_transport,
    resolve_backend,
)
from repro.distributed.worker import SiteWorker
from repro.exceptions import (
    DistributedError,
    DuplicateNode,
    EdgeNotFound,
    NodeNotFound,
)
from repro.obs.metrics import (
    get_registry as _obs_registry,
    merge_snapshots,
)
from repro.obs.trace import span as _obs_span
from repro.service.cache import ResultCache

COORDINATOR_ID = -1

#: Every live cluster, for the metrics collector below (weak: a closed
#: or dropped cluster stops being sampled without unregistration).
_ALL_CLUSTERS: "weakref.WeakSet" = weakref.WeakSet()


def _sample_bus_metrics():
    """Snapshot-time fold of every live cluster's bus accounting.

    Samples that share a key (``bus.messages``, one ``kind``) sum in the
    snapshot, so the namespace reports the traffic of live clusters.
    """
    samples = []
    for cluster in list(_ALL_CLUSTERS):
        bus = cluster.bus
        samples.append(("bus.messages", {}, bus.total_messages))
        for kind, units in sorted(bus.units_by_kind().items()):
            samples.append(("bus.units", {"kind": kind}, units))
        for (sender, receiver), units in sorted(bus.units_by_link().items()):
            samples.append(
                ("bus.units", {"link": f"{sender}->{receiver}"}, units)
            )
    return samples


_obs_registry().register_collector(_sample_bus_metrics, _sample_bus_metrics)


@dataclass
class DistributedRunReport:
    """Outcome of one distributed evaluation.

    Attributes
    ----------
    result:
        The deduplicated set Θ of maximum perfect subgraphs.
    bus:
        The message bus with full traffic accounting.  For a report from
        ``Cluster.run`` this is the cluster's cumulative bus; a report
        replayed from the distributed result cache carries a fresh bus
        holding exactly the query's own charges (see ``query_log``).
    per_site_subgraphs:
        How many (pre-dedup) perfect subgraphs each site contributed.
    version_vector:
        The cluster's :attr:`Cluster.version` (per-site version vector)
        at evaluation time — the freshness stamp the cluster's result
        store gates hits on.
    query_log:
        The ``(sender, receiver, kind, units)`` charges this query alone
        put on the bus, in charge order: ``query``, then ``filter`` by
        (round, sender, receiver), then ``fetch``, then ``result``.
        ``Cluster.run`` holds the protocol lock for the whole
        evaluation, so the slice is exact; replaying it onto a fresh bus
        reproduces the query's accounting byte-identically.
    """

    result: MatchResult
    bus: MessageBus
    per_site_subgraphs: Dict[int, int]
    version_vector: Tuple[int, ...] = ()
    query_log: Tuple[Tuple[int, int, str, int], ...] = ()

    @property
    def data_shipment_units(self) -> int:
        """Graph-data volume this query shipped between sites (the
        Sec. 4.3 bound): its ``fetch`` units, from ``query_log``."""
        return self.units_by_kind().get("fetch", 0)

    def units_by_kind(self) -> Dict[str, int]:
        """This query's shipped units folded per message kind.

        Derived from ``query_log`` (the exact per-query slice), not the
        bus — the bus may be the cluster's cumulative one.  Empty when
        the report predates query logs.
        """
        units: Dict[str, int] = {}
        for _, _, kind, amount in self.query_log:
            units[kind] = units.get(kind, 0) + amount
        return units


class Cluster:
    """A simulated cluster over a partitioned graph.

    ``backend`` picks the runtime substrate hosting the site workers
    (see :mod:`repro.distributed.runtime`):

    * ``"inproc"`` — serial in-process evaluation (the default, and the
      reference for every observation);
    * ``"processes"`` — one OS process per site behind a
      :class:`~repro.distributed.runtime.transport.ProcessTransport`:
      site evaluation runs off-GIL on real cores, queries/updates are
      broadcast in wire form, and cross-site fetches are request/reply
      through the coordinator.  Node ids and labels must be picklable on
      this backend (they cross a process boundary).

    The protocol observation — result set, per-site partial counts and
    the complete bus accounting — is byte-identical across both.  In
    every backend ``cluster.workers`` holds coordinator-side workers
    over the live fragments; on the process backend they are the fetch
    directory and introspection mirror while evaluation happens in the
    worker processes.

    ``result_store`` is the cluster's one distributed result store, a
    coordinator-hosted :class:`~repro.service.cache.ResultCache` that
    every ``MatchService.submit_distributed`` against this cluster
    reads and fills: services over one cluster share warm entries and
    single-flight leadership.  To that cache a cluster is a delta
    source like a :class:`~repro.core.digraph.DiGraph`: :attr:`version`
    is its freshness stamp and :meth:`subscribe` its delta stream.
    """

    def __init__(
        self,
        graph: DiGraph,
        assignment: Assignment,
        num_sites: int,
        engine: str = "auto",
        backend: Optional[str] = None,
    ) -> None:
        #: The resolved engine every site runs each query on (validated
        #: here, before any worker is built).
        self.engine = resolve_engine(engine)
        self.backend = resolve_backend(backend)
        self.bus = MessageBus()
        self.assignment: Assignment = dict(assignment)
        self.fragments: List[Fragment] = fragment_graph(
            graph, assignment, num_sites
        )
        self.workers: Dict[int, SiteWorker] = {
            fragment.site_id: SiteWorker(
                fragment, self.bus, engine=self.engine
            )
            for fragment in self.fragments
        }
        for worker in self.workers.values():
            worker.connect(self.workers)
        # One query/update at a time per cluster: the protocol reads and
        # resets per-query worker state, so interleaved runs (e.g. two
        # service threads sharing one cluster) must serialize to keep
        # the observation well-defined.
        self._protocol_lock = threading.Lock()
        # Per-site update counters: ``apply_update`` advances the entry
        # of every site it routes a delta to.  The sorted-site snapshot
        # (``version``) is the cluster's freshness signal — two equal
        # vectors mean no fragment differs, so a cached result gated on
        # the exact vector can never be stale.
        self._versions: Dict[int, int] = {
            fragment.site_id: 0 for fragment in self.fragments
        }
        self._site_order: Tuple[int, ...] = tuple(sorted(self._versions))
        self._listeners = DeltaListeners()
        self.result_store = ResultCache()
        self._transport = make_transport(
            self.backend, self.workers, self.assignment, self.bus,
            self.engine,
        )
        _ALL_CLUSTERS.add(self)

    @property
    def num_sites(self) -> int:
        """Number of sites in the cluster."""
        return len(self.workers)

    # ------------------------------------------------------------------
    # Delta source (version vector + delta subscription)
    # ------------------------------------------------------------------
    @property
    def version(self) -> Tuple[int, ...]:
        """The version vector: per-site update counters in site-id order.

        A lock-free snapshot (safe: each counter only ever grows, under
        the protocol lock) so delta subscribers — which are notified
        *while* the lock is held — can read it without deadlocking.
        """
        versions = self._versions
        return tuple(versions[site] for site in self._site_order)

    def subscribe(self, listener: object) -> None:
        """Register ``listener`` for routed update deltas (held weakly).

        The same protocol as :meth:`~repro.core.digraph.DiGraph.subscribe`:
        ``listener`` implements ``on_graph_deltas(deltas)`` and receives
        ``(delta,)`` after every successfully routed ``apply_update``,
        with the new :attr:`version` already in place.  Delivery happens
        under the protocol lock; a listener must not re-enter the
        cluster (``run`` / ``apply_update``) from its callback.
        """
        self._listeners.add(listener)

    # ------------------------------------------------------------------
    # Mutation pipeline (live-cluster updates)
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta, site: Optional[int] = None) -> None:
        """Route one :class:`~repro.core.digraph.GraphDelta` to its sites.

        The distributed half of the mutation pipeline: the delta stream a
        master :class:`~repro.core.digraph.DiGraph` emits can be fed here
        verbatim and the owning fragments (plus their warm per-site
        indexes) stay in sync without re-partitioning or recompiling.
        Each affected site is charged one ``update`` unit on the bus —
        identically for every engine, so protocol observations remain
        engine-independent ("update" traffic is not ``fetch`` traffic and
        does not count against the Section 4.3 data-shipment bound).

        ``site`` places an ``add_node`` explicitly; by default the least
        loaded site (ties broken by site id) takes the new node.  A
        ``remove_node`` delta expects its incident-edge deltas first —
        exactly what ``DiGraph.remove_node`` emits; the convenience
        mutators below (:meth:`remove_node` etc.) produce well-formed
        streams for callers not mirroring a master graph.

        Each routed site's :attr:`version` counter advances, and the
        delta is then forwarded to cluster-level subscribers (see
        :meth:`subscribe`) with the new vector in place.
        """
        with self._protocol_lock:
            kind = delta.kind
            if kind == ADD_EDGE or kind == REMOVE_EDGE:
                source_site = self._site_of(delta.source)
                target_site = self._site_of(delta.target)
                for site_id in sorted({source_site, target_site}):
                    self.bus.send(COORDINATOR_ID, site_id, "update", 1)
                    self._transport.apply_update(
                        site_id, delta, self.assignment
                    )
                    self._versions[site_id] += 1
            elif kind == ADD_NODE:
                if delta.node in self.assignment:
                    raise DuplicateNode(delta.node)
                if site is None:
                    site = min(
                        self.workers,
                        key=lambda s: (self.workers[s].fragment.num_nodes, s),
                    )
                elif site not in self.workers:
                    raise DistributedError(f"unknown site {site!r}")
                self.assignment[delta.node] = site
                self.bus.send(COORDINATOR_ID, site, "update", 1)
                self._transport.apply_update(site, delta, self.assignment)
                self._versions[site] += 1
            elif kind == REMOVE_NODE:
                owner = self._site_of(delta.node)
                del self.assignment[delta.node]
                self.bus.send(COORDINATOR_ID, owner, "update", 1)
                self._transport.apply_update(owner, delta, self.assignment)
                self._transport.forget_remote(delta.node)
                self._versions[owner] += 1
            elif kind == RELABEL:
                owner = self._site_of(delta.node)
                self.bus.send(COORDINATOR_ID, owner, "update", 1)
                self._transport.apply_update(owner, delta, self.assignment)
                self._versions[owner] += 1
            else:
                raise DistributedError(f"unknown graph delta kind {kind!r}")
            self._listeners.deliver((delta,))

    def _site_of(self, node: Node) -> int:
        site = self.assignment.get(node)
        if site is None:
            raise NodeNotFound(node)
        return site

    def add_node(
        self, node: Node, label: Label, site: Optional[int] = None
    ) -> None:
        """Add a node to the cluster (least-loaded site by default)."""
        self.apply_update(
            GraphDelta(ADD_NODE, node=node, label=label), site=site
        )

    def remove_node(self, node: Node) -> None:
        """Remove a node and its incident edges cluster-wide."""
        owner = self._site_of(node)
        fragment = self.workers[owner].fragment
        for target in list(fragment.succ[node]):
            self.remove_edge(node, target)
        for source in list(fragment.pred[node]):
            if source != node:  # a self-loop is already gone
                self.remove_edge(source, node)
        label = fragment.labels[node]
        self.apply_update(GraphDelta(REMOVE_NODE, node=node, label=label))

    def add_edge(self, source: Node, target: Node) -> None:
        """Add a directed edge; a no-op if it exists (set semantics)."""
        source_site = self._site_of(source)
        self._site_of(target)  # validate
        if target in self.workers[source_site].fragment.succ[source]:
            return
        self.apply_update(GraphDelta(ADD_EDGE, source=source, target=target))

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove a directed edge; raises if absent."""
        source_site = self._site_of(source)
        self._site_of(target)  # validate
        if target not in self.workers[source_site].fragment.succ[source]:
            raise EdgeNotFound(source, target)
        self.apply_update(
            GraphDelta(REMOVE_EDGE, source=source, target=target)
        )

    def relabel_node(self, node: Node, label: Label) -> None:
        """Change a node's label; a no-op when unchanged."""
        owner = self._site_of(node)
        fragment = self.workers[owner].fragment
        old = fragment.labels[node]
        if old == label:
            return
        self.apply_update(
            GraphDelta(RELABEL, node=node, label=label, old_label=old)
        )

    def run(
        self, pattern: Pattern, radius: Optional[int] = None
    ) -> DistributedRunReport:
        """Run the Section 4.3 protocol for one pattern.

        The sites evaluate on the engine the cluster was built with; the
        result, per-site counts and traffic accounting are identical
        for every engine choice.  Partials are unioned in site order on
        every backend, keeping the dedup order deterministic; the
        ``processes`` backend replays its sites' fetch charges onto the
        bus in site order, so the full observation is byte-identical to
        the serial ``inproc`` run.
        """
        with self._protocol_lock, _obs_span("distributed.run") as _sp:
            if radius is None:
                radius = pattern.diameter
            # The protocol lock serializes runs against updates, so the
            # bus messages appended from here to the end of the run are
            # exactly this query's charges (the report's ``query_log``).
            log_start = len(self.bus.messages)
            # Step 1: broadcast the query (|Q| units per site).
            query_units = pattern.size
            for site in self.workers:
                self.bus.send(COORDINATOR_ID, site, "query", query_units)

            # Step 2: the dual filter, routed round by round.
            with _obs_span("coordinator.filter") as _fs:
                rounds, messages, units, survivors = self._dual_filter(
                    pattern, radius
                )
                if _fs.enabled:
                    _fs.set(**{
                        "filter.rounds": rounds,
                        "filter.messages": messages,
                        "filter.units": units,
                        "filter.survivors": survivors,
                    })

            # Step 3: each site matches the balls of its survivors.
            with _obs_span("coordinator.evaluate"):
                partials = self._transport.evaluate()
            if _sp.enabled:
                # Graft the per-site ``site.evaluate`` subtrees (captured
                # worker-side, shipped in wire form on the process
                # backend) in site order: ONE merged trace per query.
                site_spans = self._transport.site_spans()
                for site in sorted(site_spans):
                    _sp.adopt(site_spans[site])

            # Steps 4-5: ship partials and union with dedup, in site order.
            with _obs_span("coordinator.union"):
                result = MatchResult(pattern)
                per_site: Dict[int, int] = {}
                for site, partial in partials.items():
                    per_site[site] = len(partial)
                    units = sum(sg.graph.size for sg in partial)
                    self.bus.send(site, COORDINATOR_ID, "result", units)
                    for subgraph in partial:
                        result.add(subgraph)
            query_log = tuple(
                (m.sender, m.receiver, m.kind, m.units)
                for m in self.bus.messages[log_start:]
            )
            if _sp.enabled:
                _sp.set(
                    backend=self.backend,
                    sites=self.num_sites,
                    engine=self.engine,
                    pattern=pattern.size,
                    radius=radius,
                    result=len(result),
                    **{
                        "bus.log": query_log,
                        "bus.messages": len(query_log),
                        "bus.units": sum(
                            entry[3] for entry in query_log
                        ),
                    },
                )
            return DistributedRunReport(
                result,
                self.bus,
                per_site,
                version_vector=self.version,
                query_log=query_log,
            )

    def _dual_filter(
        self, pattern: Pattern, radius: int
    ) -> Tuple[int, int, int, int]:
        """Step 2: route dual-filter rounds until a round sends nothing.

        Round 0 returns with the broadcast.  Round 1 goes to every site
        (it is each site's first refinement); a later round goes only to
        the sites with mail, since no other site's sets can change.  The
        loop ends after the first round k ≥ 1 in which no site sends.
        Each payload (sites address only non-empty ones) is one
        ``filter`` message of one unit per (data node, pattern node)
        pair, charged here in (round, sender, receiver) order, so both
        backends log it identically.  Returns
        ``(rounds run, messages, units, surviving centers)``.
        """
        replies = self._transport.begin(pattern, radius)
        survivors = {site: reply[1] for site, reply in replies.items()}
        rounds = 1
        messages = units = 0
        while True:
            inboxes: Dict[int, list] = {}
            for sender in sorted(replies):
                outbox = replies[sender][0]
                for receiver in sorted(outbox):
                    payload = outbox[receiver]
                    amount = sum(len(entry[1]) for entry in payload)
                    self.bus.send(sender, receiver, "filter", amount)
                    messages += 1
                    units += amount
                    inboxes.setdefault(receiver, []).extend(payload)
            if rounds == 1:
                inboxes = {site: inboxes.get(site, []) for site in survivors}
            elif not inboxes:
                return rounds, messages, units, sum(survivors.values())
            replies = self._transport.filter_round(inboxes)
            for site, reply in replies.items():
                survivors[site] = reply[1]
            rounds += 1

    def worker_stats(self) -> Dict[int, Dict[str, object]]:
        """Per-site runtime counters, fetched from wherever workers live.

        On the in-process backend this reads the workers directly; on
        the process backend each worker process reports its own counters
        — in particular ``index_builds``, which a warm worker holds at 1
        across queries and updates (the "fragments compile once per
        site" guarantee, now per OS process).
        """
        with self._protocol_lock:
            return self._transport.worker_stats()

    def metrics_snapshot(self) -> Dict[str, object]:
        """One merged metrics view across coordinator and sites.

        The coordinator's own registry snapshot (which the in-process
        backend's workers publish into directly) merged with the per-site
        snapshots remote worker processes shipped back with the last
        query's ``done`` frames — counters and histogram buckets sum,
        per :func:`repro.obs.metrics.merge_snapshots`.
        """
        with self._protocol_lock:
            site_snapshots = list(self._transport.site_metrics().values())
        return merge_snapshots(_obs_registry().snapshot(), *site_snapshots)

    def close(self) -> None:
        """Release the transport's worker processes (if any).

        Idempotent.  A closed ``inproc`` cluster keeps serving queries;
        a closed ``processes`` cluster is final — its workers have
        exited.
        """
        self._transport.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def distributed_match(
    pattern: Pattern,
    graph: DiGraph,
    assignment: Assignment,
    num_sites: int,
    radius: Optional[int] = None,
    engine: str = "auto",
    backend: Optional[str] = None,
) -> DistributedRunReport:
    """Convenience wrapper: build a cluster and evaluate one pattern.

    ``backend`` picks the runtime substrate (``"inproc"`` default, or
    ``"processes"``); the observation is identical across backends, so
    one-shot callers only choose for wall-clock reasons.
    """
    with Cluster(graph, assignment, num_sites, engine=engine,
                 backend=backend) as cluster:
        return cluster.run(pattern, radius)


def crossing_ball_bound(
    graph: DiGraph,
    assignment: Assignment,
    radius: int,
) -> int:
    """The paper's traffic bound: total size of boundary-crossing balls.

    Sums ``|Ĝ[v, radius]|`` (nodes + edges) over every node ``v`` with a
    neighbor on a different site.  The measured ``fetch`` traffic of a
    run must stay below this (each worker caches, so it ships each remote
    record at most once, while the bound counts full balls).
    """
    from repro.core.ball import extract_ball  # local import to avoid cycle

    bound = 0
    for node in graph.nodes():
        site = assignment[node]
        crossing = any(
            assignment[neighbor] != site for neighbor in graph.neighbors(node)
        )
        if crossing:
            ball = extract_ball(graph, node, radius)
            bound += ball.graph.size
    return bound
