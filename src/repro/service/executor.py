"""The query service: a concurrent matching façade over the engines.

:class:`MatchService` turns the library's one-shot entry points into a
serving layer:

* :meth:`MatchService.submit` runs one query on a thread pool and
  returns a :class:`concurrent.futures.Future`;
  :meth:`MatchService.submit_batch` fans a query stream out over the
  pool; :meth:`MatchService.query` is the synchronous convenience.
* Structurally identical queries share one cache entry: patterns are
  canonicalized (:mod:`repro.service.fingerprint`) and results are
  cached **in canonical-position encoding**
  (:class:`~repro.service.cache.ResultCache`), so a hit can be replayed
  under any isomorphic pattern's node names.  Replay is sound because
  matching results are invariant under pattern isomorphism: for any
  isomorphism ``σ: Q1 -> Q2``, the maximum (dual) simulation satisfies
  ``sim_Q2(σ(u)) = sim_Q1(u)``, and the canonical position maps provide
  exactly such a ``σ`` when two canonical keys are equal.
* The cache subscribes to each data graph's delta stream and keeps
  entries alive across mutations that provably cannot affect them (see
  :mod:`repro.service.cache` for the rules), so an update-heavy workload
  retains its warm entries for untouched label classes.
* :meth:`MatchService.submit_distributed` runs the Section 4.3 protocol
  on a live :class:`~repro.distributed.coordinator.Cluster` and caches
  it in the cluster's result store through the same cache path: to the
  cache a cluster is a delta source like a graph, and a stored payload
  is a plain tuple (encoded result, per-site counts, query log).
* Cache keys carry no engine: the engines' output-identity contract
  (the differential suites' invariant) makes one stored encoding valid
  for every engine, so queries that name different engines, or an
  ``engine="auto"`` that resolves differently as the graph grows past
  the numpy threshold, share warm entries.

Thread-safety contract of the kernel read path (audited for this layer):
a compiled :class:`~repro.core.kernel.GraphIndex` is **safe for
concurrent queries** — CSR rows and label groups are only mutated by
``get_index`` syncs (serialized by the kernel's per-graph index locks),
and the per-ball visited epochs live in per-thread buffers
(:meth:`~repro.core.kernel.GrowableCSRIndex.visit_state`).  Mutating a
data graph **while queries on it are in flight** is handled by the
index's reader–writer guard: a query holds the index in read mode for
its whole run, and a concurrent ``get_index`` sync (triggered by
another thread's post-mutation query) blocks until every in-flight
reader drains before rewriting rows — so readers never observe a
half-applied sync.  A query whose **own** thread observes the mutation
mid-flight still fails loud with
:class:`~repro.exceptions.MatchingError` (version check), as does a
sync attempted from a thread that is itself mid-query (self-deadlock
refusal).  Quiescing queries around mutations remains the designed
high-throughput path; the guard makes the racy path safe, not fast.
(The result *cache* stays sound regardless: lookups are version-gated
and a store whose pre-compute version has moved is refused.)

Results are observation-identical to direct engine calls — with the
cache hot or cold, across engines, and under interleaved mutations —
asserted by ``tests/test_service.py`` in the ``tests/engines.py``
differential style.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.bounded import bounded_simulation
from repro.core.digraph import DiGraph
from repro.core.engines import engine_for
from repro.core.kernel import resolve_engine
from repro.core.matchplus import match_plus
from repro.core.matchrel import MatchRelation
from repro.core.minimize import minimize_pattern
from repro.core.pattern import Pattern
from repro.core.reach import resolve_path_engine
from repro.core.regular import regular_strong_match
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.simulation import graph_simulation
from repro.core.strong import match
from repro.exceptions import MatchingError
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import span as _obs_span
from repro.service.cache import CacheStats, ResultCache
from repro.service.fingerprint import CanonicalPattern, canonical_form

#: Path-constrained algorithms (Fan et al. 2010/2011 extensions).  The
#: service executes them on the pool and observes them in the same
#: ``service.query_seconds{algorithm=..}`` histograms, but always
#: computes: pattern canonicalization (and hence the result cache) is
#: defined on plain label-graph patterns, not on edge bounds / regex
#: constraints, so there is no sound cache key to share entries under.
PATH_SERVICE_ALGORITHMS = ("bounded", "regular")

#: The algorithms the service can execute, by CLI-compatible name.
SERVICE_ALGORITHMS = (
    "match-plus", "match", "dual", "sim"
) + PATH_SERVICE_ALGORITHMS


@dataclass(frozen=True)
class Query:
    """One unit of work for :meth:`MatchService.submit_batch`."""

    pattern: Pattern
    data: DiGraph
    algorithm: str = "match-plus"
    engine: str = "auto"


@dataclass
class ServiceStats:
    """Aggregated service counters (cache stats plus execution counts).

    ``coalesced`` counts queries that found an identical computation
    already in flight and waited for it instead of racing a duplicate —
    the single-flight path.  A coalesced query resolves as a cache hit
    (it replays the leader's stored encoding), so N concurrent identical
    misses show up as ``computed == 1``, ``coalesced == N - 1`` and
    ``cache.stores == 1`` / ``cache.hits == N - 1``.
    """

    queries: int = 0
    computed: int = 0
    replayed: int = 0
    coalesced: int = 0
    cache: CacheStats = field(default_factory=CacheStats)


#: Every live service, for the metrics collector below (weak: a closed
#: or dropped service stops being sampled without unregistration).
_ALL_SERVICES: "weakref.WeakSet" = weakref.WeakSet()

_SERVICE_FIELDS = ("queries", "computed", "replayed", "coalesced")


def _sample_service_metrics():
    """Snapshot-time fold of every live service's counters.

    ``cache.*`` comes from the caches themselves (see
    :mod:`repro.service.cache`), so a cluster's result store counts too.
    """
    totals = {name: 0 for name in _SERVICE_FIELDS}
    for service in list(_ALL_SERVICES):
        for name in _SERVICE_FIELDS:
            totals[name] += getattr(service.stats, name)
    return [(f"service.{name}", {}, totals[name]) for name in _SERVICE_FIELDS]


_obs_registry().register_collector(
    _sample_service_metrics, _sample_service_metrics
)


# ======================================================================
# Canonical-position result encoding
# ======================================================================
# Payload shapes (all hashable / immutable, safe to share across
# threads):
#   relation algorithms ("dual", "sim"):
#       tuple[frozenset[data node]] indexed by canonical position
#   "match": tuple of subgraph entries
#       (nodes: tuple[(node, label)], edges: tuple[(node, node)],
#        center, relation: tuple[frozenset] by canonical position)
#   "match-plus": same as "match"; the per-subgraph relation is
#       positions -> matches of *the position's node's quotient class*
#       (members of one dual-equivalence class share their match set,
#        so any member's position reproduces the class's entry).


def _encode_relation(
    relation: MatchRelation, canonical: CanonicalPattern
) -> tuple:
    slots: List[Optional[frozenset]] = [None] * canonical.num_nodes
    for node, position in canonical.order.items():
        slots[position] = frozenset(relation.matches_of_raw(node))
    return tuple(slots)


def _decode_relation(
    payload: tuple, canonical: CanonicalPattern
) -> MatchRelation:
    return MatchRelation(
        {
            node: set(payload[position])
            for node, position in canonical.order.items()
        }
    )


def _encode_match_result(
    result: MatchResult,
    canonical: CanonicalPattern,
    class_of: Optional[Dict] = None,
) -> tuple:
    """Encode a ``MatchResult`` by canonical position.

    ``class_of`` maps original pattern nodes to the relation's keys when
    they differ (the minimized quotient of ``match_plus``); ``None``
    means the relation is keyed by the original nodes (plain ``match``).
    """
    entries = []
    for subgraph in result:
        graph = subgraph.graph
        nodes = tuple(
            (node, graph.label(node)) for node in graph.nodes()
        )
        edges = tuple(graph.edges())
        slots: List[Optional[frozenset]] = [None] * canonical.num_nodes
        for node, position in canonical.order.items():
            relation_key = node if class_of is None else class_of[node]
            slots[position] = frozenset(
                subgraph.relation.matches_of_raw(relation_key)
            )
        entries.append((nodes, edges, subgraph.center, tuple(slots)))
    return tuple(entries)


def _decode_match_result(
    payload: tuple,
    pattern: Pattern,
    canonical: CanonicalPattern,
    minimized: bool,
) -> MatchResult:
    """Replay an encoded result under ``pattern``'s own node names.

    For ``match-plus`` the relation keys are the quotient class ids of
    *this* pattern's minimization — recomputed here (pattern-side work,
    engine-independent and cheap on the paper's small patterns) so a hit
    returns exactly what a direct ``match_plus`` call would have.
    """
    if minimized:
        quotient = minimize_pattern(pattern)
        result_pattern = quotient.pattern
        key_of = quotient.node_to_class
    else:
        result_pattern = pattern
        key_of = None
    result = MatchResult(result_pattern)
    for nodes, edges, center, slots in payload:
        graph = DiGraph._build_unchecked(nodes, edges)
        sim: Dict[object, set] = {}
        for node, position in canonical.order.items():
            key = node if key_of is None else key_of[node]
            matches = slots[position]
            previous = sim.get(key)
            if previous is None:
                sim[key] = set(matches)
            elif previous != matches:  # pragma: no cover - defensive
                raise MatchingError(
                    "cached relation disagrees across a quotient class; "
                    "refusing to replay an inconsistent entry"
                )
        result.add(PerfectSubgraph(graph, MatchRelation(sim), center))
    return result


# ======================================================================
# Compute paths (direct engine calls, one per algorithm)
# ======================================================================
def _compute_match_plus(pattern: Pattern, data: DiGraph, engine: str):
    return match_plus(pattern, data, engine=engine)


def _compute_match(pattern: Pattern, data: DiGraph, engine: str):
    return match(pattern, data, engine=engine)


def _compute_dual(pattern: Pattern, data: DiGraph, engine: str):
    return engine_for(engine, data).dual(pattern, data)


def _compute_sim(pattern: Pattern, data: DiGraph, engine: str):
    return graph_simulation(pattern, data, engine=engine)


def _compute_bounded(pattern, data: DiGraph, engine: str):
    # ``pattern`` is a BoundedPattern; engine was pre-resolved through
    # resolve_path_engine in submit().
    return bounded_simulation(pattern, data, engine=engine)


def _compute_regular(pattern, data: DiGraph, engine: str):
    # ``pattern`` is a RegularPattern.
    return regular_strong_match(pattern, data, engine=engine)


_COMPUTE: Dict[str, Callable] = {
    "match-plus": _compute_match_plus,
    "match": _compute_match,
    "dual": _compute_dual,
    "sim": _compute_sim,
    "bounded": _compute_bounded,
    "regular": _compute_regular,
}


class MatchService:
    """A concurrent matching service over one or many data graphs.

    Parameters
    ----------
    max_workers:
        Thread-pool width for :meth:`submit` / :meth:`submit_batch`.
    cache_size:
        LRU bound of the shared result cache (``0`` disables caching).
    cache:
        An externally owned :class:`ResultCache` to share between
        services; overrides ``cache_size``.

    Use as a context manager (or call :meth:`close`) to shut the pool
    down.  The service itself is thread-safe; see the module docstring
    for the mutation contract.
    """

    def __init__(
        self,
        max_workers: int = 4,
        cache_size: int = 256,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if cache is not None:
            self.cache: Optional[ResultCache] = cache
        elif cache_size > 0:
            self.cache = ResultCache(cache_size)
        else:
            self.cache = None
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-match"
        )
        self._stats_lock = threading.Lock()
        # NB: "is not None" matters — an empty ResultCache is falsy.
        self.stats = ServiceStats(
            cache=self.cache.stats if self.cache is not None else CacheStats()
        )
        _ALL_SERVICES.add(self)

    # ------------------------------------------------------------------
    def submit(
        self,
        pattern: Pattern,
        data: DiGraph,
        algorithm: str = "match-plus",
        engine: str = "auto",
    ) -> "Future":
        """Enqueue one query; the future resolves to the engine result.

        ``algorithm`` is one of :data:`SERVICE_ALGORITHMS` —
        ``match-plus`` / ``match`` return a
        :class:`~repro.core.result.MatchResult`, ``dual`` / ``sim`` a
        :class:`~repro.core.matchrel.MatchRelation` — exactly what the
        corresponding direct call returns.  For the path algorithms
        (``"bounded"`` / ``"regular"``) pass a
        :class:`~repro.core.bounded.BoundedPattern` /
        :class:`~repro.core.regular.RegularPattern` as ``pattern``;
        they run uncached (see :data:`PATH_SERVICE_ALGORITHMS`).
        """
        if algorithm not in _COMPUTE:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; "
                f"expected one of {SERVICE_ALGORITHMS}"
            )
        if algorithm in PATH_SERVICE_ALGORITHMS:
            # ``pattern`` is a BoundedPattern / RegularPattern here and
            # only the python/kernel tiers exist for path matching;
            # explicit engine="numpy" stays the caller error the direct
            # entry points make it.
            resolved = resolve_path_engine(engine, data)
        else:
            resolved = resolve_engine(engine, data)
        return self._pool.submit(
            self._execute, pattern, data, algorithm, resolved,
            perf_counter(),
        )

    def submit_batch(
        self, queries: Iterable[Query]
    ) -> List["Future"]:
        """Enqueue a query stream; one future per query, input order."""
        return [
            self.submit(q.pattern, q.data, q.algorithm, q.engine)
            for q in queries
        ]

    def query(
        self,
        pattern: Pattern,
        data: DiGraph,
        algorithm: str = "match-plus",
        engine: str = "auto",
    ):
        """Synchronous convenience: submit and wait."""
        return self.submit(pattern, data, algorithm, engine).result()

    # ------------------------------------------------------------------
    def submit_distributed(
        self,
        pattern: Pattern,
        cluster,
        radius: Optional[int] = None,
        cached: bool = True,
    ) -> "Future":
        """Enqueue one Section 4.3 run against a live ``Cluster``.

        The future resolves to a
        :class:`~repro.distributed.coordinator.DistributedRunReport`.
        The sites run on the engine the cluster was built with.
        Runs on one cluster serialize on the cluster's protocol lock
        (the bus accounting and per-query worker state demand it), but
        with a ``backend="processes"`` cluster the site evaluation
        happens off-GIL in the worker processes — so centralized queries
        keep flowing on the remaining pool threads while a distributed
        query is in flight.

        Distributed results are cached in the cluster's one
        ``result_store``, gated on its exact
        :attr:`~repro.distributed.coordinator.Cluster.version` (the
        per-site version vector) and judged by the same rule table as
        centralized ball-based entries: any edge delta drops them, node
        deltas whose labels avoid the pattern's keep them.  Every
        service over one cluster therefore shares warm entries and
        single-flight leadership.  A warm hit replays the full report —
        result set, per-site counts, and the query's own bus charges on
        a fresh bus — byte-identically to a fresh ``cluster.run``,
        without touching a worker; a fresh run's report carries the
        cluster's live cumulative bus.  ``cached=False`` bypasses store
        and single-flight entirely and always runs the protocol (the
        force-recompute escape hatch).
        """
        return self._pool.submit(
            self._execute_distributed, pattern, cluster, radius, cached,
            perf_counter(),
        )

    def query_distributed(
        self,
        pattern: Pattern,
        cluster,
        radius: Optional[int] = None,
        cached: bool = True,
    ):
        """Synchronous convenience: submit a distributed run and wait."""
        return self.submit_distributed(
            pattern, cluster, radius, cached
        ).result()

    def _execute_distributed(
        self, pattern, cluster, radius, cached=True, submitted_at=None
    ):
        started = perf_counter()
        registry = _obs_registry()
        if submitted_at is not None:
            registry.histogram("service.queue_wait_seconds").observe(
                started - submitted_at
            )
        with _obs_span("service.distributed_query") as _sp:
            try:
                return self._run_distributed(
                    pattern, cluster, radius, cached, _sp
                )
            finally:
                registry.histogram(
                    "service.query_seconds", algorithm="distributed"
                ).observe(perf_counter() - started)

    def _run_distributed(self, pattern, cluster, radius, cached, _sp):
        with self._stats_lock:
            self.stats.queries += 1
        if not cached:
            return self._computed(cluster.run(pattern, radius), _sp)
        store = cluster.result_store
        canonical = canonical_form(pattern)
        effective_radius = pattern.diameter if radius is None else radius
        key = (canonical.key, effective_radius)

        def compute():
            report = cluster.run(pattern, radius)
            # Distributed relations are keyed by the pattern's own nodes
            # (the protocol unions per-ball `match` partials), so the
            # plain canonical-position encoding applies — one entry
            # serves every isomorphic pattern.
            payload = (
                _encode_match_result(report.result, canonical),
                tuple(sorted(report.per_site_subgraphs.items())),
                report.query_log,
            )
            store.store(
                cluster,
                key,
                "distributed",
                canonical.label_set,
                payload,
                computed_version=report.version_vector,
            )
            return report

        return self._single_flight(
            store,
            cluster,
            key,
            "distributed",
            compute,
            lambda payload: self._replay_report(
                payload, pattern, canonical, cluster
            ),
            _sp,
        )

    @staticmethod
    def _replay_report(
        payload, pattern: Pattern, canonical: CanonicalPattern, cluster
    ):
        from repro.distributed.coordinator import DistributedRunReport
        from repro.distributed.network import MessageBus

        entries, per_site, log = payload
        result = _decode_match_result(
            entries, pattern, canonical, minimized=False
        )
        # A replayed report carries a fresh bus holding exactly the
        # query's own charges: no real traffic happened (that is the
        # point of the hit), so the cluster's cumulative bus is not
        # advanced, but the per-query observation — what a fresh
        # cluster's run would show — is reproduced byte-identically.
        bus = MessageBus()
        for sender, receiver, kind, units in log:
            bus.send(sender, receiver, kind, units)
        return DistributedRunReport(
            result,
            bus,
            dict(per_site),
            version_vector=cluster.version,
            query_log=log,
        )

    # ------------------------------------------------------------------
    def _execute(
        self,
        pattern: Pattern,
        data: DiGraph,
        algorithm: str,
        engine: str,
        submitted_at: Optional[float] = None,
    ):
        started = perf_counter()
        registry = _obs_registry()
        if submitted_at is not None:
            registry.histogram("service.queue_wait_seconds").observe(
                started - submitted_at
            )
        with _obs_span("service.query") as _sp:
            if _sp.enabled:
                _sp.set(algorithm=algorithm, engine=engine)
            try:
                return self._run_query(pattern, data, algorithm, engine, _sp)
            finally:
                registry.histogram(
                    "service.query_seconds", algorithm=algorithm
                ).observe(perf_counter() - started)

    def _run_query(
        self, pattern: Pattern, data: DiGraph, algorithm: str, engine: str,
        _sp,
    ):
        with self._stats_lock:
            self.stats.queries += 1
        cache = self.cache
        if cache is None or algorithm in PATH_SERVICE_ALGORITHMS:
            # Path-constrained patterns have no canonical form (see
            # PATH_SERVICE_ALGORITHMS) — always compute.
            return self._computed(
                _COMPUTE[algorithm](pattern, data, engine), _sp
            )
        canonical = canonical_form(pattern)

        def compute():
            # Compute directly and hand the *engine's own* result back
            # (byte-for-byte what a direct call returns); the cache
            # stores the canonical encoding for future isomorphic
            # queries.  The version is read BEFORE computing: if a
            # mutation lands while the query runs, store() sees the gap
            # and refuses to cache a result that no future delta
            # delivery would know to invalidate.
            computed_version = data.version
            result = _COMPUTE[algorithm](pattern, data, engine)
            cache.store(
                data,
                canonical.key,
                algorithm,
                canonical.label_set,
                self._encode(result, pattern, canonical, algorithm),
                computed_version=computed_version,
            )
            return result

        # Isomorphic patterns share the key — and so do engines (see the
        # module docstring): N concurrent structurally identical misses
        # cost one engine run, whatever mix of engines requested them.
        return self._single_flight(
            cache,
            data,
            canonical.key,
            algorithm,
            compute,
            lambda payload: self._decode(
                payload, pattern, canonical, algorithm
            ),
            _sp,
        )

    def _single_flight(
        self, cache, source, key, algorithm, compute, decode, _sp
    ):
        """Look up; on a miss lead or follow; the leader computes and stores.

        A miss either elects this thread the leader of ``(source, key,
        algorithm)`` in ``cache``'s flight table (it runs ``compute``,
        which stores its result) or finds a leader already computing the
        same entry — then it waits and re-runs the lookup, which
        resolves to a hit replayed through ``decode``.  The table lives
        on the cache, so every service sharing one cache (or one
        cluster's result store) elects one leader per key across all of
        them.  No deadlock is possible: an event only exists while its
        leader is already executing on some pool thread, and the leader
        never waits on anything.
        """
        flight_key = (source, key, algorithm)
        coalesced = False  # count each query at most once, even on retry
        while True:
            payload = cache.lookup(source, key, algorithm)
            if payload is not None:
                with self._stats_lock:
                    self.stats.replayed += 1
                if _sp.enabled:
                    _sp.set(outcome="replayed", coalesced=coalesced)
                return decode(payload)
            leader_done = cache.begin_flight(flight_key)
            if leader_done is None:
                break  # this thread computes
            if not coalesced:
                coalesced = True
                with self._stats_lock:
                    self.stats.coalesced += 1
            leader_done.wait()
            # Loop: the common case re-looks-up into a hit.  A miss here
            # means the leader's store was refused (a racing mutation) or
            # the entry was already evicted/invalidated — then this
            # thread runs for leadership of a fresh computation.
        try:
            return self._computed(compute(), _sp)
        finally:
            # Publish-and-release even when the compute raises: followers
            # wake, miss, and elect a new leader rather than hanging.
            cache.end_flight(flight_key)

    def _computed(self, result, _sp):
        """Count one successful computation and return its result."""
        with self._stats_lock:
            self.stats.computed += 1
        _sp.set(outcome="computed")
        return result

    @staticmethod
    def _encode(
        result, pattern: Pattern, canonical: CanonicalPattern, algorithm: str
    ):
        if algorithm in ("dual", "sim"):
            return _encode_relation(result, canonical)
        if algorithm == "match":
            return _encode_match_result(result, canonical)
        # match-plus: relations are keyed by the minimized quotient's
        # class ids; recompute the (deterministic) node -> class map.
        class_of = minimize_pattern(pattern).node_to_class
        return _encode_match_result(result, canonical, class_of)

    @staticmethod
    def _decode(
        payload, pattern: Pattern, canonical: CanonicalPattern, algorithm: str
    ):
        if algorithm in ("dual", "sim"):
            return _decode_relation(payload, canonical)
        return _decode_match_result(
            payload, pattern, canonical, minimized=(algorithm == "match-plus")
        )

    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down."""
        self._pool.shutdown(wait=wait)

    def __enter__(self) -> "MatchService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ======================================================================
# Workload replay (shared by the CLI, the experiment and the benchmark)
# ======================================================================
@dataclass
class WorkloadReport:
    """Outcome of replaying a query stream against a service."""

    queries: int
    seconds: float
    by_algorithm: Dict[str, int]
    stats: ServiceStats

    @property
    def throughput(self) -> float:
        """Completed queries per second.

        ``0.0`` for an empty stream (no queries completed, whatever the
        clock read); ``inf`` only when queries did complete in less
        than one clock tick.
        """
        if self.queries == 0:
            return 0.0
        return self.queries / self.seconds if self.seconds else float("inf")


def skewed_stream(
    patterns: Sequence[Pattern],
    data: DiGraph,
    algorithm: str = "match-plus",
    engine: str = "auto",
    rounds: int = 3,
) -> List[Query]:
    """A repetition-skewed query stream over ``patterns``.

    Each round submits every pattern ``2 * (len(patterns) - rank)``
    times — hot patterns repeat most, the workload shape a result cache
    is for.  Shared by the ``service-throughput`` experiment and the
    ``hot-key-skew`` scenario, so both replay the same distribution.
    """
    return [
        Query(pattern, data, algorithm, engine)
        for _ in range(rounds)
        for rank, pattern in enumerate(patterns)
        for _ in range(2 * (len(patterns) - rank))
    ]


def replay_workload(
    service: MatchService, queries: Sequence[Query]
) -> Tuple[WorkloadReport, List]:
    """Replay ``queries`` through the pool; returns (report, results).

    Results come back in input order.  One shared implementation so the
    CLI ``workload`` subcommand and the ``service-throughput``
    experiment measure the same loop.
    """
    import time

    by_algorithm: Dict[str, int] = {}
    for q in queries:
        by_algorithm[q.algorithm] = by_algorithm.get(q.algorithm, 0) + 1
    start = time.perf_counter()
    futures = service.submit_batch(queries)
    results = [future.result() for future in futures]
    elapsed = time.perf_counter() - start
    return (
        WorkloadReport(len(queries), elapsed, by_algorithm, service.stats),
        results,
    )
