"""Reusable cross-engine differential harness.

Every matching entry point in the repo runs on the execution engines of
:data:`repro.core.engines.ENGINE_TABLE` — ``"python"`` (the reference
path, transcribed from the paper's pseudocode), ``"kernel"`` (the
compiled CSR path of :mod:`repro.core.kernel` /
:mod:`repro.distributed.sitekernel`), and ``"numpy"`` (the kernel with
the batched ball refinement of :mod:`repro.core.npkernel` in its
``match_plus`` cell).  The engines' contract is
*output identity*, and this module is the one place that knows how to
observe each entry point in an engine-independent, comparable form:

* :data:`ENGINES` / :data:`ENTRY_POINTS` — the matrix under test, taken
  from the engine table: one row per engine, one centralized entry
  point per table cell;
* :func:`run_entry_point` — run one entry point on one engine and return
  its canonical observation;
* :func:`assert_entry_point_identical` /
  :func:`assert_all_entry_points_identical` — the differential asserts;
* :func:`cluster_observation` — the full observable protocol output of a
  distributed run: canonical result set, per-site partial-subgraph
  counts, and the complete message-bus accounting (message count, units
  by kind, units per directed link);
* the **update-workload harness** — random interleavings of graph
  mutations and queries (:func:`random_mutation`,
  :func:`assert_update_workload_identical`): after every mutation the
  warm incremental kernel (one cached, delta-maintained ``GraphIndex``;
  warm per-site indexes on the distributed path) must observe
  identically to the from-scratch reference engine *and* to a
  from-scratch kernel compile of a graph copy.

Test modules parametrize over these instead of hand-rolling per-entry
canonicalization; new engines or entry points get differential coverage
by extending the tables here.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.core.digraph import DiGraph, GraphDelta
from repro.core.dualsim import dual_simulation
from repro.core.engines import CELLS, ENGINE_TABLE, engine_for
from repro.core.kernel import get_index
from repro.core.matchplus import match_plus
from repro.core.pattern import Pattern
from repro.core.simulation import graph_simulation
from repro.core.strong import match, matches_via_strong_simulation
from repro.distributed import Cluster
from repro.distributed.coordinator import DistributedRunReport
from repro.distributed.network import MessageBus
from repro.distributed.runtime import process_backend_available

#: Every row of the engine table, the reference row first.
ENGINES = tuple(ENGINE_TABLE)

#: The cluster runtime backends under differential test.  The process
#: backend is included only where the platform can host it; callers that
#: need an unconditional tuple use :data:`ALL_BACKENDS`.
ALL_BACKENDS = ("inproc", "processes")


def available_backends():
    """The backends this platform can actually run."""
    if process_backend_available():
        return ALL_BACKENDS
    return ("inproc",)


# ----------------------------------------------------------------------
# Canonical forms
# ----------------------------------------------------------------------
def canonical_result(result) -> frozenset:
    """Engine-independent form of a ``MatchResult``.

    The set of (node/edge signature, relation pair set) pairs: discovery
    order and the incidental recorded center may differ between engines,
    the subgraphs and their relations may not.
    """
    return frozenset(
        (sg.signature(), sg.relation.pair_set()) for sg in result
    )


def canonical_relation(relation) -> frozenset:
    """Engine-independent form of a ``MatchRelation``."""
    return relation.pair_set()


def bus_observation(bus) -> Dict[str, Any]:
    """Everything the message bus accounts, in comparable form."""
    return {
        "total_messages": bus.total_messages,
        "total_units": bus.total_units,
        "units_by_kind": bus.units_by_kind(),
        "units_by_link": {
            link: bus.units_between(*link)
            for link in {(m.sender, m.receiver) for m in bus.messages}
        },
        "data_units": bus.data_units(),
    }


def cluster_observation(report: DistributedRunReport) -> Dict[str, Any]:
    """The full observable output of one distributed run."""
    return {
        "result": canonical_result(report.result),
        "per_site_subgraphs": dict(report.per_site_subgraphs),
        "bus": bus_observation(report.bus),
    }


def distributed_observation(report: DistributedRunReport) -> Dict[str, Any]:
    """The *per-query* observation of one distributed run.

    Replays the report's own ``query_log`` onto a fresh bus, so reports
    from warm clusters (whose live bus is cumulative), cache replays
    (whose bus is already per-query) and freshly built clusters are all
    directly comparable: result set, per-site partial counts, and the
    query's complete bus accounting.
    """
    bus = MessageBus()
    for sender, receiver, kind, units in report.query_log:
        bus.send(sender, receiver, kind, units)
    return {
        "result": canonical_result(report.result),
        "per_site_subgraphs": dict(report.per_site_subgraphs),
        "bus": bus_observation(bus),
    }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def _run_match(pattern, data, engine, **_):
    return canonical_result(match(pattern, data, engine=engine))


def _run_matches(pattern, data, engine, **_):
    return matches_via_strong_simulation(pattern, data, engine=engine)


def _run_match_plus(pattern, data, engine, **_):
    return canonical_result(match_plus(pattern, data, engine=engine))


def _run_graph_simulation(pattern, data, engine, **_):
    return canonical_relation(graph_simulation(pattern, data, engine=engine))


def _run_dual_simulation(pattern, data, engine, **_):
    return canonical_relation(engine_for(engine, data).dual(pattern, data))


def _run_cluster(
    pattern, data, engine, *, assignment=None, num_sites=None, backend=None
):
    if assignment is None or num_sites is None:
        raise ValueError("cluster entry point needs assignment and num_sites")
    cluster = Cluster(data, assignment, num_sites, engine=engine,
                      backend=backend)
    try:
        return cluster_observation(cluster.run(pattern))
    finally:
        cluster.close()


#: name -> runner(pattern, data, engine, **kwargs) returning a canonical,
#: directly comparable observation.
ENTRY_POINTS = {
    "match": _run_match,
    "matches_via_strong_simulation": _run_matches,
    "match_plus": _run_match_plus,
    "graph_simulation": _run_graph_simulation,
    "dual_simulation": _run_dual_simulation,
    "cluster_run": _run_cluster,
}

#: Engine-table cell -> the entry point that observes it.
_CELL_ENTRY_POINTS = {
    "match": "match",
    "match_plus": "match_plus",
    "dual": "dual_simulation",
    "sim": "graph_simulation",
}

#: The entry points that need no cluster setup: one per table cell, so
#: a cell added to the table without a runner here fails at import, plus
#: the decision ``Q ≺_LD G``, which reads the ``match_plus`` cell.
CENTRALIZED_ENTRY_POINTS = tuple(
    _CELL_ENTRY_POINTS[cell] for cell in CELLS
) + ("matches_via_strong_simulation",)


def run_entry_point(
    name: str,
    engine: str,
    pattern: Pattern,
    data: DiGraph,
    *,
    assignment: Optional[Dict] = None,
    num_sites: Optional[int] = None,
    backend: Optional[str] = None,
):
    """Run one entry point on one engine; return its canonical observation."""
    return ENTRY_POINTS[name](
        pattern, data, engine, assignment=assignment, num_sites=num_sites,
        backend=backend,
    )


def assert_entry_point_identical(
    name: str,
    pattern: Pattern,
    data: DiGraph,
    *,
    assignment: Optional[Dict] = None,
    num_sites: Optional[int] = None,
    backend: Optional[str] = None,
) -> None:
    """Assert one entry point observes identically on every engine."""
    kwargs = {
        "assignment": assignment,
        "num_sites": num_sites,
        "backend": backend,
    }
    reference = run_entry_point(name, ENGINES[0], pattern, data, **kwargs)
    for engine in ENGINES[1:]:
        observed = run_entry_point(name, engine, pattern, data, **kwargs)
        assert observed == reference, (
            f"{name} diverged between engines {ENGINES[0]!r} and {engine!r}"
        )


def assert_cluster_backends_identical(
    pattern: Pattern,
    data: DiGraph,
    *,
    assignment: Dict,
    num_sites: int,
    engines: Tuple[str, ...] = ENGINES,
    backends: Optional[Tuple[str, ...]] = None,
) -> None:
    """Assert the full protocol observation is backend-independent.

    For each engine, runs one cluster per backend over the same
    partition and compares the complete observation — canonical result
    set, per-site partial counts, message count and units per kind and
    per directed link.  This is the byte-identity contract of the
    runtime layer: where the workers live (serial in-process or
    process-per-site) must be unobservable in the protocol.
    """
    if backends is None:
        backends = available_backends()
    for engine in engines:
        observations = {}
        for backend in backends:
            observations[backend] = run_entry_point(
                "cluster_run",
                engine,
                pattern,
                data,
                assignment=assignment,
                num_sites=num_sites,
                backend=backend,
            )
        reference = observations[backends[0]]
        for backend in backends[1:]:
            assert observations[backend] == reference, (
                f"cluster_run[{engine}] diverged between backends "
                f"{backends[0]!r} and {backend!r}"
            )


def assert_all_entry_points_identical(
    pattern: Pattern,
    data: DiGraph,
    *,
    assignment: Optional[Dict] = None,
    num_sites: Optional[int] = None,
) -> None:
    """Differential-check every entry point on (pattern, data).

    The cluster entry point is included whenever a partition is supplied.
    """
    for name in CENTRALIZED_ENTRY_POINTS:
        assert_entry_point_identical(name, pattern, data)
    if assignment is not None and num_sites is not None:
        assert_entry_point_identical(
            "cluster_run",
            pattern,
            data,
            assignment=assignment,
            num_sites=num_sites,
        )


# ----------------------------------------------------------------------
# Update-workload differential harness
# ----------------------------------------------------------------------
class DeltaRecorder:
    """Captures the :class:`GraphDelta` stream of a master graph.

    Used to mirror mutations into live clusters: the recorder subscribes
    to the master ``DiGraph`` and :meth:`drain` hands the buffered events
    to ``Cluster.apply_update`` verbatim.
    """

    def __init__(self, graph: DiGraph) -> None:
        self.deltas: List[GraphDelta] = []
        graph.subscribe(self)

    def on_graph_deltas(self, deltas) -> None:
        self.deltas.extend(deltas)

    def drain(self) -> List[GraphDelta]:
        drained, self.deltas = self.deltas, []
        return drained


#: Mutation kinds the workload generator draws from.
MUTATION_KINDS = (
    "add_edge", "remove_edge", "add_node", "remove_node", "relabel",
)

#: Labels used for nodes the workload generator creates or relabels.
WORKLOAD_LABELS = ("l0", "l1", "l2")


def random_mutation(
    rng: "random.Random", graph: DiGraph, fresh_node: int
) -> Optional[Tuple]:
    """Apply one random mutation to ``graph``; describe what happened.

    Returns ``(kind, *args)`` or ``None`` when the drawn mutation was
    inapplicable (e.g. removing an edge from an edgeless graph).  The
    caller supplies ``fresh_node``, a node id not yet in the graph, so
    sequences are reproducible from the rng alone.
    """
    nodes = list(graph.nodes())
    kind = rng.choice(MUTATION_KINDS)
    if kind == "add_edge":
        if not nodes:
            return None
        source, target = rng.choice(nodes), rng.choice(nodes)
        if graph.has_edge(source, target):
            return None
        graph.add_edge(source, target)
        return ("add_edge", source, target)
    if kind == "remove_edge":
        edges = list(graph.edges())
        if not edges:
            return None
        source, target = rng.choice(edges)
        graph.remove_edge(source, target)
        return ("remove_edge", source, target)
    if kind == "add_node":
        label = rng.choice(WORKLOAD_LABELS)
        graph.add_node(fresh_node, label)
        return ("add_node", fresh_node, label)
    if kind == "remove_node":
        if len(nodes) < 2:
            return None
        node = rng.choice(nodes)
        graph.remove_node(node)
        return ("remove_node", node)
    # relabel
    if not nodes:
        return None
    node = rng.choice(nodes)
    label = rng.choice(WORKLOAD_LABELS)
    if graph.label(node) == label:
        return None
    graph.relabel_node(node, label)
    return ("relabel", node, label)


def assert_centralized_update_step_identical(
    pattern: Pattern, graph: DiGraph
) -> None:
    """One post-mutation differential check of the centralized matrix.

    The warm incremental kernel (``graph``'s cached index, maintained
    through the delta stream) must observe identically to the
    from-scratch reference engine on ``graph`` *and* to a from-scratch
    kernel compile on a structural copy of ``graph``.
    """
    copy = graph.copy()  # fresh object: fresh, from-scratch compiles
    compiled_engines = [e for e in ENGINES if ENGINE_TABLE[e].compiled]
    for name in CENTRALIZED_ENTRY_POINTS:
        reference = run_entry_point(name, "python", pattern, graph)
        for engine in compiled_engines:
            warm = run_entry_point(name, engine, pattern, graph)
            assert warm == reference, (
                f"{name}: warm incremental {engine} engine diverged "
                f"from the reference"
            )
            fresh = run_entry_point(name, engine, pattern, copy)
            assert fresh == reference, (
                f"{name}: from-scratch {engine} engine diverged "
                f"from the reference"
            )


# ----------------------------------------------------------------------
# Query-service differential harness
# ----------------------------------------------------------------------
def permuted_pattern(pattern: Pattern, seed: int) -> Pattern:
    """An isomorphic copy with renamed nodes and shuffled insertion order.

    The adversarial twin for fingerprint tests and the service cache:
    structurally identical to ``pattern`` but sharing no node names, with
    node/edge insertion order reshuffled so nothing about iteration
    order survives either.
    """
    rng = random.Random(seed)
    nodes = list(pattern.nodes())
    names = [f"perm{i}" for i in range(len(nodes))]
    rng.shuffle(names)
    rename = dict(zip(nodes, names))
    entries = [(rename[u], pattern.label(u)) for u in nodes]
    rng.shuffle(entries)
    graph = DiGraph()
    for node, label in entries:
        graph.add_node(node, label)
    edges = [(rename[a], rename[b]) for a, b in pattern.edges()]
    rng.shuffle(edges)
    for a, b in edges:
        graph.add_edge(a, b)
    return Pattern(graph)



#: algorithm name -> (direct runner(pattern, data, engine), canonicalizer).
#: The service contract: MatchService.query(pattern, data, algorithm,
#: engine) observes identically to the direct runner — cache cold, warm,
#: or hit through an isomorphic pattern's fingerprint.
SERVICE_ALGORITHM_RUNNERS = {
    "match-plus": (
        lambda p, g, e: match_plus(p, g, engine=e),
        canonical_result,
    ),
    "match": (lambda p, g, e: match(p, g, engine=e), canonical_result),
    "dual": (
        lambda p, g, e: engine_for(e, g).dual(p, g),
        canonical_relation,
    ),
    "sim": (
        lambda p, g, e: graph_simulation(p, g, engine=e),
        canonical_relation,
    ),
}


def assert_service_identical(
    service,
    pattern: Pattern,
    graph: DiGraph,
    *,
    algorithms: Optional[Tuple[str, ...]] = None,
    engines: Tuple[str, ...] = ENGINES,
) -> None:
    """Assert the service observes identically to direct engine calls.

    Runs every (algorithm, engine) combination through ``service`` and
    compares against the direct entry point — which also cross-checks
    cache hits (second and later submissions of one fingerprint replay
    the stored encoding) against fresh computations.
    """
    for algorithm in algorithms or tuple(SERVICE_ALGORITHM_RUNNERS):
        direct, canonicalize = SERVICE_ALGORITHM_RUNNERS[algorithm]
        for engine in engines:
            expected = canonicalize(direct(pattern, graph, engine))
            observed = canonicalize(
                service.query(pattern, graph, algorithm, engine)
            )
            assert observed == expected, (
                f"service diverged from direct {algorithm} on engine "
                f"{engine!r}"
            )


def assert_service_update_workload_identical(
    service,
    pattern: Pattern,
    graph: DiGraph,
    num_ops: int,
    op_seed: int,
    *,
    algorithms: Optional[Tuple[str, ...]] = None,
    check_every: int = 1,
) -> None:
    """Drive mutations against a graph the service has cached results on.

    After every ``check_every``-th applied mutation the service — whose
    cache heard the deltas and either invalidated or provably retained
    each entry — must still observe identically to direct calls.  This
    is the soundness gate of the delta-invalidation rules: a wrongly
    retained entry would surface here as a stale hit.
    """
    assert_service_identical(
        service, pattern, graph, algorithms=algorithms
    )  # warm the cache before the first mutation
    rng = random.Random(op_seed)
    fresh_node = 20_000 + op_seed
    applied = 0
    for _ in range(num_ops):
        op = random_mutation(rng, graph, fresh_node)
        if op is None:
            continue
        if op[0] == "add_node":
            fresh_node += 1
        applied += 1
        if applied % check_every:
            continue
        assert_service_identical(
            service, pattern, graph, algorithms=algorithms
        )


def assert_update_workload_identical(
    pattern: Pattern,
    graph: DiGraph,
    num_ops: int,
    op_seed: int,
    *,
    assignment: Optional[Dict] = None,
    num_sites: Optional[int] = None,
    check_every: int = 1,
) -> None:
    """Drive a random mutation/query interleaving differentially.

    Mutates ``graph`` in place for ``num_ops`` steps (seeded by
    ``op_seed``), asserting after every ``check_every``-th applied
    mutation that the warm incremental kernel results equal from-scratch
    reference results (see
    :func:`assert_centralized_update_step_identical`).

    With a partition supplied, the same delta stream is also mirrored
    into one live cluster per engine via ``Cluster.apply_update`` and the
    full protocol observation is compared at every checkpoint — the warm
    python cluster vs every warm compiled-engine cluster (bus accounting
    included, so update charges and fetch traffic must agree exactly)
    and all against a cluster built fresh from the mutated graph (result
    set and per-site counts; its bus only ever saw one query).
    """
    get_index(graph)  # prime the warm index before the first mutation
    clusters = {}
    recorder = None
    if assignment is not None and num_sites is not None:
        clusters = {
            engine: Cluster(graph.copy(), dict(assignment), num_sites,
                            engine=engine)
            for engine in ENGINES
        }
        recorder = DeltaRecorder(graph)
    rng = random.Random(op_seed)
    fresh_node = 10_000 + op_seed  # never collides with fixture nodes
    applied = 0
    for _ in range(num_ops):
        op = random_mutation(rng, graph, fresh_node)
        if op is None:
            continue
        if op[0] == "add_node":
            fresh_node += 1
        applied += 1
        if recorder is not None:
            for delta in recorder.drain():
                for cluster in clusters.values():
                    cluster.apply_update(delta)
        if applied % check_every:
            continue
        assert_centralized_update_step_identical(pattern, graph)
        if clusters:
            observed = {
                engine: cluster_observation(cluster.run(pattern))
                for engine, cluster in clusters.items()
            }
            for engine in ENGINES[1:]:
                assert observed["python"] == observed[engine], (
                    f"warm clusters diverged between engines 'python' "
                    f"and {engine!r} after updates"
                )
            fresh_cluster = Cluster(
                graph.copy(),
                dict(clusters["kernel"].assignment),
                num_sites,
                engine="kernel",
            )
            fresh_report = fresh_cluster.run(pattern)
            assert (
                canonical_result(fresh_report.result)
                == observed["kernel"]["result"]
            ), "warm cluster result diverged from a freshly built cluster"
            assert (
                dict(fresh_report.per_site_subgraphs)
                == observed["kernel"]["per_site_subgraphs"]
            ), "warm cluster per-site counts diverged from a fresh cluster"


# ----------------------------------------------------------------------
# Path-matching differential harness (bounded / regular, PR 8)
# ----------------------------------------------------------------------
#: The engines the path algorithms run on (no numpy batch path yet —
#: ROADMAP open item).
PATH_ENGINES_TESTED = ("python", "kernel")

#: Default per-edge bound cycle for mixed-bound patterns: one plain
#: edge, two finite path bounds, one unbounded edge.
BOUND_CYCLE = (1, 2, 3, None)


def mixed_bounds(pattern: Pattern, cycle: Tuple = BOUND_CYCLE) -> Dict:
    """Deterministic mixed per-edge bounds: cycle over sorted edges."""
    edges = sorted(pattern.edges(), key=repr)
    return {edge: cycle[i % len(cycle)] for i, edge in enumerate(edges)}


def canonical_path_observation(
    pattern: Pattern,
    data: DiGraph,
    engine: str,
    *,
    bounds: Optional[Dict] = None,
    constraints: Optional[Dict] = None,
    radius: Optional[int] = None,
) -> Dict[str, Any]:
    """One engine's complete path-matching observation.

    Bounded simulation under ``bounds`` plus regular dual simulation and
    regular strong matching under ``bounds`` + ``constraints`` (wildcard
    ``.*`` constraints when none given — plain hop-bound semantics), all
    in canonical comparable form.
    """
    from repro.core.bounded import BoundedPattern, bounded_simulation
    from repro.core.regular import (
        RegularPattern,
        hop_bounded_pattern,
        regular_dual_simulation,
        regular_strong_match,
    )

    if bounds is None:
        bounds = mixed_bounds(pattern)
    bp = BoundedPattern(pattern, bounds)
    if constraints is None:
        rpattern = hop_bounded_pattern(pattern, bounds)
    else:
        rpattern = RegularPattern(pattern, constraints, bounds)
    return {
        "bounded": canonical_relation(
            bounded_simulation(bp, data, engine=engine)
        ),
        "regular_dual": canonical_relation(
            regular_dual_simulation(rpattern, data, engine=engine)
        ),
        "regular_strong": canonical_result(
            regular_strong_match(rpattern, data, radius=radius, engine=engine)
        ),
    }


def assert_paths_identical(
    pattern: Pattern,
    data: DiGraph,
    *,
    bounds: Optional[Dict] = None,
    constraints: Optional[Dict] = None,
    radius: Optional[int] = None,
) -> None:
    """Assert every path algorithm observes identically on every engine."""
    kwargs = {"bounds": bounds, "constraints": constraints, "radius": radius}
    reference = canonical_path_observation(
        pattern, data, PATH_ENGINES_TESTED[0], **kwargs
    )
    for engine in PATH_ENGINES_TESTED[1:]:
        observed = canonical_path_observation(pattern, data, engine, **kwargs)
        for key in reference:
            assert observed[key] == reference[key], (
                f"{key} diverged between engines "
                f"{PATH_ENGINES_TESTED[0]!r} and {engine!r}"
            )


def assert_paths_containment(pattern: Pattern, data: DiGraph) -> None:
    """The containment chain ``strong ⊆ dual ⊆ bounded(1) = simulation``.

    With every bound 1, bounded simulation *is* plain simulation (checked
    as pair-set equality on both engines); dual simulation refines it and
    the union of strong simulation's per-ball relations refines that.
    """
    from repro.core.bounded import BoundedPattern, bounded_simulation

    sim_pairs = canonical_relation(graph_simulation(pattern, data))
    ones = BoundedPattern(pattern, {e: 1 for e in pattern.edges()})
    for engine in PATH_ENGINES_TESTED:
        assert canonical_relation(
            bounded_simulation(ones, data, engine=engine)
        ) == sim_pairs, (
            f"bounded(1) != simulation on engine {engine!r}"
        )
    dual_pairs = canonical_relation(dual_simulation(pattern, data))
    assert dual_pairs <= sim_pairs, "dual ⊄ simulation"
    strong_pairs = set()
    for subgraph in match(pattern, data):
        strong_pairs |= subgraph.relation.pair_set()
    assert strong_pairs <= dual_pairs, "strong ⊄ dual"


def assert_paths_update_workload_identical(
    pattern: Pattern,
    graph: DiGraph,
    num_ops: int,
    op_seed: int,
    *,
    bounds: Optional[Dict] = None,
    constraints: Optional[Dict] = None,
    check_every: int = 1,
) -> None:
    """Drive random mutations against a warm reach index, differentially.

    Primes the graph's ``GraphIndex`` *and* its ``ReachIndex``, then
    mutates the graph in place (seeded by ``op_seed``), asserting after
    every ``check_every``-th applied mutation that the warm kernel —
    whose labeling was patched in place for insertions and rebuilt only
    after deletions — observes identically to the reference engine on
    the same graph and to a from-scratch kernel compile of a copy.
    """
    from repro.core.reach import get_reach_index

    get_index(graph)
    get_reach_index(graph)  # prime the labeling before the first mutation
    rng = random.Random(op_seed)
    fresh_node = 40_000 + op_seed
    applied = 0
    for _ in range(num_ops):
        op = random_mutation(rng, graph, fresh_node)
        if op is None:
            continue
        if op[0] == "add_node":
            fresh_node += 1
        applied += 1
        if applied % check_every:
            continue
        kwargs = {"bounds": bounds, "constraints": constraints}
        reference = canonical_path_observation(
            pattern, graph, "python", **kwargs
        )
        warm = canonical_path_observation(pattern, graph, "kernel", **kwargs)
        fresh = canonical_path_observation(
            pattern, graph.copy(), "kernel", **kwargs
        )
        for key in reference:
            assert warm[key] == reference[key], (
                f"{key}: warm incremental kernel diverged from the "
                f"reference after updates"
            )
            assert fresh[key] == reference[key], (
                f"{key}: from-scratch kernel diverged from the reference "
                f"after updates"
            )


# ----------------------------------------------------------------------
# Distributed-cache differential harness
# ----------------------------------------------------------------------
def assert_distributed_service_identical(
    pattern: Pattern,
    data: DiGraph,
    assignment: Dict,
    num_sites: int,
    *,
    engines: Tuple[str, ...] = ENGINES,
    backends: Tuple[str, ...] = ("inproc",),
    num_ops: int = 0,
    op_seed: int = 0,
) -> None:
    """Cached vs uncached service vs direct ``cluster.run``, differentially.

    For each backend: one warm cluster per engine over the same
    partition, plus a master graph whose mutation deltas are mirrored
    into every cluster through ``Cluster.apply_update``.  At every
    checkpoint (before the first mutation and after each applied one),
    per engine:

    * a direct ``cluster.run`` fixes the expected per-query observation
      (:func:`distributed_observation`);
    * an uncached service submit (``cached=False``) must match it;
    * a cached service submit must match it — whether it computes, was
      provably retained across the deltas, or replays — and an
      immediately repeated submit must match again *as a replay* (the
      version vector is stable between the two).

    Observations must also agree across engines.  A stale retained
    entry, a wrong version-vector gate, or a lossy run-report encoding
    all surface here as a byte-level divergence.
    """
    from repro.service import MatchService

    for backend in backends:
        master = data.copy()
        recorder = DeltaRecorder(master)
        clusters = {
            engine: Cluster(
                data.copy(), dict(assignment), num_sites,
                engine=engine, backend=backend,
            )
            for engine in engines
        }
        service = MatchService(max_workers=2)
        try:
            def check() -> None:
                observed = {}
                for engine, cluster in clusters.items():
                    direct = distributed_observation(cluster.run(pattern))
                    uncached = distributed_observation(
                        service.query_distributed(
                            pattern, cluster, cached=False
                        )
                    )
                    assert uncached == direct, (
                        f"uncached service diverged from cluster.run "
                        f"({engine=}, {backend=})"
                    )
                    first = distributed_observation(
                        service.query_distributed(pattern, cluster)
                    )
                    assert first == direct, (
                        f"cached service diverged from cluster.run "
                        f"({engine=}, {backend=})"
                    )
                    replayed_before = service.stats.replayed
                    second = distributed_observation(
                        service.query_distributed(pattern, cluster)
                    )
                    assert second == direct, (
                        f"cache replay diverged from cluster.run "
                        f"({engine=}, {backend=})"
                    )
                    assert service.stats.replayed == replayed_before + 1, (
                        f"repeat submit at a stable version vector must "
                        f"replay, not recompute ({engine=}, {backend=})"
                    )
                    observed[engine] = direct
                reference = observed[engines[0]]
                for engine in engines[1:]:
                    assert observed[engine] == reference, (
                        f"distributed observation diverged between engines "
                        f"{engines[0]!r} and {engine!r} ({backend=})"
                    )

            check()
            rng = random.Random(op_seed)
            fresh_node = 30_000 + op_seed
            for _ in range(num_ops):
                op = random_mutation(rng, master, fresh_node)
                if op is None:
                    continue
                if op[0] == "add_node":
                    fresh_node += 1
                for delta in recorder.drain():
                    for cluster in clusters.values():
                        cluster.apply_update(delta)
                check()
        finally:
            service.close()
            for cluster in clusters.values():
                cluster.close()
