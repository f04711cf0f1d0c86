"""The four benchmark workloads: seeded inputs, set-up, streams, references.

Every workload is a closed loop over one deterministic operation stream
drawn from ``--seed``: queries ``(QUERY, (pattern id, algorithm))`` and
write batches ``(WRITE, (added edges, removed edges))``.  The program
only ever sees the generated inputs.  A workload provides

* ``make_inputs(seed)`` — graph, pattern pool and stream parameters,
  generated before anything is timed;
* ``build(graph)`` — the cold start that ``setup_s`` times: everything
  between having the inputs in hand and serving the first warm query;
* ``submit`` / ``apply_write`` — one query, one write batch;
* ``reference`` — the same executed stream replayed serially on a
  reference configuration, for the correctness gate.

Why these four: each stresses a different layer, and each layer an
optimisation could target is exercised by one workload and bypassed by
another (see ``BENCHMARK.json`` and ``perfbench/layers.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.bounded import BoundedPattern, bounded_simulation
from repro.core.digraph import DiGraph
from repro.core.dualsim import dual_simulation
from repro.core.kernel import get_index, resolve_engine
from repro.core.matchplus import match_plus
from repro.core.npkernel import get_array_view
from repro.core.pattern import Pattern
from repro.core.reach import get_reach_index
from repro.core.regular import RegularPattern, regular_strong_match
from repro.core.simulation import graph_simulation
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import PARTITIONERS, Cluster
from repro.service import MatchService
from repro.service.fingerprint import canonical_form

from harness import QUERY, WRITE

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Spec:
    """Sizes and stream shape of one workload."""

    nodes: int
    labels: int
    pool: int
    sizes: Tuple[int, ...]
    clients: int
    #: Queries between two quiesced write boundaries.
    write_every: int
    #: Edges inserted per write batch (0: the boundary writes nothing).
    inserts: int = 0
    #: Every ``delete_every``-th batch, starting at ``delete_first``,
    #: also removes one existing edge (0: never).
    delete_every: int = 0
    delete_first: int = 0
    setup_reps: int = 5
    cache_size: int = 256


@dataclass
class Inputs:
    seed: int
    graph: DiGraph
    patterns: List[object]
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class Session:
    graph: DiGraph
    service: MatchService
    cluster: Optional[Cluster] = None


class Workload:
    """Shared stream generation, set-up timing and reference replay."""

    name = ""
    spec: Spec
    #: Patterns sampled beyond ``spec.pool``, used once each as the
    #: first read after a write.
    PROBES = 0
    WARMUP = 4
    WARMUP_ALGORITHMS: Tuple[str, ...] = ("match-plus",)
    #: Whether set-up builds alternate CPUs (see ``harness.timed_setups``).
    PIN_SETUP = True
    #: Generator seed of the data graph; ``None`` draws it from ``--seed``
    #: like the pattern pool and the operation stream.
    GRAPH_SEED: Optional[int] = None

    def __init__(self, spec: Optional[Spec] = None) -> None:
        if spec is not None:
            self.spec = spec
        #: Set-up sub-phase timings (seconds) of every build, by phase.
        self.phases: Dict[str, List[float]] = {}

    def scaled(self, **changes) -> "Workload":
        """This workload with some :class:`Spec` fields replaced."""
        return type(self)(replace(self.spec, **changes))

    # -- inputs ---------------------------------------------------------
    def make_inputs(self, seed: int) -> Inputs:
        spec = self.spec
        graph = generate_graph(
            spec.nodes, alpha=1.2, num_labels=spec.labels,
            seed=seed if self.GRAPH_SEED is None else self.GRAPH_SEED,
        )
        return Inputs(seed, graph, self.sample_pool(graph, seed))

    def sample_pool(self, graph: DiGraph, seed: int) -> List[Pattern]:
        """Data-sampled patterns of diameter 2, pairwise non-isomorphic.

        The pool holds equally many patterns of each size in
        ``spec.sizes``; ``PROBES`` and ``WARMUP`` more follow it.  Every
        ball has radius 2: sampled patterns of diameter 3 are a ~5%
        minority costing 2-6x the others, and which of them a seed drew
        decided most of the seed-to-seed spread, as did the size mix.
        """
        spec = self.spec
        per_size = -(-spec.pool // len(spec.sizes))
        taken = {size: 0 for size in spec.sizes}
        extra_count = self.PROBES + self.WARMUP
        pool: List[Pattern] = []
        extra: List[Pattern] = []
        keys = set()
        attempt = 0
        limit = 50 * (spec.pool + extra_count)
        while (
            len(pool) < spec.pool or len(extra) < extra_count
        ) and attempt < limit:
            size = spec.sizes[attempt % len(spec.sizes)]
            pattern = sample_pattern_from_data(
                graph, size, seed=seed * 100_003 + attempt
            )
            attempt += 1
            if pattern is None or pattern.diameter != 2:
                continue
            key = canonical_form(pattern).key
            if key in keys:
                continue
            if len(pool) < spec.pool and taken[size] < per_size:
                taken[size] += 1
                pool.append(pattern)
            elif len(extra) < extra_count:
                extra.append(pattern)
            else:
                continue
            keys.add(key)
        if len(pool) < spec.pool or len(extra) < extra_count:
            raise RuntimeError(
                f"{self.name}: sampled only {len(pool) + len(extra)} "
                "distinct patterns"
            )
        return pool + extra

    def warmup(self) -> List[Tuple[int, str]]:
        """Queries run after set-up and before the window, untimed and
        unchecked, on patterns the stream never uses: first calls into
        a warm system still pay one-time costs (array label masks,
        allocator growth in the worker processes)."""
        first = self.spec.pool + self.PROBES
        return [
            (first + i, self.WARMUP_ALGORITHMS[i % len(self.WARMUP_ALGORITHMS)])
            for i in range(self.WARMUP)
        ]

    def ops(self, inputs: Inputs) -> Iterator[Tuple[str, object]]:
        """The endless deterministic stream for ``inputs.seed``.

        Write batches are drawn against a shadow edge list, so every
        insertion is a new edge and every removal an existing one, and
        the stream does not depend on how fast the program runs.
        """
        spec = self.spec
        rng = random.Random(f"{self.name}/{inputs.seed}/stream")
        edges = list(inputs.graph.edges())
        edge_set = set(edges)
        nodes = list(inputs.graph.nodes())
        batch = 0
        while True:
            for index in range(spec.write_every):
                yield QUERY, self.next_query(
                    rng, batch, index, batch * spec.write_every + index
                )
            adds: List[Edge] = []
            while len(adds) < spec.inserts:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if source != target and (source, target) not in edge_set:
                    edge_set.add((source, target))
                    edges.append((source, target))
                    adds.append((source, target))
            removes: List[Edge] = []
            if (
                spec.delete_every
                and batch >= spec.delete_first
                and (batch - spec.delete_first) % spec.delete_every == 0
            ):
                slot = rng.randrange(len(edges))
                edges[slot], edges[-1] = edges[-1], edges[slot]
                removed = edges.pop()
                edge_set.discard(removed)
                removes.append(removed)
            batch += 1
            yield WRITE, (tuple(adds), tuple(removes))

    def next_query(
        self, rng: random.Random, batch: int, index: int, position: int
    ) -> Tuple[int, str]:
        """The query at ``position`` of the stream, ``index`` within
        write batch number ``batch``: a (pattern id, algorithm) pair."""
        raise NotImplementedError

    # -- set-up ---------------------------------------------------------
    def prepare(self, inputs: Inputs) -> DiGraph:
        """A fresh, uncompiled copy of the data graph (untimed)."""
        return inputs.graph.copy()

    def phase(self, name: str, started: float) -> float:
        now = perf_counter()
        self.phases.setdefault(name, []).append(now - started)
        return now

    def build(self, graph: DiGraph) -> Session:
        """Cold start of a centralized service over ``graph``."""
        started = perf_counter()
        service = MatchService(
            max_workers=self.spec.clients, cache_size=self.spec.cache_size
        )
        started = self.phase("service.start", started)
        index = get_index(graph)
        started = self.phase("index.compile", started)
        if resolve_engine("auto", graph) == "numpy":
            get_array_view(index)
            self.phase("npkernel.view_build", started)
        return Session(graph, service)

    def close(self, session: Session) -> None:
        session.service.close()
        if session.cluster is not None:
            session.cluster.close()

    # -- the timed window -----------------------------------------------
    def apply_write(self, session: Session, payload) -> None:
        adds, removes = payload
        graph = session.graph
        for source, target in adds:
            graph.add_edge(source, target)
        for source, target in removes:
            graph.remove_edge(source, target)

    def submit(self, session: Session, inputs: Inputs, payload):
        pattern_id, algorithm = payload
        # A fresh Pattern object per query, as a client request would
        # arrive: per-pattern memos (canonical form, quotient) must not
        # carry over from earlier queries of the same pattern.
        source = inputs.patterns[pattern_id]
        pattern = Pattern(source.graph.copy())
        return session.service.submit(pattern, session.graph, algorithm)

    # -- correctness reference ------------------------------------------
    def reference(self, inputs: Inputs, executed) -> List[object]:
        """Replay ``executed`` serially on the reference configuration.

        Results are memoized per query between two writes that change
        the graph: a query's answer is a function of the pattern and the
        graph state.
        """
        state = self.reference_state(inputs)
        try:
            memo: Dict[object, object] = {}
            results = []
            for kind, payload in executed:
                if kind == WRITE:
                    if any(payload):  # an empty batch keeps the graph
                        self.reference_write(state, payload)
                        memo.clear()
                    continue
                if payload not in memo:
                    memo[payload] = self.reference_query(
                        state, inputs, payload
                    )
                results.append(memo[payload])
            return results
        finally:
            self.reference_close(state)

    def reference_state(self, inputs: Inputs):
        return inputs.graph.copy()

    def reference_write(self, state, payload) -> None:
        adds, removes = payload
        for source, target in adds:
            state.add_edge(source, target)
        for source, target in removes:
            state.remove_edge(source, target)

    def reference_query(self, state, inputs: Inputs, payload):
        raise NotImplementedError

    def reference_close(self, state) -> None:
        pass


class StrongHeavy(Workload):
    name = "strong-heavy"
    # An 8-entry LRU cycled over 150 distinct patterns never hits, but
    # every query still pays fingerprint, lookup, encode and store.  The
    # write boundaries are empty: read_after_write_p50_ms is the control
    # for the workloads that do write.  11 is coprime to the pool size,
    # so the post-boundary queries visit every pattern.
    spec = Spec(
        nodes=2500, labels=8, pool=150, sizes=(4, 5, 6, 7, 8), clients=2,
        write_every=11, cache_size=8, setup_reps=12,
    )

    def next_query(self, rng, batch, index, position):
        return position % self.spec.pool, "match-plus"

    def reference_query(self, state, inputs, payload):
        pattern_id, _ = payload
        return match_plus(inputs.patterns[pattern_id], state, engine="python")


class ServeMixed(Workload):
    name = "serve-mixed"
    spec = Spec(
        nodes=2500, labels=20, pool=60, sizes=(3, 4, 5, 6), clients=2,
        write_every=150, inserts=4, delete_every=5, delete_first=2,
        setup_reps=12,
    )
    ALGORITHMS = ("match-plus", "dual", "sim")
    PROBES = 120
    WARMUP = 6
    WARMUP_ALGORITHMS = ALGORITHMS
    #: Zipf exponent of pattern popularity: the hottest of the 60
    #: patterns draws ~7% of the queries, so no single pattern's cost
    #: decides a run.
    SKEW = 0.5

    def ops(self, inputs):
        self._cum = []
        total = 0.0
        for rank in range(self.spec.pool):
            total += (rank + 1) ** -self.SKEW
            self._cum.append(total)
        return super().ops(inputs)

    def next_query(self, rng, batch, index, position):
        if index == 0:
            # The first read after a write is a pattern never queried
            # before, so it always reaches the engine and pays the lazy
            # index sync and array-view rebuild (a hot pattern would be
            # a cache hit or a miss depending on invalidation luck).
            return self.spec.pool + batch % self.PROBES, "dual"
        # Zipf over the hot pool: popular patterns repeat most.
        pattern_id = rng.choices(range(self.spec.pool), cum_weights=self._cum)[0]
        return pattern_id, self.ALGORITHMS[rng.randrange(3)]

    def reference_query(self, state, inputs, payload):
        pattern_id, algorithm = payload
        pattern = inputs.patterns[pattern_id]
        if algorithm == "match-plus":
            return match_plus(pattern, state, engine="python")
        if algorithm == "dual":
            return dual_simulation(pattern, state)
        return graph_simulation(pattern, state, engine="python")


class Distributed2Site(Workload):
    name = "distributed-2site"
    # A query costs about the same whatever its pattern (the per-site
    # work follows the fragment size, not the pattern), so its latency
    # spread is machine noise.  |V|=1000 (~30-40 ms a query) fits
    # ~250-350 queries in a 10 s window, against ~95 at |V|=2500
    # (~110 ms), and so backs the p90 with 25-35 samples beyond it, not 10.
    spec = Spec(
        nodes=1000, labels=20, pool=420, sizes=(4, 5, 6), clients=1,
        write_every=5, inserts=2, setup_reps=12,
    )
    SITES = 2
    # One graph for every seed: as a query's cost follows the fragments,
    # not the pattern, a graph per seed made the seed, not the program,
    # decide ~10% of the latency (31-38 ms p50 over eight seeds).
    GRAPH_SEED = 1
    WARMUP_ALGORITHMS = ("distributed",)
    PIN_SETUP = False  # the build forks the site workers

    def make_inputs(self, seed: int) -> Inputs:
        inputs = super().make_inputs(seed)
        # The sharding is part of the data as loaded, not of set-up.
        inputs.extra["assignment"] = PARTITIONERS["bfs"](
            inputs.graph, self.SITES
        )
        return inputs

    def next_query(self, rng, batch, index, position):
        # Patterns are taken in order, so every query of a run is a
        # distinct pattern (the pool outlasts the window).
        return position % self.spec.pool, "distributed"

    def prepare(self, inputs: Inputs):
        return inputs

    def build(self, inputs: Inputs) -> Session:
        started = perf_counter()
        cluster = Cluster(
            inputs.graph, inputs.extra["assignment"], self.SITES,
            engine="auto", backend="processes",
        )
        started = self.phase("runtime.bootstrap", started)
        # Worker processes compile their site index on the first query;
        # a pattern whose label no node carries forces exactly that.
        cluster.run(Pattern.build({"warm": "\x00warm-up"}, []))
        started = self.phase("worker.warm_query", started)
        service = MatchService(max_workers=self.spec.clients, cache_size=0)
        self.phase("service.start", started)
        return Session(inputs.graph, service, cluster)

    def apply_write(self, session: Session, payload) -> None:
        adds, _ = payload
        for source, target in adds:
            session.cluster.add_edge(source, target)

    def submit(self, session: Session, inputs: Inputs, payload):
        pattern_id, _ = payload
        # ``cached=False``: no result store, every query runs the protocol.
        return session.service.submit_distributed(
            inputs.patterns[pattern_id], session.cluster, cached=False
        )

    def reference_state(self, inputs: Inputs):
        # The in-process backend is the observation reference.  The
        # python engine would cost ~1.1 s per query here, so the sites
        # run the kernel; engine identity is the differential suite's.
        return Cluster(
            inputs.graph, inputs.extra["assignment"], self.SITES,
            engine="kernel", backend="inproc",
        )

    def reference_write(self, state, payload) -> None:
        adds, _ = payload
        for source, target in adds:
            state.add_edge(source, target)

    def reference_query(self, state, inputs, payload):
        pattern_id, _ = payload
        return state.run(inputs.patterns[pattern_id])

    def reference_close(self, state) -> None:
        state.close()


class PathsMixed(Workload):
    name = "paths-mixed"
    # One client: path queries hold the GIL for milliseconds, so a
    # second client only queued behind the first.  With two, the p50
    # and p90 were each query's wait for the other's GIL slices and moved
    # with the host (ten-seed p50 spread 0.30-0.33).
    spec = Spec(
        nodes=1000, labels=20, pool=120, sizes=(3, 4, 5), clients=1,
        write_every=25, inserts=2, delete_every=48, delete_first=12,
        setup_reps=4,
    )
    WARMUP_ALGORITHMS = ("bounded",)
    #: One query in this many, at a fixed stream position, is a regular
    #: (``.?`` per edge) query on one of the 3-node pool patterns.  A
    #: regular query costs 20-50 bounded ones, so a random share made
    #: throughput depend on how many a run happened to draw.
    REGULAR_EVERY = 100
    REGULAR_POOL = 8

    def make_inputs(self, seed: int) -> Inputs:
        inputs = super().make_inputs(seed)
        plain = inputs.patterns
        bounded = [
            BoundedPattern(p, {edge: 2 for edge in p.edges()}) for p in plain
        ]
        small = [p for p in plain[: self.spec.pool] if p.num_nodes == 3]
        regular = [
            RegularPattern(
                p,
                {edge: ".?" for edge in p.edges()},
                {edge: 2 for edge in p.edges()},
            )
            for p in small[: self.REGULAR_POOL]
        ]
        inputs.patterns = bounded + regular
        inputs.extra["regular"] = len(regular)
        return inputs

    def ops(self, inputs):
        self._regular = inputs.extra["regular"]
        return super().ops(inputs)

    def next_query(self, rng, batch, index, position):
        if position % self.REGULAR_EVERY == self.REGULAR_EVERY // 2:
            first = self.spec.pool + self.WARMUP
            return first + rng.randrange(self._regular), "regular"
        return rng.randrange(self.spec.pool), "bounded"

    def build(self, graph: DiGraph) -> Session:
        session = super().build(graph)
        started = perf_counter()
        get_reach_index(graph)
        self.phase("reach.build", started)
        return session

    def submit(self, session: Session, inputs: Inputs, payload):
        pattern_id, algorithm = payload
        # Path patterns are never cached or memoized by the service, so
        # the pool objects are submitted as they are.
        return session.service.submit(
            inputs.patterns[pattern_id], session.graph, algorithm
        )

    def reference_query(self, state, inputs, payload):
        pattern_id, algorithm = payload
        pattern = inputs.patterns[pattern_id]
        if algorithm == "bounded":
            return bounded_simulation(pattern, state, engine="python")
        # The python regular matcher needs ~80 s per query at |V|=1000,
        # so regular queries are checked against the kernel run serially
        # on this separately built and separately maintained graph.
        return regular_strong_match(pattern, state, engine="kernel")


WORKLOADS = {
    workload.name: workload
    for workload in (StrongHeavy, ServeMixed, Distributed2Site, PathsMixed)
}


def get_workload(name: str) -> Workload:
    return WORKLOADS[name]()
