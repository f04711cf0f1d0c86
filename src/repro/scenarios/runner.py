"""Deterministic scenario replay: the correctness fixture set.

:class:`ScenarioRunner` expands a manifest's (engine, backend) matrix
and replays each case from scratch — fresh dataset from the pinned
seed, fresh :class:`~repro.service.MatchService` or
:class:`~repro.distributed.Cluster` — so every case report is an
isolated, reproducible observation:

* **Digest** — SHA-256 over the canonical result stream (see
  :mod:`repro.scenarios.digest`): results only, in submission order,
  never timings or scheduler-dependent statistics.  Distributed cases
  also carry the traffic half, a digest of their sorted bus logs.
* **Counts** — the service's execution counts, and cache behavior from
  the :class:`~repro.service.cache.CacheStats` of whichever cache the
  case filled: the service's, or the cluster's result store.
* **Bus traffic** — exact, from each report's ``query_log``, and
  cross-checked against the ``bus.log`` attribute of the
  ``distributed.run`` trace spans captured during the case.

Cases are not timed; perfbench (``perfbench/``) measures latency.
Unavailable cells (no numpy, no process backend on the platform) come
back as *skipped* reports with the reason — never silently dropped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import collector, set_tracing
from repro.scenarios.digest import digest_halves
from repro.scenarios.manifest import (
    EXPECTED_DIGESTS,
    EXPECTED_TRAFFIC_DIGESTS,
    SCENARIOS,
    ScenarioManifest,
    get_scenario,
)
from repro.scenarios.report import ScenarioCaseReport

__all__ = ["ScenarioRunner", "run_matrix"]


class ScenarioRunner:
    """Replays scenario manifests case by case (see module docstring)."""

    def __init__(self, manifest: ScenarioManifest) -> None:
        self.manifest = manifest

    # ------------------------------------------------------------------
    # Fixtures (deterministic per manifest + scale)
    # ------------------------------------------------------------------
    def build_graph(self, scale: str):
        manifest = self.manifest
        nodes = manifest.scale_nodes(scale)
        if manifest.dataset == "amazon":
            from repro.datasets import generate_amazon

            return generate_amazon(
                nodes, num_labels=manifest.num_labels, seed=manifest.seed
            )
        if manifest.dataset == "youtube":
            from repro.datasets import generate_youtube

            return generate_youtube(
                nodes, num_labels=manifest.num_labels, seed=manifest.seed
            )
        from repro.datasets import generate_graph

        return generate_graph(
            nodes, alpha=1.2, num_labels=manifest.num_labels,
            seed=manifest.seed,
        )

    def build_patterns(self, data) -> List:
        from repro.datasets import pattern_suite_for_data

        manifest = self.manifest
        patterns = pattern_suite_for_data(
            data, manifest.pattern_sizes, seed=manifest.pattern_seed
        )
        if not patterns:
            raise RuntimeError(
                f"scenario {manifest.name!r}: no pattern could be sampled "
                f"at |V|={data.num_nodes}; enlarge the scale or reseed"
            )
        if manifest.kind != "paths":
            return patterns
        if manifest.path_kind == "bounded":
            from repro.core.bounded import BoundedPattern

            # Every edge relaxed to a 2-hop bound: direct edges still
            # match, one intermediate hop newly allowed.
            return [
                BoundedPattern(p, {edge: 2 for edge in p.edges()})
                for p in patterns
            ]
        from repro.core.regular import RegularPattern

        # ``.?`` per edge: a direct edge or one any-label intermediate,
        # consistent with the 2-hop bound.
        return [
            RegularPattern(
                p,
                {edge: ".?" for edge in p.edges()},
                {edge: 2 for edge in p.edges()},
            )
            for p in patterns
        ]

    def mutation_batches(self, data) -> List[List[Tuple]]:
        manifest = self.manifest
        if manifest.mutation_segments <= 0 or manifest.mutation_count <= 0:
            return []
        from repro.experiments.performance import random_insertion_stream

        count = manifest.mutation_count
        stream = random_insertion_stream(
            data, manifest.mutation_segments * count,
            seed=manifest.mutation_seed,
        )
        return [
            stream[i * count: (i + 1) * count]
            for i in range(manifest.mutation_segments)
        ]

    def build_stream(self, patterns: Sequence, data, engine: str) -> List:
        from repro.service import Query, skewed_stream

        manifest = self.manifest
        if manifest.kind == "paths":
            algorithms: Tuple[str, ...] = (manifest.path_kind,)
        else:
            algorithms = manifest.algorithms
        if manifest.stream == "skewed":
            return skewed_stream(
                list(patterns), data, algorithms[0], engine,
                rounds=manifest.rounds,
            )
        # Sequential rounds with the algorithm mix cycled over both the
        # round and the pattern index — the "tenancy" shape where
        # different tenants hit different notions on the same graph.
        queries = []
        for round_no in range(manifest.rounds):
            for index, pattern in enumerate(patterns):
                algorithm = algorithms[(round_no + index) % len(algorithms)]
                queries.append(Query(pattern, data, algorithm, engine))
        return queries

    # ------------------------------------------------------------------
    # Case execution
    # ------------------------------------------------------------------
    def run_case(
        self, scale: str, engine: str, backend: Optional[str] = None
    ) -> ScenarioCaseReport:
        manifest = self.manifest
        skip = self._unavailable(engine, backend)
        if skip is not None:
            return self._skipped(scale, engine, backend, skip)
        if manifest.kind == "distributed":
            return self._run_distributed_case(scale, engine, backend)
        return self._run_service_case(scale, engine)

    def _unavailable(
        self, engine: str, backend: Optional[str]
    ) -> Optional[str]:
        if engine == "numpy":
            from repro.core.kernel import NUMPY_AVAILABLE

            if not NUMPY_AVAILABLE:
                return "numpy is not installed"
        if backend == "processes":
            from repro.distributed import process_backend_available

            if not process_backend_available():
                return "the 'processes' backend is unavailable here"
        return None

    def _skipped(
        self, scale: str, engine: str, backend: Optional[str], reason: str
    ) -> ScenarioCaseReport:
        manifest = self.manifest
        return ScenarioCaseReport(
            scenario=manifest.name, scale=scale, engine=engine,
            backend=backend, digest="",
            expected_digest=EXPECTED_DIGESTS.get((manifest.name, scale)),
            queries=0, skipped=reason,
        )

    def _run_service_case(
        self, scale: str, engine: str
    ) -> ScenarioCaseReport:
        from repro.service import MatchService

        manifest = self.manifest
        data = self.build_graph(scale)
        patterns = self.build_patterns(data)
        stream = self.build_stream(patterns, data, engine)
        batches = self.mutation_batches(data)
        segments = _split_segments(stream, len(batches) + 1)
        results: List = []
        with MatchService(
            max_workers=manifest.workers, cache_size=manifest.cache_size
        ) as service:
            for index, segment in enumerate(segments):
                # Quiesce at every segment boundary: the whole segment
                # resolves before the next mutation batch, so mutations
                # never race in-flight queries and later segments
                # deterministically observe the post-mutation graph.
                results.extend(
                    future.result()
                    for future in service.submit_batch(segment)
                )
                if index < len(batches):
                    for source, target in batches[index]:
                        data.add_edge(source, target)
            stats = service.stats
        return ScenarioCaseReport(
            scenario=manifest.name,
            scale=scale,
            engine=engine,
            backend=None,
            digest=digest_halves(results)[0],
            expected_digest=EXPECTED_DIGESTS.get((manifest.name, scale)),
            queries=len(stream),
            cache=_cache_block(stats.cache),
            executed=_executed_block(stats),
        )

    def _run_distributed_case(
        self, scale: str, engine: str, backend: Optional[str]
    ) -> ScenarioCaseReport:
        from repro.distributed import PARTITIONERS, Cluster
        from repro.service import MatchService

        manifest = self.manifest
        data = self.build_graph(scale)
        patterns = self.build_patterns(data)
        batches = self.mutation_batches(data)
        reports: List = []
        previous_tracing = set_tracing(True)
        trace_sink = collector()
        trace_sink.clear()
        try:
            assignment = PARTITIONERS[manifest.partitioner](
                data, manifest.sites
            )
            with Cluster(
                data, assignment, manifest.sites, engine=engine,
                backend=backend,
            ) as cluster:
                with MatchService(max_workers=2) as service:
                    for round_no in range(manifest.rounds):
                        for pattern in patterns:
                            # Twice per round: the second call replays
                            # from the cluster's result store at the
                            # same version vector.
                            reports.append(
                                service.query_distributed(pattern, cluster)
                            )
                            reports.append(
                                service.query_distributed(pattern, cluster)
                            )
                        if round_no < len(batches):
                            for source, target in batches[round_no]:
                                cluster.add_edge(source, target)
                    stats = service.stats
                cache_stats = cluster.result_store.stats
                final_vector = list(cluster.version)
        finally:
            set_tracing(previous_tracing)
        trace_ok = self._trace_cross_check(
            trace_sink, reports, stats.computed
        )
        trace_sink.clear()
        by_kind: Dict[str, int] = {}
        for report in reports:
            for kind, units in report.units_by_kind().items():
                by_kind[kind] = by_kind.get(kind, 0) + units
        digest, traffic_digest = digest_halves(reports)
        return ScenarioCaseReport(
            scenario=manifest.name,
            scale=scale,
            engine=engine,
            backend=backend,
            digest=digest,
            expected_digest=EXPECTED_DIGESTS.get((manifest.name, scale)),
            queries=len(reports),
            cache=_cache_block(cache_stats),
            executed=_executed_block(stats),
            bus={
                "messages": sum(len(report.query_log) for report in reports),
                "units": sum(by_kind.values()),
                "by_kind": by_kind,
                "final_version_vector": final_vector,
            },
            bus_log_matches_trace=trace_ok,
            traffic_digest=traffic_digest,
            expected_traffic_digest=EXPECTED_TRAFFIC_DIGESTS.get(
                (manifest.name, scale)
            ),
        )

    @staticmethod
    def _trace_cross_check(trace_sink, reports, computed: int) -> bool:
        """``bus.log`` span attributes vs the reports' ``query_log``.

        Every protocol run traced a ``distributed.run`` span carrying
        its exact charges as ``bus.log``; replayed reports ran no
        protocol and traced none.  So the captured logs must (a) number
        exactly the computed runs and (b) each equal some report's
        ``query_log``.
        """
        trace_logs = []
        for root in trace_sink.roots():
            stack = [root]
            while stack:
                span = stack.pop()
                if span.name == "distributed.run":
                    trace_logs.append(
                        tuple(tuple(entry) for entry in span.attrs["bus.log"])
                    )
                stack.extend(span.children)
        report_logs = {tuple(report.query_log) for report in reports}
        return len(trace_logs) == computed and all(
            log in report_logs for log in trace_logs
        )

    # ------------------------------------------------------------------
    def run(self, scale: str) -> List[ScenarioCaseReport]:
        """Every case of the manifest's matrix at ``scale``."""
        return [
            self.run_case(scale, engine, backend)
            for engine, backend in self.manifest.cases()
        ]


def _cache_block(stats) -> Dict[str, float]:
    """A case report's ``cache`` entry from one cache's ``CacheStats``."""
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": stats.hit_rate,
        "stores": stats.stores,
        "invalidations": stats.invalidations,
        "evictions": stats.evictions,
    }


def _executed_block(stats) -> Dict[str, int]:
    """A case report's ``executed`` entry from the ``ServiceStats``."""
    return {
        "queries": stats.queries,
        "computed": stats.computed,
        "replayed": stats.replayed,
        "coalesced": stats.coalesced,
    }


def _split_segments(stream: List, parts: int) -> List[List]:
    """``stream`` in ``parts`` near-equal contiguous chunks (no empties
    unless the stream is shorter than ``parts``)."""
    if parts <= 1:
        return [list(stream)]
    size, extra = divmod(len(stream), parts)
    segments, cursor = [], 0
    for index in range(parts):
        take = size + (1 if index < extra else 0)
        segments.append(list(stream[cursor: cursor + take]))
        cursor += take
    return segments


def run_matrix(
    names: Optional[Sequence[str]] = None, scale: str = "smoke"
) -> List[ScenarioCaseReport]:
    """Run the (named or full) scenario matrix at one scale.

    Scenarios without the requested scale are skipped per case with a
    note, so ``--scale M`` over the full registry still reports every
    cell it could not fill.
    """
    manifests = (
        [get_scenario(name) for name in names] if names else list(SCENARIOS)
    )
    cases: List[ScenarioCaseReport] = []
    for manifest in manifests:
        runner = ScenarioRunner(manifest)
        if scale not in manifest.scales:
            cases.extend(
                ScenarioCaseReport(
                    scenario=manifest.name, scale=scale, engine=engine,
                    backend=backend, digest="", expected_digest=None,
                    queries=0, skipped=f"scenario has no {scale!r} scale",
                )
                for engine, backend in manifest.cases()
            )
            continue
        cases.extend(runner.run(scale))
    return cases
