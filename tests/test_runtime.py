"""The distributed runtime: backend equivalence, warm processes, service.

The contract under test (via the :mod:`tests.engines` harness): the full
protocol observation of ``Cluster.run`` — deduplicated result set Θ,
per-site partial counts, and the complete message-bus accounting
(message count, units per kind, units per directed link, hence the
Section 4.3 data-shipment volume) — is **byte-identical across runtime
backends** (``inproc`` | ``processes``), for both
execution engines, on fixtures and hypothesis-generated
graphs/partitions, across repeated queries on warm clusters and across
mutation streams routed through ``Cluster.apply_update``.

The process-specific sections additionally pin the runtime's warmth
guarantee (the same worker processes serve every query and update of a
cluster's life and observe as a freshly built in-process cluster does;
no site compiles an index) and the service integration
(``MatchService.submit_distributed``).
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern import Pattern
from repro.core.strong import match
from repro.datasets.paper_figures import data_g1, pattern_q1
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import (
    PARTITIONERS,
    Cluster,
    bfs_partition,
    crossing_ball_bound,
    distributed_match,
    hash_partition,
    process_backend_available,
)
from repro.exceptions import DistributedError
from repro.service import MatchService

from tests.conftest import graph_seeds, pattern_seeds, random_digraph
from tests.engines import (
    ENGINES,
    DeltaRecorder,
    assert_cluster_backends_identical,
    bus_observation,
    canonical_result,
    cluster_observation,
    distributed_observation,
    random_mutation,
    available_backends,
)

needs_processes = pytest.mark.skipif(
    not process_backend_available(),
    reason="platform has no fork/forkserver/spawn support",
)


def random_assignment(data, num_sites: int, seed: int):
    rng = random.Random(seed)
    return {node: rng.randrange(num_sites) for node in data.nodes()}


# ----------------------------------------------------------------------
# Backend equivalence: fixtures × partitioners × engines
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("num_sites", [2, 3])
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_paper_figure_full_matrix(self, partitioner, num_sites):
        pattern, data = pattern_q1(), data_g1(4)
        assignment = PARTITIONERS[partitioner](data, num_sites)
        assert_cluster_backends_identical(
            pattern, data, assignment=assignment, num_sites=num_sites
        )

    def test_synthetic_bfs_partition(self, small_synthetic):
        pattern = sample_pattern_from_data(small_synthetic, 4, seed=2)
        assert pattern is not None
        assignment = bfs_partition(small_synthetic, 3)
        assert_cluster_backends_identical(
            pattern, small_synthetic, assignment=assignment, num_sites=3
        )

    @needs_processes
    def test_process_cluster_matches_centralized_and_bound(
        self, small_synthetic
    ):
        """The process backend returns the centralized Θ and respects the
        Section 4.3 shipment bound, like the in-process backend."""
        pattern = sample_pattern_from_data(small_synthetic, 4, seed=3)
        assert pattern is not None
        central = canonical_result(
            match(pattern, small_synthetic, engine="python")
        )
        assignment = hash_partition(small_synthetic, 4)
        bound = crossing_ball_bound(
            small_synthetic, assignment, pattern.diameter
        )
        for engine in ENGINES:
            with Cluster(
                small_synthetic, assignment, 4, engine=engine,
                backend="processes",
            ) as cluster:
                report = cluster.run(pattern)
                assert canonical_result(report.result) == central
                assert report.data_shipment_units <= bound

    def test_multi_query_warm_clusters_stay_in_lockstep(
        self, small_synthetic
    ):
        """Cumulative accounting across several queries on one long-lived
        cluster per backend: per-query remote resets must re-charge
        fetches identically everywhere, including in worker processes."""
        patterns = [
            sample_pattern_from_data(small_synthetic, size, seed=seed)
            for size, seed in ((3, 1), (4, 2), (3, 1))
        ]
        assignment = bfs_partition(small_synthetic, 3)
        clusters = {
            backend: Cluster(small_synthetic, assignment, 3, backend=backend)
            for backend in available_backends()
        }
        try:
            for pattern in patterns:
                assert pattern is not None
                observations = {
                    backend: cluster_observation(cluster.run(pattern))
                    for backend, cluster in clusters.items()
                }
                reference = observations["inproc"]
                for backend, observed in observations.items():
                    assert observed == reference, (
                        f"backend {backend!r} left lockstep"
                    )
        finally:
            for cluster in clusters.values():
                cluster.close()


# ----------------------------------------------------------------------
# Randomized backend equivalence (hypothesis shrinks over seeds)
# ----------------------------------------------------------------------
class TestRandomizedBackendEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        num_sites=st.integers(min_value=1, max_value=3),
    )
    def test_random_graphs_random_assignments(
        self, seed, pattern_seed, num_sites
    ):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        pattern = sample_pattern_from_data(data, 3, seed=pattern_seed)
        if pattern is None:
            from tests.conftest import random_connected_pattern

            pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        assignment = random_assignment(data, num_sites, seed + pattern_seed)
        assert_cluster_backends_identical(
            pattern, data, assignment=assignment, num_sites=num_sites
        )


# ----------------------------------------------------------------------
# Mutation pipeline across backends
# ----------------------------------------------------------------------
class TestBackendUpdateEquivalence:
    def test_update_stream_keeps_backends_in_lockstep(self, small_synthetic):
        """Mirror one master delta stream into a live cluster per backend
        and compare full observations at every checkpoint (plus a
        freshly built cluster's result as the ground truth)."""
        graph = small_synthetic
        pattern = sample_pattern_from_data(graph, 4, seed=2)
        assert pattern is not None
        assignment = bfs_partition(graph, 3)
        clusters = {
            backend: Cluster(graph.copy(), dict(assignment), 3,
                             backend=backend)
            for backend in available_backends()
        }
        recorder = DeltaRecorder(graph)
        rng = random.Random(42)
        fresh_node = 30_000
        try:
            applied = 0
            for _ in range(24):
                op = random_mutation(rng, graph, fresh_node)
                if op is None:
                    continue
                if op[0] == "add_node":
                    fresh_node += 1
                applied += 1
                for delta in recorder.drain():
                    for cluster in clusters.values():
                        cluster.apply_update(delta)
                if applied % 6:
                    continue
                observations = {
                    backend: cluster_observation(cluster.run(pattern))
                    for backend, cluster in clusters.items()
                }
                reference = observations["inproc"]
                for backend, observed in observations.items():
                    assert observed == reference, (
                        f"backend {backend!r} diverged after updates"
                    )
                fresh = Cluster(
                    graph.copy(),
                    dict(clusters["inproc"].assignment),
                    3,
                )
                fresh_report = fresh.run(pattern)
                assert (
                    canonical_result(fresh_report.result)
                    == reference["result"]
                ), "warm clusters diverged from a freshly built cluster"
            assert applied >= 12, "mutation stream fizzled; weak test"
        finally:
            for cluster in clusters.values():
                cluster.close()


# ----------------------------------------------------------------------
# Process-runtime specifics
# ----------------------------------------------------------------------
@needs_processes
class TestProcessRuntime:
    def test_worker_processes_stay_warm(self, small_synthetic):
        """Two queries, an insertion stream, then a third query, all on
        the same worker processes: each observes as a fresh in-process
        cluster over the same graph does, and no site compiles an index
        (``index_builds`` reads 0 throughout)."""
        graph = small_synthetic
        pattern = sample_pattern_from_data(graph, 4, seed=2)
        assert pattern is not None
        warm_up = Pattern.build({"warm": "\x00none"}, [])
        with Cluster(
            graph.copy(), bfs_partition(graph, 3), 3, backend="processes",
        ) as cluster:

            def assert_fresh(report, query):
                with Cluster(
                    graph.copy(), dict(cluster.assignment), 3
                ) as fresh:
                    expected = distributed_observation(fresh.run(query))
                assert distributed_observation(report) == expected
                stats = cluster.worker_stats()
                assert all(s["index_builds"] == 0 for s in stats.values())
                return stats

            first = cluster.run(warm_up)
            assert not first.result
            assert_fresh(first, warm_up)
            assert_fresh(cluster.run(pattern), pattern)
            # Insertion stream: new nodes and edges, routed like a
            # production master->cluster mirror would route them, with
            # labels the pattern asks for.
            labels = sorted({pattern.label(u) for u in pattern.nodes()})
            nodes = list(graph.nodes())
            for i in range(8):
                node, label = f"ins{i}", labels[i % len(labels)]
                graph.add_node(node, label)
                cluster.add_node(node, label)
                graph.add_edge(node, nodes[i % len(nodes)])
                cluster.add_edge(node, nodes[i % len(nodes)])
            after = assert_fresh(cluster.run(pattern), pattern)
        assert all(s["queries_served"] == 3 for s in after.values())

    def test_closed_transport_fails_loud(self, small_synthetic):
        pattern = sample_pattern_from_data(small_synthetic, 3, seed=5)
        assert pattern is not None
        assignment = bfs_partition(small_synthetic, 2)
        cluster = Cluster(small_synthetic, assignment, 2, backend="processes")
        cluster.close()
        cluster.close()  # idempotent
        with pytest.raises(DistributedError):
            cluster.run(pattern)

    def test_killed_worker_fails_typed_and_closes(self):
        """A worker killed between two queries: the next run's broadcast
        hits the broken pipe and raises DistributedError naming the site
        and the frame, closing the transport, so the run after it fails
        at once through the closed guard.  Both fail within a bound."""
        data, pattern = data_g1(), pattern_q1()
        cluster = Cluster(data, bfs_partition(data, 2), 2, backend="processes")
        try:
            assert cluster.run(pattern).result
            process = cluster._transport._procs[1]
            process.kill()
            process.join(timeout=10)
            started = time.perf_counter()
            with pytest.raises(DistributedError, match="site 1 .*'query'"):
                cluster.run(pattern)
            with pytest.raises(DistributedError, match="closed"):
                cluster.run(pattern)
            assert time.perf_counter() - started < 10
        finally:
            cluster.close()

    def test_distributed_match_does_not_leak_processes(self, small_synthetic):
        pattern = sample_pattern_from_data(small_synthetic, 3, seed=5)
        assert pattern is not None
        assignment = bfs_partition(small_synthetic, 2)
        report = distributed_match(
            pattern, small_synthetic, assignment, 2, backend="processes"
        )
        direct = distributed_match(pattern, small_synthetic, assignment, 2)
        assert canonical_result(report.result) == canonical_result(
            direct.result
        )

    @pytest.mark.parametrize("backend", ["sparks", "threads"])
    def test_invalid_backend_rejected(self, backend, small_synthetic):
        assignment = bfs_partition(small_synthetic, 2)
        with pytest.raises(DistributedError, match="unknown backend"):
            Cluster(small_synthetic, assignment, 2, backend=backend)


# ----------------------------------------------------------------------
# CLI: the --backend flag
# ----------------------------------------------------------------------
class TestCliBackend:
    @pytest.fixture
    def files(self, tmp_path):
        import json

        from repro.io.jsonio import pattern_to_dict, write_graph_json

        data = random_digraph(9, max_nodes=30, edge_prob=0.25)
        pattern = sample_pattern_from_data(data, 3, seed=4)
        assert pattern is not None
        graph_path = tmp_path / "g.json"
        write_graph_json(data, graph_path)
        pattern_path = tmp_path / "q.json"
        pattern_path.write_text(json.dumps(pattern_to_dict(pattern)))
        return str(graph_path), str(pattern_path)

    @pytest.mark.parametrize("backend", ["inproc", "processes"])
    def test_distributed_backend_flag(self, backend, files, capsys):
        if backend == "processes" and not process_backend_available():
            pytest.skip("no process support")
        from repro.cli import main

        graph_path, pattern_path = files
        code = main([
            "distributed", "--data", graph_path, "--pattern", pattern_path,
            "--sites", "2", "--backend", backend,
        ])
        out = capsys.readouterr().out
        assert code in (0, 1)  # 1 = legitimately empty result
        assert f"backend={backend}" in out
        assert "data shipment" in out

    @pytest.mark.parametrize(
        "flags",
        [["--backend", "threads"], ["--parallel"], ["--engine", "kernel"]],
        ids=["threads", "parallel", "engine"],
    )
    def test_removed_flags_exit_2(self, flags, files):
        from repro.cli import main

        graph_path, pattern_path = files
        with pytest.raises(SystemExit) as excinfo:
            main([
                "distributed", "--data", graph_path, "--pattern",
                pattern_path, "--sites", "2", *flags,
            ])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Service integration: distributed queries through MatchService
# ----------------------------------------------------------------------
class TestServiceDistributed:
    @pytest.mark.parametrize("backend", ["inproc", "processes"])
    def test_service_run_observes_identically_to_direct(
        self, backend, small_synthetic
    ):
        if backend == "processes" and not process_backend_available():
            pytest.skip("no process support")
        pattern = sample_pattern_from_data(small_synthetic, 4, seed=2)
        assert pattern is not None
        assignment = bfs_partition(small_synthetic, 3)
        with Cluster(
            small_synthetic, assignment, 3, backend=backend
        ) as served_cluster, Cluster(
            small_synthetic, assignment, 3
        ) as direct_cluster, MatchService(max_workers=2) as service:
            served = cluster_observation(
                service.query_distributed(pattern, served_cluster)
            )
            direct = cluster_observation(direct_cluster.run(pattern))
        assert served == direct

    @needs_processes
    def test_concurrent_distributed_submits_coalesce_per_cluster(
        self, small_synthetic
    ):
        """Several in-flight distributed futures against one cluster:
        the cluster's result store single-flights them into one
        protocol run, and every report observes identically to a
        serial run."""
        pattern = sample_pattern_from_data(small_synthetic, 4, seed=2)
        assert pattern is not None
        assignment = bfs_partition(small_synthetic, 3)
        rounds = 4
        with Cluster(
            small_synthetic, assignment, 3, backend="processes"
        ) as cluster, MatchService(max_workers=rounds) as service:
            futures = [
                service.submit_distributed(pattern, cluster)
                for _ in range(rounds)
            ]
            reports = [future.result() for future in futures]
            assert service.stats.computed == 1
            assert service.stats.computed + service.stats.replayed == rounds
        results = {canonical_result(r.result) for r in reports}
        assert len(results) == 1
        expected = canonical_result(match(pattern, small_synthetic))
        assert results.pop() == expected
        with Cluster(small_synthetic, assignment, 3) as serial_cluster:
            serial_report = serial_cluster.run(pattern)
        assert (
            cluster.bus.units_by_kind()
            == serial_report.bus.units_by_kind()
        ), "coalesced submits must cost exactly one protocol run"
        for report in reports:
            assert bus_observation(report.bus) == bus_observation(
                serial_report.bus
            ), "every report must account like one serial run"
