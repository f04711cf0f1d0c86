"""Distributed query caching: version vectors, shared stores, replays.

The contract under test: a :class:`~repro.distributed.coordinator.Cluster`
stamps every routed update into a per-site **version vector**, the
:class:`~repro.service.cache.ResultCache` gates distributed entries on
the exact vector, and a warm hit replays the *full*
``DistributedRunReport`` observation — result set, per-site partial
counts, and the complete per-query bus log — byte-identically to a
fresh ``cluster.run``, across engines, backends, isomorphic pattern
twins and interleaved ``apply_update`` streams.  Retention is stricter
than for centralized entries (edge deltas always drop; only
label-disjoint node deltas survive), because a distributed entry
replays traffic, not just results.  Every cluster carries one
coordinator-hosted result store, so several ``MatchService`` front-ends
over one cluster share warm entries and coalesce concurrent misses on
one single-flight leader.
"""

from __future__ import annotations

import random
import threading

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.digraph import DiGraph
from repro.core.pattern import Pattern
from repro.datasets import generate_graph
from repro.datasets.paper_figures import data_g1, pattern_q1
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import (
    Cluster,
    bfs_partition,
    hash_partition,
    process_backend_available,
)
from repro.service import MatchService
from repro.service.cache import ResultCache

from tests.conftest import (
    graph_seeds,
    pattern_seeds,
    random_connected_pattern,
    random_digraph,
)
from tests.engines import (
    available_backends,
    assert_distributed_service_identical,
    distributed_observation,
    permuted_pattern,
)

needs_processes = pytest.mark.skipif(
    not process_backend_available(),
    reason="platform has no fork/forkserver/spawn support",
)


def two_site_cluster(**kwargs) -> Cluster:
    """A tiny two-site cluster with a hand-pinned assignment.

    Site 0 owns ``a`` (label A) and ``b`` (B); site 1 owns ``c`` (A) and
    ``d`` (B); the edge ``b -> c`` crosses the cut.  Two spare nodes
    ``s0``/``s1`` (labels Z/W, one per site, no edges) exist so tests
    can mutate label-disjoint regions.
    """
    graph = DiGraph()
    for node, label in [
        ("a", "A"), ("b", "B"), ("c", "A"), ("d", "B"),
        ("s0", "Z"), ("s1", "W"),
    ]:
        graph.add_node(node, label)
    graph.add_edge("a", "b")
    graph.add_edge("c", "d")
    graph.add_edge("b", "c")
    assignment = {"a": 0, "b": 0, "s0": 0, "c": 1, "d": 1, "s1": 1}
    return Cluster(graph, assignment, 2, **kwargs)


def pattern_ab() -> Pattern:
    """The pattern ``A -> B`` (labels A and B only)."""
    graph = DiGraph()
    graph.add_node("x", "A")
    graph.add_node("y", "B")
    graph.add_edge("x", "y")
    return Pattern(graph)


class TestVersionVector:
    def test_fresh_cluster_is_all_zeros(self):
        with two_site_cluster() as cluster:
            assert cluster.version_vector() == (0, 0)

    def test_intra_site_edge_bumps_owner_only(self):
        with two_site_cluster() as cluster:
            cluster.remove_edge("a", "b")
            assert cluster.version_vector() == (1, 0)
            cluster.add_edge("a", "b")
            assert cluster.version_vector() == (2, 0)

    def test_cross_site_edge_bumps_both_endpoints(self):
        with two_site_cluster() as cluster:
            cluster.add_edge("a", "d")
            assert cluster.version_vector() == (1, 1)
            cluster.remove_edge("b", "c")
            assert cluster.version_vector() == (2, 2)

    def test_node_lifecycle_bumps_owner(self):
        with two_site_cluster() as cluster:
            cluster.relabel_node("d", "X")
            assert cluster.version_vector() == (0, 1)
            cluster.add_node("e", "A", site=1)
            assert cluster.version_vector() == (0, 2)
            cluster.remove_node("s0")  # isolated: one delta, site 0
            assert cluster.version_vector() == (1, 2)

    def test_remove_node_counts_incident_edge_deltas(self):
        with two_site_cluster() as cluster:
            # b has edges a->b (intra site 0) and b->c (crossing): the
            # removal stream is two edge deltas plus the node delta.
            cluster.remove_node("b")
            assert cluster.version_vector() == (3, 1)

    def test_run_report_stamps_current_vector(self):
        with two_site_cluster() as cluster:
            report = cluster.run(pattern_ab())
            assert report.version_vector == (0, 0)
            cluster.relabel_node("s1", "V")
            report = cluster.run(pattern_ab())
            assert report.version_vector == (0, 1)
            assert report.version_vector == cluster.version_vector()

    def test_query_log_is_exactly_this_querys_messages(self):
        with two_site_cluster() as cluster:
            report = cluster.run(pattern_ab())
            logged = [
                (m.sender, m.receiver, m.kind, m.units)
                for m in cluster.bus.messages
            ]
            assert list(report.query_log) == logged  # fresh cluster
            # A second run's log is only the new slice, not cumulative.
            second = cluster.run(pattern_ab())
            assert list(second.query_log) == logged == list(report.query_log)


class TestServiceReplay:
    """Warm hits through ``MatchService.query_distributed`` (inproc)."""

    def test_warm_hit_replays_byte_identically(self):
        with two_site_cluster() as cluster, MatchService() as service:
            direct = distributed_observation(cluster.run(pattern_ab()))
            first = service.query_distributed(pattern_ab(), cluster)
            second = service.query_distributed(pattern_ab(), cluster)
            assert service.stats.computed == 1
            assert service.stats.replayed == 1
            assert distributed_observation(first) == direct
            assert distributed_observation(second) == direct
            # The replay carries a *fresh* bus holding exactly the one
            # query's messages — the cluster's live bus is not advanced.
            assert second.bus is not cluster.bus
            assert len(second.bus.messages) == len(second.query_log)

    def test_isomorphic_twin_replays(self):
        pattern = pattern_q1()
        twin = permuted_pattern(pattern, seed=7)
        data = data_g1()
        assignment = hash_partition(data, 2)
        with Cluster(data, assignment, 2) as cluster, MatchService() as service:
            direct = distributed_observation(cluster.run(twin))
            service.query_distributed(pattern, cluster)
            replayed = service.query_distributed(twin, cluster)
            assert service.stats.computed == 1
            assert service.stats.replayed == 1
            assert distributed_observation(replayed) == direct

    def test_entry_is_engine_independent(self):
        with two_site_cluster() as cluster, MatchService() as service:
            first = service.query_distributed(
                pattern_ab(), cluster, engine="python"
            )
            second = service.query_distributed(
                pattern_ab(), cluster, engine="kernel"
            )
            assert service.stats.computed == 1
            assert service.stats.replayed == 1
            assert distributed_observation(first) == distributed_observation(
                second
            )

    def test_radius_is_part_of_the_key(self):
        with two_site_cluster() as cluster, MatchService() as service:
            service.query_distributed(pattern_ab(), cluster, radius=1)
            service.query_distributed(pattern_ab(), cluster, radius=2)
            assert service.stats.computed == 2
            service.query_distributed(pattern_ab(), cluster, radius=1)
            assert service.stats.replayed == 1

    def test_label_touching_mutation_misses_and_recomputes(self):
        with two_site_cluster() as cluster, MatchService() as service:
            service.query_distributed(pattern_ab(), cluster)
            cluster.relabel_node("c", "Q")  # A is a pattern label
            fresh = distributed_observation(cluster.run(pattern_ab()))
            again = service.query_distributed(pattern_ab(), cluster)
            assert service.stats.computed == 2
            assert service.stats.replayed == 0
            assert distributed_observation(again) == fresh

    def test_edge_delta_invalidates_even_when_label_disjoint(self):
        # s0 -> s1 touches only labels Z/W, far from every candidate:
        # the centralized d_Q rule would retain, but a distributed entry
        # replays fetch traffic, and this new crossing edge changes it.
        with two_site_cluster() as cluster, MatchService() as service:
            service.query_distributed(pattern_ab(), cluster)
            cluster.add_edge("s0", "s1")
            fresh = distributed_observation(cluster.run(pattern_ab()))
            again = service.query_distributed(pattern_ab(), cluster)
            assert service.stats.computed == 2
            assert cluster.result_store.stats.invalidations == 1
            assert distributed_observation(again) == fresh

    def test_label_disjoint_node_deltas_retain(self):
        with two_site_cluster() as cluster, MatchService() as service:
            service.query_distributed(pattern_ab(), cluster)
            cluster.add_node("zz", "Z")
            cluster.relabel_node("zz", "W")
            cluster.remove_node("s1")  # isolated, label W
            assert cluster.version_vector() != (0, 0)
            fresh = distributed_observation(cluster.run(pattern_ab()))
            again = service.query_distributed(pattern_ab(), cluster)
            assert service.stats.computed == 1
            assert service.stats.replayed == 1
            assert cluster.result_store.stats.retained >= 3
            assert cluster.result_store.stats.invalidations == 0
            assert distributed_observation(again) == fresh

    def test_store_refuses_stale_computed_vector(self):
        cache = ResultCache()
        with two_site_cluster() as cluster:
            stale = cluster.version_vector()
            cluster.relabel_node("d", "X")
            cache.store_distributed(
                cluster, ("key",), 1, frozenset({"A"}),
                payload=("payload",), computed_vector=stale,
            )
            assert len(cache) == 0
            assert cache.lookup_distributed(cluster, ("key",), 1) is None
            current = cluster.version_vector()
            cache.store_distributed(
                cluster, ("key",), 1, frozenset({"A"}),
                payload=("payload",), computed_vector=current,
            )
            assert cache.lookup_distributed(
                cluster, ("key",), 1
            ) == ("payload",)


@pytest.mark.parametrize("backend", available_backends())
def test_data_shipment_units_are_per_query(backend):
    """Every report counts only its own query's fetch units: a warm
    cluster's cumulative bus must not leak into the second run or the
    service's computed run, and a replay must match both."""
    data = generate_graph(300, alpha=1.15, num_labels=8, seed=37)
    pattern = sample_pattern_from_data(data, 5, seed=41)
    assert pattern is not None
    with Cluster(data, bfs_partition(data, 3), 3, backend=backend) as cluster:
        reports = [cluster.run(pattern), cluster.run(pattern)]
        with MatchService() as service:
            reports.append(service.query_distributed(pattern, cluster))
            reports.append(service.query_distributed(pattern, cluster))
            assert (service.stats.computed, service.stats.replayed) == (1, 1)
    fetch = reports[0].units_by_kind()["fetch"]
    assert fetch > 0
    assert [report.data_shipment_units for report in reports] == [fetch] * 4


@pytest.mark.parametrize("backend", available_backends())
def test_shipment_after_a_delta_matches_a_fresh_cluster(backend):
    """After an edge delta, a warm cluster's report accounts exactly
    what a fresh cluster over the mutated graph ships for the query."""
    data = generate_graph(300, alpha=1.15, num_labels=8, seed=37)
    pattern = sample_pattern_from_data(data, 5, seed=41)
    assert pattern is not None
    assignment = bfs_partition(data, 3)
    nodes = sorted(data.nodes())
    source, target = next(
        (u, v) for u in nodes for v in reversed(nodes)
        if assignment[u] != assignment[v] and not data.has_edge(u, v)
    )
    with Cluster(data, assignment, 3, backend=backend) as cluster:
        cluster.run(pattern)
        cluster.add_edge(source, target)
        warm = cluster.run(pattern)
    mutated = data.copy()
    mutated.add_edge(source, target)
    with Cluster(mutated, assignment, 3, backend=backend) as fresh:
        cold = fresh.run(pattern)
    assert warm.units_by_kind() == cold.units_by_kind()
    assert warm.data_shipment_units == cold.data_shipment_units > 0


@pytest.mark.parametrize("backend", available_backends())
class TestSharedStore:
    def test_two_services_share_one_cluster_store(self, backend):
        with two_site_cluster(backend=backend) as cluster:
            store = cluster.result_store
            with MatchService() as one, MatchService() as two:
                first = one.query_distributed(pattern_ab(), cluster)
                second = two.query_distributed(pattern_ab(), cluster)
                assert one.stats.computed == 1
                assert two.stats.computed == 0
                assert two.stats.replayed == 1
                assert one.cache.stats.stores == 0  # bypassed entirely
                assert store.stats.stores == 1
                assert distributed_observation(
                    first
                ) == distributed_observation(second)

    def test_cached_false_bypasses_the_store(self, backend):
        with two_site_cluster(
            backend=backend
        ) as cluster, MatchService() as service:
            store = cluster.result_store
            service.query_distributed(pattern_ab(), cluster, cached=False)
            service.query_distributed(pattern_ab(), cluster, cached=False)
            assert service.stats.computed == 2
            assert store.stats.stores == 0
            assert len(store) == 0

    def test_cross_service_single_flight(self, backend):
        """Two services, one store: a miss storm elects one leader."""
        with two_site_cluster(backend=backend) as cluster:
            started = threading.Event()
            release = threading.Event()
            original_run = cluster.run

            def slow_run(*args, **kwargs):
                started.set()
                assert release.wait(timeout=30)
                return original_run(*args, **kwargs)

            cluster.run = slow_run
            try:
                with MatchService() as one, MatchService() as two:
                    leader = one.submit_distributed(pattern_ab(), cluster)
                    assert started.wait(timeout=30)
                    follower = two.submit_distributed(pattern_ab(), cluster)
                    release.set()
                    first = leader.result(timeout=60)
                    second = follower.result(timeout=60)
                    assert one.stats.computed == 1
                    assert two.stats.computed == 0
                    assert two.stats.coalesced == 1
                    assert two.stats.replayed == 1
                    assert distributed_observation(
                        first
                    ) == distributed_observation(second)
            finally:
                del cluster.run  # restore the bound method


class TestFailedSubmitAccounting:
    """A raising distributed run must not count as computed."""

    def test_bad_engine_counts_query_not_computed(self):
        with two_site_cluster() as cluster, MatchService() as service:
            future = service.submit_distributed(
                pattern_ab(), cluster, engine="no-such-engine"
            )
            with pytest.raises(ValueError):
                future.result(timeout=60)
            assert service.stats.queries == 1
            assert service.stats.computed == 0
            assert service.stats.replayed == 0
            # The flight was released: the next submit computes fine.
            report = service.query_distributed(pattern_ab(), cluster)
            assert service.stats.computed == 1
            assert distributed_observation(report) == distributed_observation(
                cluster.run(pattern_ab())
            )

    def test_bad_engine_uncached_path(self):
        with two_site_cluster() as cluster, MatchService() as service:
            future = service.submit_distributed(
                pattern_ab(), cluster, engine="no-such-engine", cached=False
            )
            with pytest.raises(ValueError):
                future.result(timeout=60)
            assert service.stats.queries == 1
            assert service.stats.computed == 0


class TestDifferential:
    """The full harness: cached vs uncached vs direct, per checkpoint."""

    def test_paper_figures_every_backend(self):
        data = data_g1()
        assert_distributed_service_identical(
            pattern_q1(), data, hash_partition(data, 2), 2,
            backends=available_backends(),
        )

    def test_update_stream_inproc(self):
        data = data_g1()
        assert_distributed_service_identical(
            pattern_q1(), data, hash_partition(data, 2), 2,
            num_ops=8, op_seed=3,
        )

    def test_update_stream_synthetic(self, small_synthetic):
        pattern = sample_pattern_from_data(small_synthetic, 3, seed=5)
        assert pattern is not None
        assert_distributed_service_identical(
            pattern, small_synthetic, bfs_partition(small_synthetic, 3), 3,
            num_ops=5, op_seed=1,
        )

    @needs_processes
    def test_update_stream_processes(self):
        data = data_g1()
        assert_distributed_service_identical(
            pattern_q1(), data, hash_partition(data, 2), 2,
            engines=("python", "kernel"), backends=("processes",),
            num_ops=3, op_seed=2,
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph_seed=graph_seeds, pattern_seed=pattern_seeds)
    def test_randomized_update_streams(self, graph_seed, pattern_seed):
        graph = random_digraph(graph_seed)
        pattern = random_connected_pattern(pattern_seed)
        rng = random.Random(graph_seed)
        assignment = {node: rng.randrange(2) for node in graph.nodes()}
        assert_distributed_service_identical(
            pattern, graph, assignment, 2, num_ops=3,
            op_seed=pattern_seed,
        )
