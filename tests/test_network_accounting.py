"""Accounting invariants of the message bus and the worker fetch path.

The Section 4.3 claim is quantitative, so the accounting machinery in
:mod:`repro.distributed.network` and the fetch/caching discipline in
:mod:`repro.distributed.worker` are load-bearing: a double-charged or
silently-dropped fetch would invalidate every traffic number the
benchmarks report.  These tests pin the previously untested failure
paths: the fetch-once-per-query cache (on both engines), monotonicity of
``data_units()``, kind/link/total consistency, the bound on the dual
filter's ``filter`` traffic, and the ownership errors a mis-routed
``serve_node`` must raise.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.digraph import DiGraph
from repro.datasets.patterns import sample_pattern_from_data
from repro.distributed import (
    Cluster,
    MessageBus,
    bfs_partition,
    crossing_ball_bound,
    hash_partition,
)
from repro.distributed.fragment import fragment_graph
from repro.distributed.network import Message
from repro.distributed.worker import SiteWorker
from repro.exceptions import DistributedError

from tests.engines import ENGINES


def two_site_setup():
    """A 4-node line graph split across two sites, with wired workers."""
    graph = DiGraph.from_parts(
        {"a": "A", "b": "B", "c": "A", "d": "B"},
        [("a", "b"), ("b", "c"), ("c", "d")],
    )
    assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
    bus = MessageBus()
    fragments = fragment_graph(graph, assignment, 2)
    workers = {
        fragment.site_id: SiteWorker(fragment, bus)
        for fragment in fragments
    }
    for worker in workers.values():
        worker.connect(workers)
    return graph, workers, bus


class TestMessageBusInvariants:
    def test_kind_totals_sum_to_total_units(self):
        bus = MessageBus()
        bus.send(-1, 0, "query", 3)
        bus.send(0, 1, "fetch", 7)
        bus.send(1, 0, "fetch", 2)
        bus.send(0, -1, "result", 5)
        assert sum(bus.units_by_kind().values()) == bus.total_units == 17
        assert bus.total_messages == 4

    def test_link_totals_sum_to_total_units(self):
        bus = MessageBus()
        bus.send(0, 1, "fetch", 4)
        bus.send(0, 1, "fetch", 6)
        bus.send(1, 0, "fetch", 1)
        assert bus.units_between(0, 1) == 10
        assert bus.units_between(1, 0) == 1
        assert bus.units_between(1, 2) == 0  # silent zero for unused links
        assert bus.total_units == 11

    def test_data_units_counts_only_fetch_traffic(self):
        bus = MessageBus()
        bus.send(-1, 0, "query", 100)
        bus.send(0, -1, "result", 100)
        assert bus.data_units() == 0
        bus.send(1, 0, "fetch", 9)
        assert bus.data_units() == 9

    def test_data_units_monotone_under_sends(self):
        bus = MessageBus()
        previous = bus.data_units()
        for i, kind in enumerate(("query", "fetch", "result", "fetch")):
            bus.send(0, 1, kind, i + 1)
            current = bus.data_units()
            assert current >= previous
            previous = current
        assert previous == 2 + 4

    def test_zero_unit_messages_count_as_messages(self):
        """An empty partial result still ships a (zero-unit) message —
        message count and unit volume are independent measures."""
        bus = MessageBus()
        bus.send(0, -1, "result", 0)
        assert bus.total_messages == 1
        assert bus.total_units == 0

    def test_messages_record_full_metadata(self):
        bus = MessageBus()
        bus.send(3, 5, "fetch", 11)
        assert bus.messages == [Message(3, 5, "fetch", 11)]


class TestWorkerFetchAccounting:
    def test_fetch_charged_once_per_query(self):
        _, workers, bus = two_site_setup()
        worker = workers[0]
        first = worker._record_for("c")
        units_after_first = bus.data_units()
        assert units_after_first == 1 + len(first[1]) + len(first[2])
        assert worker._record_for("c") == first
        assert bus.data_units() == units_after_first  # cache hit: no charge
        assert bus.total_messages == 1

    def test_clear_cache_recharges_next_query(self):
        _, workers, bus = two_site_setup()
        worker = workers[0]
        worker._record_for("c")
        charged = bus.data_units()
        worker.clear_cache()
        worker._record_for("c")
        assert bus.data_units() == 2 * charged
        assert bus.total_messages == 2

    def test_owned_nodes_are_never_charged(self):
        _, workers, bus = two_site_setup()
        workers[0]._record_for("a")
        workers[0]._record_for("b")
        assert bus.total_messages == 0
        assert bus.data_units() == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fetch_once_per_query_through_matching(self, engine):
        """A full per-site match visits remote nodes through many balls;
        the per-query cache must still ship each record exactly once, on
        either engine."""
        graph, _, _ = two_site_setup()
        assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
        pattern = sample_pattern_from_data(graph, 2, seed=1)
        assert pattern is not None
        cluster = Cluster(graph, assignment, 2, engine=engine)
        report = cluster.run(pattern)
        fetch_messages = [
            m for m in report.bus.messages if m.kind == "fetch"
        ]
        # Each (requesting site, fetched node) pair is charged at most
        # once: with 2 sites and 4 nodes there can be no more fetch
        # messages than remote nodes visible to each site.
        per_receiver = {}
        for message in fetch_messages:
            per_receiver.setdefault(message.receiver, 0)
            per_receiver[message.receiver] += 1
        for site, count in per_receiver.items():
            remote_nodes = 4 - cluster.workers[site].fragment.num_nodes
            assert count <= remote_nodes

    def test_repeated_queries_charge_identically(self):
        """data_units() grows by the same amount every query — the
        per-query reset must neither double-charge nor carry paid-for
        records across queries."""
        graph, _, _ = two_site_setup()
        assignment = {"a": 0, "b": 0, "c": 1, "d": 1}
        pattern = sample_pattern_from_data(graph, 2, seed=1)
        assert pattern is not None
        for engine in ENGINES:
            cluster = Cluster(graph, assignment, 2, engine=engine)
            deltas = []
            previous = 0
            for _ in range(3):
                current = cluster.run(pattern).bus.data_units()
                deltas.append(current - previous)
                previous = current
            assert deltas[0] > 0
            assert deltas[0] == deltas[1] == deltas[2]


def filter_bound(pattern, graph, assignment) -> int:
    """2 x the sum, over (border node, reader site), of the node's label
    candidates: each such triple is announced once and removed at most
    once."""
    candidates = Counter(pattern.label(u) for u in pattern.nodes())
    triples = 0
    for node in graph.nodes():
        readers = {assignment[n] for n in graph.neighbors(node)}
        readers.discard(assignment[node])
        triples += len(readers) * candidates[graph.label(node)]
    return 2 * triples


class TestFilterAccounting:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_filter_units_bounded_by_border_candidates(
        self, engine, small_synthetic
    ):
        checked = 0
        for sites, partition in ((2, bfs_partition), (4, hash_partition)):
            assignment = partition(small_synthetic, sites)
            cluster = Cluster(small_synthetic, assignment, sites,
                              engine=engine)
            for seed in range(4):
                pattern = sample_pattern_from_data(small_synthetic, 4,
                                                   seed=seed)
                if pattern is None:
                    continue
                report = cluster.run(pattern)
                units = report.units_by_kind()
                assert 0 < units["filter"] <= filter_bound(
                    pattern, small_synthetic, assignment
                )
                # The Sec. 4.3 bound on fetch traffic is unchanged.
                assert report.data_shipment_units <= crossing_ball_bound(
                    small_synthetic, assignment, pattern.diameter
                )
                checked += 1
        assert checked


class TestServeNodeOwnership:
    def test_serve_node_rejects_foreign_node(self):
        _, workers, _ = two_site_setup()
        with pytest.raises(DistributedError, match="does not own"):
            workers[0].serve_node("c")

    def test_serve_node_rejects_unknown_node(self):
        _, workers, _ = two_site_setup()
        with pytest.raises(DistributedError, match="does not own"):
            workers[1].serve_node("ghost")

    def test_locate_owner_raises_for_unowned_node(self):
        _, workers, _ = two_site_setup()
        with pytest.raises(DistributedError, match="no site owns"):
            workers[0]._locate_owner("ghost")

    def test_fetching_unknown_node_raises_not_charges(self):
        _, workers, bus = two_site_setup()
        with pytest.raises(DistributedError):
            workers[0]._record_for("ghost")
        assert bus.total_messages == 0
