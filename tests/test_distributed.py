"""Integration tests for the distributed runtime (Section 4.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strong import match
from repro.distributed import (
    Cluster,
    bfs_partition,
    crossing_ball_bound,
    cut_edges,
    distributed_match,
    fragment_graph,
    greedy_edge_cut_partition,
    hash_partition,
)
from repro.distributed.network import MessageBus
from repro.exceptions import DistributedError
from repro.datasets.paper_figures import data_g1, pattern_q1
from repro.datasets.synthetic import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from tests.conftest import graph_seeds, random_digraph, random_connected_pattern


class TestPartitioners:
    def test_hash_partition_covers_all_nodes(self):
        g = data_g1()
        part = hash_partition(g, 4)
        assert set(part) == set(g.nodes())
        assert all(0 <= site < 4 for site in part.values())

    def test_hash_partition_deterministic(self):
        g = data_g1()
        assert hash_partition(g, 4) == hash_partition(g, 4)

    def test_bfs_partition_balanced(self):
        g = generate_graph(100, alpha=1.1, num_labels=5, seed=2)
        part = bfs_partition(g, 4)
        from collections import Counter

        sizes = Counter(part.values())
        assert max(sizes.values()) - min(sizes.values()) <= 26

    def test_greedy_cut_no_worse_than_hash_usually(self):
        g = generate_graph(200, alpha=1.15, num_labels=5, seed=4)
        hash_cut = cut_edges(g, hash_partition(g, 4))
        greedy_cut = cut_edges(g, greedy_edge_cut_partition(g, 4))
        assert greedy_cut <= hash_cut

    def test_invalid_site_count(self):
        with pytest.raises(DistributedError):
            hash_partition(data_g1(), 0)


class TestFragments:
    def test_fragments_partition_nodes(self):
        g = data_g1()
        part = hash_partition(g, 3)
        fragments = fragment_graph(g, part, 3)
        all_nodes = set()
        for fragment in fragments:
            assert all_nodes.isdisjoint(fragment.labels)
            all_nodes |= set(fragment.labels)
        assert all_nodes == set(g.nodes())

    def test_remote_owner_table(self):
        g = data_g1()
        part = hash_partition(g, 3)
        fragments = fragment_graph(g, part, 3)
        for fragment in fragments:
            for remote, owner in fragment.remote_owner.items():
                assert part[remote] == owner
                assert not fragment.owns(remote)

    def test_border_nodes_have_remote_neighbors(self):
        g = data_g1()
        part = hash_partition(g, 3)
        for fragment in fragment_graph(g, part, 3):
            for node in fragment.border_nodes():
                neighbors = fragment.succ[node] | fragment.pred[node]
                assert any(not fragment.owns(n) for n in neighbors)

    def test_missing_assignment_rejected(self):
        g = data_g1()
        part = hash_partition(g, 2)
        del part["Bio4"]
        with pytest.raises(DistributedError):
            fragment_graph(g, part, 2)


class TestProtocolEquivalence:
    @pytest.mark.parametrize("num_sites", [1, 2, 3, 5])
    def test_fig1_all_site_counts(self, num_sites):
        pattern, data = pattern_q1(), data_g1(4)
        central = {sg.signature() for sg in match(pattern, data)}
        part = hash_partition(data, num_sites)
        report = distributed_match(pattern, data, part, num_sites)
        distributed = {sg.signature() for sg in report.result}
        assert central == distributed

    @pytest.mark.parametrize(
        "partitioner", [hash_partition, bfs_partition, greedy_edge_cut_partition]
    )
    def test_partitioner_independence(self, partitioner):
        """Section 4.3: 'applicable to any G regardless of how G is
        partitioned and distributed.'"""
        data = generate_graph(80, alpha=1.15, num_labels=5, seed=9)
        pattern = sample_pattern_from_data(data, 4, seed=2)
        assert pattern is not None
        central = {sg.signature() for sg in match(pattern, data)}
        part = partitioner(data, 3)
        report = distributed_match(pattern, data, part, 3)
        assert central == {sg.signature() for sg in report.result}

    @given(graph_seeds, st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_random_graphs_equivalence(self, seed, num_sites):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        pattern = random_connected_pattern(seed + 1, max_nodes=3)
        central = {sg.signature() for sg in match(pattern, data)}
        part = hash_partition(data, num_sites)
        report = distributed_match(pattern, data, part, num_sites)
        assert central == {sg.signature() for sg in report.result}


class TestTrafficAccounting:
    def test_single_site_ships_no_data(self):
        pattern, data = pattern_q1(), data_g1()
        report = distributed_match(pattern, data, hash_partition(data, 1), 1)
        assert report.data_shipment_units == 0

    def test_data_shipment_within_bound(self):
        """The measured fetch traffic stays under the Section 4.3 bound
        (total size of boundary-crossing balls)."""
        pattern, data = pattern_q1(), data_g1(5)
        for num_sites in (2, 3, 4):
            part = hash_partition(data, num_sites)
            report = distributed_match(pattern, data, part, num_sites)
            bound = crossing_ball_bound(data, part, pattern.diameter)
            assert report.data_shipment_units <= bound

    def test_locality_aware_partition_ships_less(self):
        data = generate_graph(150, alpha=1.1, num_labels=6, seed=3)
        pattern = sample_pattern_from_data(data, 4, seed=5)
        assert pattern is not None
        hash_report = distributed_match(
            pattern, data, hash_partition(data, 4), 4
        )
        bfs_report = distributed_match(
            pattern, data, bfs_partition(data, 4), 4
        )
        assert bfs_report.data_shipment_units <= hash_report.data_shipment_units

    def test_message_kinds(self):
        pattern, data = pattern_q1(), data_g1()
        report = distributed_match(pattern, data, hash_partition(data, 3), 3)
        kinds = report.bus.units_by_kind()
        assert "query" in kinds
        assert "result" in kinds

    def test_bus_counters(self):
        bus = MessageBus()
        bus.send(0, 1, "fetch", 5)
        bus.send(1, 0, "fetch", 3)
        bus.send(-1, 0, "query", 2)
        assert bus.total_messages == 3
        assert bus.total_units == 10
        assert bus.data_units() == 8
        assert bus.units_between(0, 1) == 5


class TestCluster:
    def test_per_site_counts(self):
        pattern, data = pattern_q1(), data_g1()
        part = hash_partition(data, 2)
        cluster = Cluster(data, part, 2)
        report = cluster.run(pattern)
        assert set(report.per_site_subgraphs) == {0, 1}
        assert sum(report.per_site_subgraphs.values()) >= len(report.result)

    def test_cluster_reusable_across_queries(self):
        data = data_g1()
        part = hash_partition(data, 2)
        cluster = Cluster(data, part, 2)
        first = cluster.run(pattern_q1())
        second = cluster.run(pattern_q1())
        assert {sg.signature() for sg in first.result} == {
            sg.signature() for sg in second.result
        }
