"""Unit + property tests for strong simulation (algorithm Match)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ball import extract_ball
from repro.core.digraph import DiGraph
from repro.core.dualsim import dual_simulation
from repro.core.pattern import Pattern
from repro.core.strong import (
    candidate_centers,
    extract_max_perfect_subgraph,
    match,
    matches_via_strong_simulation,
)
from repro.core.traversal import is_connected_undirected, undirected_distances
from tests.conftest import graph_and_pattern, graph_with_sampled_pattern
from tests.engines import ENGINES


def mutual_pair():
    pattern = Pattern.build({"p": "P", "q": "P"}, [("p", "q"), ("q", "p")])
    data = DiGraph.from_parts(
        {"x": "P", "y": "P", "z": "P"},
        [("x", "y"), ("y", "x"), ("y", "z")],
    )
    return pattern, data


class TestExtractMaxPG:
    def test_nil_when_center_unmatched(self):
        pattern, data = mutual_pair()
        ball = extract_ball(data, "z", 1)
        relation = dual_simulation(pattern, ball.graph)
        assert extract_max_perfect_subgraph(pattern, ball, relation) is None

    def test_component_of_center(self):
        pattern, data = mutual_pair()
        ball = extract_ball(data, "x", 1)
        relation = dual_simulation(pattern, ball.graph)
        subgraph = extract_max_perfect_subgraph(pattern, ball, relation)
        assert subgraph is not None
        assert set(subgraph.graph.nodes()) == {"x", "y"}
        assert subgraph.center == "x"


class TestMatch:
    def test_basic_match(self):
        pattern, data = mutual_pair()
        result = match(pattern, data)
        assert len(result) == 1
        assert result.matched_data_nodes() == {"x", "y"}
        assert matches_via_strong_simulation(pattern, data)

    def test_no_match(self):
        pattern = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
        data = DiGraph.from_parts({"a1": "A"}, [])
        result = match(pattern, data)
        assert len(result) == 0
        assert not result
        assert not matches_via_strong_simulation(pattern, data)

    def test_deduplication_across_centers(self):
        # Both x and y discover the same {x, y} subgraph.
        pattern, data = mutual_pair()
        result = match(pattern, data, centers=["x", "y"])
        assert len(result) == 1

    def test_explicit_radius(self):
        pattern, data = mutual_pair()
        # Radius 0 balls contain single nodes: the 2-cycle can't fit.
        result = match(pattern, data, radius=0)
        assert len(result) == 0

    def test_centers_restriction_sound(self):
        pattern, data = mutual_pair()
        full = {sg.signature() for sg in match(pattern, data)}
        restricted = {
            sg.signature()
            for sg in match(pattern, data, centers=candidate_centers(pattern, data))
        }
        assert full == restricted

    def test_candidate_centers_only_pattern_labels(self):
        pattern = Pattern.build({"a": "A"}, [])
        data = DiGraph.from_parts({"x": "A", "y": "B"}, [])
        assert candidate_centers(pattern, data) == {"x"}


class TestStrongSimulationProperties:
    @given(graph_with_sampled_pattern())
    @settings(max_examples=40, deadline=None)
    def test_perfect_subgraphs_connected(self, pair):
        """Every perfect subgraph is connected (it is one component)."""
        data, pattern = pair
        for subgraph in match(pattern, data):
            assert is_connected_undirected(subgraph.graph)

    @given(graph_with_sampled_pattern())
    @settings(max_examples=40, deadline=None)
    def test_diameter_bound(self, pair):
        """Proposition 3: perfect subgraph diameter <= 2 * d_Q.

        The bound is over data-graph distance (the subgraph lives inside
        a ball of radius d_Q around its center): every pair of its nodes
        is within 2 * d_Q undirected hops in G, and every node is within
        d_Q of the discovery center.
        """
        data, pattern = pair
        for subgraph in match(pattern, data):
            center_distances = undirected_distances(data, subgraph.center)
            for node in subgraph.graph.nodes():
                assert center_distances[node] <= pattern.diameter
            nodes = list(subgraph.graph.nodes())
            for node in nodes:
                distances = undirected_distances(data, node)
                for other in nodes:
                    assert distances[other] <= 2 * pattern.diameter

    @given(graph_with_sampled_pattern())
    @settings(max_examples=40, deadline=None)
    def test_bounded_match_count(self, pair):
        """Proposition 4: |Θ| <= |V|."""
        data, pattern = pair
        assert len(match(pattern, data)) <= data.num_nodes

    @given(graph_with_sampled_pattern())
    @settings(max_examples=40, deadline=None)
    def test_relations_are_dual_simulations_on_their_subgraph(self, pair):
        """Condition (1) of the definition: Q ≺_D Gs on each perfect
        subgraph, with the relation total on the pattern side."""
        from repro.core.dualsim import is_dual_simulation_relation

        data, pattern = pair
        for subgraph in match(pattern, data):
            assert subgraph.relation.is_total()
            assert is_dual_simulation_relation(
                pattern, subgraph.graph, subgraph.relation
            )

    @given(graph_with_sampled_pattern())
    @settings(max_examples=40, deadline=None)
    def test_matched_nodes_within_dual_relation(self, pair):
        """Strong-simulation matches never exceed whole-graph dual
        simulation (projection property used by Match+)."""
        data, pattern = pair
        global_dual = dual_simulation(pattern, data)
        result = match(pattern, data)
        assert result.matched_data_nodes() <= global_dual.data_nodes() or (
            global_dual.is_empty() and not result
        )


class TestDecision:
    """``Q ≺_LD G`` is the paper's "Θ is not empty" on every engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    @given(pair=st.one_of(graph_and_pattern(), graph_with_sampled_pattern()))
    @settings(max_examples=40, deadline=None)
    def test_decision_is_theta_not_empty(self, engine, pair):
        # graph_and_pattern mostly draws patterns that match nothing;
        # graph_with_sampled_pattern draws ones that match.
        data, pattern = pair
        expected = len(match(pattern, data, engine="python")) > 0
        assert (
            matches_via_strong_simulation(pattern, data, engine=engine)
            is expected
        )
