"""Tests for incremental maintenance under graph updates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import DiGraph
from repro.core.dualsim import dual_simulation
from repro.core.incremental import IncrementalDualSimulation, IncrementalMatcher
from repro.core.pattern import Pattern
from repro.core.strong import match
from repro.exceptions import MatchingError
from tests.conftest import random_connected_pattern, random_digraph
from tests.engines import canonical_result


def fresh_pair():
    pattern = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
    data = DiGraph.from_parts(
        {"a1": "A", "a2": "A", "b1": "B", "b2": "B"},
        [("a1", "b1"), ("a2", "b2")],
    )
    return pattern, data


class TestIncrementalDualSimulation:
    def test_initial_state_matches_batch(self):
        pattern, data = fresh_pair()
        inc = IncrementalDualSimulation(pattern, data)
        assert inc.relation == dual_simulation(pattern, data)

    def test_edge_deletion_cascades(self):
        pattern, data = fresh_pair()
        inc = IncrementalDualSimulation(pattern, data)
        inc.remove_edge("a1", "b1")
        assert inc.relation == dual_simulation(pattern, data)
        assert "a1" not in inc.relation.matches_of("a")
        assert inc.cascade_removals >= 2  # (a, a1) and (b, b1)

    def test_deletion_to_empty(self):
        pattern, data = fresh_pair()
        inc = IncrementalDualSimulation(pattern, data)
        inc.remove_edge("a1", "b1")
        inc.remove_edge("a2", "b2")
        assert inc.relation.is_empty()

    def test_edge_insertion_grows(self):
        pattern = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
        data = DiGraph.from_parts(
            {"a1": "A", "b1": "B", "a2": "A"},
            [("a1", "b1")],
        )
        inc = IncrementalDualSimulation(pattern, data)
        assert "a2" not in inc.relation.matches_of("a")
        inc.add_edge("a2", "b1")
        assert inc.relation == dual_simulation(pattern, data)
        assert "a2" in inc.relation.matches_of("a")

    def test_node_removal(self):
        pattern, data = fresh_pair()
        inc = IncrementalDualSimulation(pattern, data)
        inc.remove_node("b1")
        assert inc.relation == dual_simulation(pattern, data)
        assert "a1" not in inc.relation.matches_of("a")

    def test_isolated_node_insert_noop_for_edge_patterns(self):
        pattern, data = fresh_pair()
        inc = IncrementalDualSimulation(pattern, data)
        before = inc.relation.pair_set()
        inc.add_node("z", "A")
        assert inc.relation.pair_set() == before

    @pytest.mark.parametrize("engine", ["python", "kernel"])
    def test_remove_missing_node_raises(self, engine):
        pattern, data = fresh_pair()
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        before = inc.relation.pair_set()
        version = data.version
        with pytest.raises(MatchingError):
            inc.remove_node("zzz")
        assert data.version == version
        assert inc.relation.pair_set() == before

    def test_isolated_node_insert_single_node_pattern(self):
        pattern = Pattern.build({"a": "A"}, [])
        data = DiGraph.from_parts({"x": "B"}, [])
        inc = IncrementalDualSimulation(pattern, data)
        inc.add_node("y", "A")
        assert inc.relation.matches_of("a") == frozenset({"y"})

    @given(st.integers(min_value=0, max_value=3000))
    @settings(max_examples=30, deadline=None)
    def test_random_update_sequences_track_batch(self, seed):
        """After any mixed sequence of updates the incremental relation
        equals the from-scratch computation."""
        rng = random.Random(seed)
        data = random_digraph(seed, max_nodes=10, edge_prob=0.25)
        pattern = random_connected_pattern(seed + 1, max_nodes=3)
        inc = IncrementalDualSimulation(pattern, data)
        nodes = list(data.nodes())
        for _ in range(6):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v:
                continue
            if data.has_edge(u, v):
                inc.remove_edge(u, v)
            else:
                inc.add_edge(u, v)
            assert inc.relation == dual_simulation(pattern, data)


class TestIncrementalMatcher:
    def test_initial_result_matches_batch(self):
        pattern, data = fresh_pair()
        matcher = IncrementalMatcher(pattern, data.copy())
        batch = {sg.signature() for sg in match(pattern, data)}
        assert {sg.signature() for sg in matcher.result()} == batch

    def test_edge_insertion_updates_result(self):
        pattern = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
        data = DiGraph.from_parts({"a1": "A", "b1": "B"}, [])
        matcher = IncrementalMatcher(pattern, data)
        assert len(matcher.result()) == 0
        matcher.add_edge("a1", "b1")
        assert len(matcher.result()) == 1

    def test_edge_deletion_updates_result(self):
        pattern, data = fresh_pair()
        matcher = IncrementalMatcher(pattern, data)
        assert len(matcher.result()) >= 1
        matcher.remove_edge("a1", "b1")
        matcher.remove_edge("a2", "b2")
        assert len(matcher.result()) == 0

    def test_only_affected_balls_recomputed(self):
        # Two far-apart communities: updating one must not touch the other.
        pattern = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
        data = DiGraph()
        for i in range(2):
            data.add_node(f"a{i}", "A")
            data.add_node(f"b{i}", "B")
            data.add_edge(f"a{i}", f"b{i}")
        # Long insulating chain of unrelated labels between communities.
        previous = "b0"
        for i in range(6):
            name = f"m{i}"
            data.add_node(name, "M")
            data.add_edge(previous, name)
            previous = name
        data.add_edge(previous, "a1")

        matcher = IncrementalMatcher(pattern, data)
        before = matcher.balls_recomputed
        matcher.remove_edge("a0", "b0")
        recomputed = matcher.balls_recomputed - before
        # Radius is d_Q = 1: only balls centered within 1 hop of a0/b0.
        assert recomputed <= 4
        # The far community's match must survive untouched.
        assert any(
            "a1" in sg.graph.nodes() for sg in matcher.result()
        )

    @staticmethod
    def spy_on_refinement(monkeypatch):
        """Record the center of every ball the matcher refines."""
        refined = []
        original = IncrementalMatcher._refine

        def spy(self, center, *args):
            refined.append(center)
            return original(self, center, *args)

        monkeypatch.setattr(IncrementalMatcher, "_refine", spy)
        return refined

    @pytest.mark.parametrize("engine", ["python", "kernel"])
    def test_centers_outside_the_pattern_labels_are_never_evaluated(
        self, monkeypatch, engine
    ):
        # m0/m1 carry a label the pattern lacks: line 1 of ExtractMaxPG
        # rejects their balls, so the matcher must never build them.
        pattern, data = fresh_pair()
        data.add_node("m0", "M")
        data.add_edge("b1", "m0")
        data.add_edge("m0", "a2")
        refined = self.spy_on_refinement(monkeypatch)
        matcher = IncrementalMatcher(pattern, data, engine=engine)
        assert matcher.balls_recomputed == 4  # a1, a2, b1, b2
        matcher.add_edge("m0", "b2")
        matcher.add_node("m1", "M")
        matcher.add_edge("m1", "a1")
        matcher.remove_edge("b1", "m0")
        matcher.remove_node("b2")
        assert refined and not {"m0", "m1"} & set(refined)
        batch = {sg.signature() for sg in match(pattern, data, engine=engine)}
        assert {sg.signature() for sg in matcher.result()} == batch

    @pytest.mark.parametrize("engine", ["python", "kernel"])
    def test_centers_outside_the_dual_relation_are_never_refined(
        self, monkeypatch, engine
    ):
        # a3 carries a pattern label but has no B child, so it is outside
        # the global dual relation: its ball holds no perfect subgraph
        # and the matcher must never refine it, even when an update
        # lands next to it.
        pattern, data = fresh_pair()
        data.add_node("a3", "A")
        refined = self.spy_on_refinement(monkeypatch)
        matcher = IncrementalMatcher(pattern, data, engine=engine)
        assert matcher.balls_recomputed == 4  # a1, a2, b1, b2
        matcher.add_edge("b1", "a3")  # a parent, still no B child
        matcher.remove_edge("b1", "a3")
        assert refined and "a3" not in refined
        assert canonical_result(matcher.result()) == canonical_result(
            match(pattern, data, engine="python")
        )

    def test_node_operations(self):
        pattern, data = fresh_pair()
        matcher = IncrementalMatcher(pattern, data)
        matcher.add_node("a3", "A")
        matcher.add_edge("a3", "b1")
        batch = {
            sg.signature() for sg in match(pattern, matcher.data)
        }
        assert {sg.signature() for sg in matcher.result()} == batch
        matcher.remove_node("b1")
        batch = {
            sg.signature() for sg in match(pattern, matcher.data)
        }
        assert {sg.signature() for sg in matcher.result()} == batch

    def test_remove_missing_node_raises(self):
        pattern, data = fresh_pair()
        matcher = IncrementalMatcher(pattern, data)
        with pytest.raises(MatchingError):
            matcher.remove_node("zzz")

    @given(st.integers(min_value=0, max_value=2000))
    @settings(max_examples=15, deadline=None)
    def test_random_updates_track_batch(self, seed):
        rng = random.Random(seed)
        data = random_digraph(seed, max_nodes=9, edge_prob=0.25)
        pattern = random_connected_pattern(seed + 2, max_nodes=3)
        matcher = IncrementalMatcher(pattern, data)
        nodes = list(data.nodes())
        for _ in range(4):
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v:
                continue
            if matcher.data.has_edge(u, v):
                matcher.remove_edge(u, v)
            else:
                matcher.add_edge(u, v)
            batch = {sg.signature() for sg in match(pattern, matcher.data)}
            assert {sg.signature() for sg in matcher.result()} == batch
