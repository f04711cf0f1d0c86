"""Property tests: incremental dual simulation vs from-scratch fixpoints.

:class:`~repro.core.incremental.IncrementalDualSimulation` maintains the
maximum dual-simulation relation under edge updates — deletions by exact
cascade, insertions by a warm full fixpoint.  The invariant under test:
after *every* update in an arbitrary insert/delete sequence, the
maintained relation equals a from-scratch
:func:`~repro.core.dualsim.dual_simulation` on the mutated graph — on
both execution engines (the reference set-based fixpoint and the kernel's
counter fixpoint), which must themselves agree.  The *maintainer* itself
is parametrized over the same engines: it repairs deletions with the
reference cascade on both, and runs construction and insertions on the
engine's ``dual`` cell.

:class:`~repro.core.incremental.IncrementalMatcher` composes that
maintainer with ``Match+``'s per-ball step, so it is held to the full
result: after every edge or node insertion or deletion, each subgraph
and its relation equal a from-scratch reference ``Match`` on every
engine.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dualsim import dual_simulation
from repro.core.incremental import IncrementalDualSimulation, IncrementalMatcher
from repro.core.kernel import dual_simulation_kernel
from repro.core.strong import match

from tests.conftest import (
    graph_seeds,
    pattern_seeds,
    random_connected_pattern,
    random_digraph,
)
from tests.engines import ENGINES, canonical_result


def assert_matches_scratch(inc) -> None:
    """The maintained relation equals a fresh fixpoint on both engines."""
    maintained = inc.relation.pair_set()
    assert maintained == dual_simulation(inc.pattern, inc.data).pair_set()
    assert maintained == dual_simulation_kernel(
        inc.pattern, inc.data
    ).pair_set()


def assert_tracks_match(matcher) -> None:
    """Every subgraph and relation equals a fresh reference ``Match``."""
    assert canonical_result(matcher.result()) == canonical_result(
        match(matcher.pattern, matcher.data, engine="python")
    )


@pytest.mark.parametrize("engine", ["python", "kernel"])
class TestIncrementalDualSimulationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=1, max_value=12),
    )
    def test_random_update_sequences(
        self, engine, seed, pattern_seed, op_seed, num_ops
    ):
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        assert_matches_scratch(inc)
        rng = random.Random(op_seed)
        nodes = list(data.nodes())
        for _ in range(num_ops):
            edges = list(data.edges())
            if edges and rng.random() < 0.5:
                source, target = rng.choice(edges)
                inc.remove_edge(source, target)
            else:
                inc.add_edge(rng.choice(nodes), rng.choice(nodes))
            assert_matches_scratch(inc)

    @settings(max_examples=15, deadline=None)
    @given(seed=graph_seeds, pattern_seed=pattern_seeds)
    def test_delete_everything_then_empty(self, engine, seed, pattern_seed):
        """Deleting every edge drives the cascade to the bare-graph
        relation (exactly what a fresh run on the edgeless graph says)."""
        data = random_digraph(seed, max_nodes=8, edge_prob=0.35)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        for source, target in list(data.edges()):
            inc.remove_edge(source, target)
            assert_matches_scratch(inc)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_delete_then_reinsert_roundtrip(
        self, engine, seed, pattern_seed, op_seed
    ):
        """Removing an edge and adding it back restores the original
        relation (gfp is a function of the graph, not of the history)."""
        data = random_digraph(seed, max_nodes=9, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        before = inc.relation.pair_set()
        edges = list(data.edges())
        if not edges:
            return
        source, target = random.Random(op_seed).choice(edges)
        inc.remove_edge(source, target)
        assert_matches_scratch(inc)
        inc.add_edge(source, target)
        assert inc.relation.pair_set() == before
        assert_matches_scratch(inc)


@pytest.mark.parametrize("engine", ENGINES)
class TestIncrementalMatcherProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=1, max_value=10),
    )
    def test_random_update_sequences(
        self, engine, seed, pattern_seed, op_seed, num_ops
    ):
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        matcher = IncrementalMatcher(pattern, data, engine=engine)
        assert_tracks_match(matcher)
        labels = sorted(pattern.label_set())
        rng = random.Random(op_seed)
        fresh = 1000
        for _ in range(num_ops):
            nodes = list(data.nodes())
            edges = list(data.edges())
            choice = rng.random()
            if choice < 0.35 and nodes:
                matcher.add_edge(rng.choice(nodes), rng.choice(nodes))
            elif choice < 0.65 and edges:
                matcher.remove_edge(*rng.choice(edges))
            elif choice < 0.8:
                matcher.add_node(fresh, rng.choice(labels))
                fresh += 1
            elif nodes:
                matcher.remove_node(rng.choice(nodes))
            assert_tracks_match(matcher)
