"""Differential suite for the path-matching engines (PR 8).

The kernel path answers bounded / regular matching through the
``ReachIndex`` 2-hop distance labeling; the python path is the reference
BFS / NFA product walk.  Both compute unique greatest fixpoints, so the
contract is *output identity* — enforced here over paper fixtures,
random graphs (hypothesis), regex constraint pools, and interleaved
mutation streams, plus direct properties of the labeling itself
(exact distances, in-place insertion patches, drop-on-deletion).
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounded import BoundedPattern, _ReachabilityOracle, bounded_simulation
from repro.core.digraph import DiGraph
from repro.core.kernel import get_index
from repro.core.pattern import Pattern
from repro.core.reach import (
    PATH_ENGINES,
    TargetProbe,
    get_reach_index,
    resolve_path_engine,
)
from repro.exceptions import MatchingError
from tests.conftest import (
    graph_seeds,
    graph_with_sampled_pattern,
    pattern_seeds,
    random_digraph,
)
from tests.engines import (
    assert_paths_containment,
    assert_paths_identical,
    assert_paths_update_workload_identical,
    canonical_path_observation,
    canonical_result,
    mixed_bounds,
)

#: Regex constraint pool cycled over pattern edges in the regex tests.
CONSTRAINT_POOL = (".*", "l0", "l0*", "(l0|l1)*", "l1?", ".")


def _chain(labels):
    graph = DiGraph()
    for i, label in enumerate(labels):
        graph.add_node(i, label)
    for i in range(len(labels) - 1):
        graph.add_edge(i, i + 1)
    return graph


def _bfs_dist(data: DiGraph, source, target):
    if source == target:
        return 0
    frontier = deque([(source, 0)])
    seen = {source}
    while frontier:
        node, depth = frontier.popleft()
        for child in data.successors_raw(node):
            if child == target:
                return depth + 1
            if child not in seen:
                seen.add(child)
                frontier.append((child, depth + 1))
    return None


def _bfs_dist_positive(data: DiGraph, source, target):
    """Length of the shortest path of >= 1 hop (cycle length for
    source == target), the witness semantics of the probes."""
    best = None
    for child in data.successors_raw(source):
        step = 0 if child == target else _bfs_dist(data, child, target)
        if step is not None and (best is None or step + 1 < best):
            best = step + 1
    return best


def _constraints(pattern: Pattern):
    edges = sorted(pattern.edges(), key=repr)
    return {
        edge: CONSTRAINT_POOL[i % len(CONSTRAINT_POOL)]
        for i, edge in enumerate(edges)
    }


# ----------------------------------------------------------------------
# Engine seam
# ----------------------------------------------------------------------
class TestEngineSeam:
    def test_known_engines(self, small_synthetic):
        for engine in PATH_ENGINES:
            assert resolve_path_engine(engine, small_synthetic) in (
                "python",
                "kernel",
            )

    def test_explicit_numpy_rejected(self, small_synthetic):
        # There is no numpy path engine (probe batching is a ROADMAP
        # item); only an *auto*-resolved numpy tier maps onto kernel.
        with pytest.raises(ValueError):
            resolve_path_engine("numpy", small_synthetic)

    def test_unknown_engine_rejected(self, small_synthetic):
        with pytest.raises(ValueError):
            resolve_path_engine("fortran", small_synthetic)


# ----------------------------------------------------------------------
# Corrected bounded-BFS cycle semantics (satellite a)
# ----------------------------------------------------------------------
class TestCycleBackSemantics:
    def test_three_cycle_bound_two_excludes_source(self):
        graph = _chain(["a", "b", "c"])
        graph.add_edge(2, 0)  # 3-cycle 0 -> 1 -> 2 -> 0
        oracle = _ReachabilityOracle(graph)
        # The cycle back to 0 needs 3 hops; bound 2 must NOT include it.
        assert 0 not in oracle.reachable_set(0, 2)
        assert oracle.reachable_set(0, 2) == {1, 2}
        # Bound 3 (and unbounded) close the cycle.
        assert 0 in oracle.reachable_set(0, 3)
        assert 0 in oracle.reachable_set(0, None)

    def test_self_loop_within_every_bound(self):
        graph = _chain(["a", "b"])
        graph.add_edge(0, 0)
        oracle = _ReachabilityOracle(graph)
        assert 0 in oracle.reachable_set(0, 1)

    def test_kernel_agrees_on_cycle_bounds(self):
        graph = _chain(["a", "b", "c"])
        graph.add_edge(2, 0)
        pgraph = DiGraph()
        pgraph.add_node("u", "a")
        pgraph.add_node("w", "a")
        pgraph.add_edge("u", "w")
        pattern = Pattern(pgraph)
        for bound in (2, 3, None):
            bp = BoundedPattern(pattern, {("u", "w"): bound})
            assert bounded_simulation(
                bp, graph, engine="kernel"
            ).pair_set() == bounded_simulation(
                bp, graph, engine="python"
            ).pair_set()


# ----------------------------------------------------------------------
# The labeling itself: exact distances, probes
# ----------------------------------------------------------------------
class TestReachIndex:
    @settings(max_examples=40, deadline=None)
    @given(graph_seeds)
    def test_dist_matches_bfs(self, seed):
        data = random_digraph(seed, max_nodes=14, edge_prob=0.3)
        ri = get_reach_index(data)
        gi = ri.gi
        nodes = list(data.nodes())
        for u in nodes:
            for w in nodes:
                expected = _bfs_dist(data, u, w)
                assert ri.dist(gi.index_of[u], gi.index_of[w]) == expected, (
                    f"dist({u!r}, {w!r}) wrong at seed {seed}"
                )

    @settings(max_examples=25, deadline=None)
    @given(graph_seeds, st.sampled_from([1, 2, 3, None]))
    def test_target_probe_matches_bfs_witness(self, seed, bound):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        ri = get_reach_index(data)
        gi = ri.gi
        nodes = list(data.nodes())
        targets = {gi.index_of[v] for v in nodes[::2]}
        probe = TargetProbe(ri, targets)
        for v in nodes:
            expected = any(
                (d := _bfs_dist_positive(data, v, t)) is not None
                and (bound is None or d <= bound)
                for t in nodes[::2]
            )
            assert probe.witness_from(gi.index_of[v], bound) == expected

    def test_insertions_patch_in_place(self):
        data = random_digraph(3, max_nodes=10, edge_prob=0.25)
        get_reach_index(data)  # prime
        stats = get_index(data).stats
        assert stats.reach_builds == 1
        nodes = list(data.nodes())
        inserted = 0
        for source in nodes:
            for target in nodes:
                if not data.has_edge(source, target) and source != target:
                    data.add_edge(source, target)
                    inserted += 1
                    break
            if inserted >= 4:
                break
        ri = get_reach_index(data)  # syncs the deltas
        stats = get_index(data).stats
        assert stats.reach_builds == 1, "insertions must not rebuild"
        assert stats.reach_drops == 0
        assert stats.reach_patches == inserted
        gi = ri.gi
        for u in nodes:
            for w in nodes:
                assert ri.dist(
                    gi.index_of[u], gi.index_of[w]
                ) == _bfs_dist(data, u, w)

    def test_deletion_drops_and_rebuilds(self):
        data = random_digraph(5, max_nodes=10, edge_prob=0.3)
        edges = list(data.edges())
        assert edges, "fixture needs at least one edge"
        get_reach_index(data)
        data.remove_edge(*edges[0])
        ri = get_reach_index(data)
        stats = get_index(data).stats
        assert stats.reach_drops == 1, "deletions must drop the labeling"
        assert stats.reach_builds == 2, "next probe must rebuild lazily"
        gi = ri.gi
        for u in data.nodes():
            for w in data.nodes():
                assert ri.dist(
                    gi.index_of[u], gi.index_of[w]
                ) == _bfs_dist(data, u, w)


class TestLabelsOnlyForProbes:
    """The 2-hop labels are built only when some probe will read them."""

    @staticmethod
    def fresh_pair():
        from repro.datasets.patterns import sample_pattern_from_data
        from repro.datasets.synthetic import generate_graph

        data = generate_graph(120, alpha=1.15, num_labels=5, seed=41)
        pattern = sample_pattern_from_data(data, 3, seed=43)
        assert pattern is not None
        return pattern, data

    def test_unit_bounds_and_regexes_without_wildcard_build_none(self):
        pattern, data = self.fresh_pair()
        kwargs = {
            "bounds": {edge: 1 for edge in pattern.edges()},
            "constraints": {edge: ".?" for edge in pattern.edges()},
        }
        observed = canonical_path_observation(
            pattern, data, "kernel", **kwargs
        )
        assert get_index(data).stats.reach_builds == 0
        assert observed == canonical_path_observation(
            pattern, data, "python", **kwargs
        )

    def test_wildcard_query_builds_the_labels_once(self):
        from repro.core.regular import RegularPattern, regular_strong_match

        pattern, data = self.fresh_pair()
        edge = sorted(pattern.edges(), key=repr)[0]
        rpattern = RegularPattern(pattern, {edge: ".*"})
        for _ in range(2):
            observed = canonical_result(
                regular_strong_match(rpattern, data, engine="kernel")
            )
        assert get_index(data).stats.reach_builds == 1
        assert observed == canonical_result(
            regular_strong_match(rpattern, data, engine="python")
        )


# ----------------------------------------------------------------------
# Engine equivalence: fixtures, hypothesis, constraints
# ----------------------------------------------------------------------
class TestPathEquivalence:
    def test_paper_figures(self, q1, g1):
        assert_paths_identical(q1, g1, bounds=mixed_bounds(q1))

    def test_small_synthetic(self, small_synthetic):
        from repro.datasets.patterns import sample_pattern_from_data

        pattern = sample_pattern_from_data(small_synthetic, 4, seed=17)
        assert pattern is not None
        assert_paths_identical(pattern, small_synthetic)

    @settings(max_examples=30, deadline=None)
    @given(graph_with_sampled_pattern())
    def test_hop_bounds_property(self, pair):
        data, pattern = pair
        assert_paths_identical(pattern, data, bounds=mixed_bounds(pattern))

    @settings(max_examples=20, deadline=None)
    @given(graph_with_sampled_pattern())
    def test_regex_constraints_property(self, pair):
        data, pattern = pair
        assert_paths_identical(
            pattern,
            data,
            bounds=mixed_bounds(pattern),
            constraints=_constraints(pattern),
        )

    @settings(max_examples=20, deadline=None)
    @given(graph_with_sampled_pattern())
    def test_containment_chain(self, pair):
        data, pattern = pair
        assert_paths_containment(pattern, data)


# ----------------------------------------------------------------------
# Mutation streams: warm patched index vs reference vs fresh compile
# ----------------------------------------------------------------------
class TestUpdateWorkloads:
    @settings(max_examples=8, deadline=None)
    @given(graph_seeds, pattern_seeds)
    def test_mixed_mutations(self, gseed, pseed):
        data = random_digraph(gseed, max_nodes=12, edge_prob=0.3)
        from tests.conftest import random_connected_pattern

        pattern = random_connected_pattern(pseed, max_nodes=3)
        assert_paths_update_workload_identical(
            pattern, data, num_ops=8, op_seed=gseed * 31 + pseed,
            check_every=2,
        )

    def test_regex_constraints_under_mutation(self):
        data = random_digraph(11, max_nodes=12, edge_prob=0.3)
        from tests.conftest import random_connected_pattern

        pattern = random_connected_pattern(23, max_nodes=3)
        assert_paths_update_workload_identical(
            pattern, data, num_ops=6, op_seed=47,
            constraints=_constraints(pattern), check_every=2,
        )

    def test_pure_insertions_never_rebuild(self):
        from repro.datasets.patterns import sample_pattern_from_data
        from repro.datasets.synthetic import generate_graph
        from repro.experiments.performance import random_insertion_stream

        data = generate_graph(120, alpha=1.15, num_labels=5, seed=41)
        pattern = sample_pattern_from_data(data, 3, seed=43)
        assert pattern is not None
        bp = BoundedPattern(pattern, mixed_bounds(pattern))
        bounded_simulation(bp, data, engine="kernel")  # prime
        stream = random_insertion_stream(data, 12, seed=5)
        for source, target in stream:
            data.add_edge(source, target)
            warm = bounded_simulation(bp, data, engine="kernel")
            assert warm.pair_set() == bounded_simulation(
                bp, data, engine="python"
            ).pair_set()
        stats = get_index(data).stats
        assert stats.reach_builds == 1
        assert stats.reach_drops == 0
        assert stats.reach_patches == len(stream)
