"""Differential suite for the path-matching engines.

The kernel path answers bounded / regular matching with the kernel's
witness checks over the CSR rows: row tests, one multi-source BFS per
fixpoint pop (``_within``) and memoized DFA walks (``_dfa_walk``); the
python path is the reference BFS / NFA product walk.  Both compute
unique greatest fixpoints, so the contract is *output identity* —
enforced here over paper fixtures, random graphs (hypothesis), regex
constraint pools, interleaved mutation streams and cascades along a
long chain, plus direct properties of the witness sets (against a
per-pair BFS), of the DFA walks (against the reference product walks)
and of the ``ReachIndex`` 2-hop labels (exact distances, dropped by
every mutation, built by no path query).
"""

from __future__ import annotations

from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ball import extract_ball
from repro.core.bounded import BoundedPattern, _ReachabilityOracle, bounded_simulation
from repro.core.digraph import DiGraph
from repro.core.kernel import get_index
from repro.core.pattern import Pattern
from repro.core.reach import (
    PATH_ENGINES,
    _dfa_walk,
    _within,
    get_reach_index,
    resolve_path_engine,
)
from repro.core.regex import (
    LazyDfa,
    compile_regex,
    regex_predecessors,
    regex_successors,
    reversed_nfa,
)
from repro.core.regular import (
    RegularPattern,
    regular_dual_simulation,
    regular_strong_match,
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

#: A constraint whose reversed language differs from its own.  Every
#: pool entry reads the same both ways, so only this one shows a parent
#: check that walks the edge's machine instead of the reversed one.
ASYMMETRIC = "l0 l1*"


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
    source == target), the witness semantics of ``_within``."""
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
        # There is no numpy path engine; only an *auto*-resolved numpy
        # tier maps onto kernel.
        with pytest.raises(ValueError):
            resolve_path_engine("numpy", small_synthetic)

    def test_unknown_engine_rejected(self, small_synthetic):
        with pytest.raises(ValueError):
            resolve_path_engine("fortran", small_synthetic)

    def test_python_regular_strong_match_runs_no_kernel(
        self, q1, g1, monkeypatch
    ):
        """The reference regular strong match computes its global and
        per-ball relations on the reference path too."""
        from repro.core import regular

        spy = mock.Mock(wraps=regular.regular_dual_simulation_kernel)
        monkeypatch.setattr(regular, "regular_dual_simulation_kernel", spy)
        rpattern = regular.hop_bounded_pattern(
            q1, {edge: 2 for edge in q1.edges()}
        )
        result = regular.regular_strong_match(rpattern, g1, engine="python")
        assert len(result) > 0
        assert spy.call_count == 0


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
# Path witnesses: the multi-source BFS against a per-pair BFS
# ----------------------------------------------------------------------
class TestWithin:
    @settings(max_examples=40, deadline=None)
    @given(graph_seeds, st.sampled_from([1, 2, 3, None]))
    def test_within_matches_bfs_witness(self, seed, bound):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        nodes = list(data.nodes())
        for node in nodes[::3]:
            data.add_edge(node, node)
        seeds = nodes[::2]
        data.add_edge(nodes[-1], seeds[0])  # a cycle back into the seeds
        gi = get_index(data)
        slots = {gi.index_of[v] for v in seeds}
        into = _within(gi.rev_rows, slots, bound)
        out_of = _within(gi.fwd_rows, slots, bound)

        def witnessed(pairs):
            return any(
                (d := _bfs_dist_positive(data, a, b)) is not None
                and (bound is None or d <= bound)
                for a, b in pairs
            )

        for v in nodes:
            i = gi.index_of[v]
            assert (i in into) == witnessed((v, s) for s in seeds), (
                f"path into the seeds from {v!r} wrong at seed {seed}"
            )
            assert (i in out_of) == witnessed((s, v) for s in seeds), (
                f"path out of the seeds into {v!r} wrong at seed {seed}"
            )


class TestDfaWalk:
    """The int DFA walk against the reference product walks: forward
    with the edge's machine, backward with the reversed machine, and
    confined to a radius-1 ball."""

    @settings(max_examples=10, deadline=None)
    @given(graph_seeds)
    def test_walk_matches_reference_walks(self, seed):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        nodes = list(data.nodes())
        for node in nodes[::3]:
            data.add_edge(node, node)
        gi = get_index(data)
        fwd, rev, labels = gi.fwd_rows, gi.rev_rows, gi.labels

        def walk(rows, v, dfa, bound, members=None):
            start = gi.index_of[v]
            return {
                gi.nodes[i]
                for i in _dfa_walk(rows, labels, start, dfa, bound, members)
            }

        for source in CONSTRAINT_POOL + (".?", ASYMMETRIC):
            nfa = compile_regex(source)
            dfa, rdfa = LazyDfa(nfa), LazyDfa(reversed_nfa(nfa))
            for bound in (1, 2, 3, None):
                for v in nodes:
                    where = f"{source!r}, bound {bound}, {v!r}, seed {seed}"
                    assert walk(fwd, v, dfa, bound) == regex_successors(
                        data, v, nfa, bound
                    ), f"forward walk wrong: {where}"
                    assert walk(rev, v, rdfa, bound) == regex_predecessors(
                        data, v, nfa, bound
                    ), f"reversed walk wrong: {where}"
                    ball = extract_ball(data, v, 1).graph
                    members = {gi.index_of[u] for u in ball.nodes()}
                    assert walk(
                        fwd, v, dfa, bound, members
                    ) == regex_successors(
                        ball, v, nfa, bound
                    ), f"in-ball walk wrong: {where}"


# ----------------------------------------------------------------------
# The 2-hop labels: exact distances, dropped by every mutation
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

    @staticmethod
    def assert_exact(data: DiGraph, ri) -> None:
        gi = ri.gi
        for u in data.nodes():
            for w in data.nodes():
                assert ri.dist(
                    gi.index_of[u], gi.index_of[w]
                ) == _bfs_dist(data, u, w)

    def test_insertions_drop_and_rebuild(self):
        data = random_digraph(3, max_nodes=10, edge_prob=0.25)
        get_reach_index(data)  # prime
        nodes = list(data.nodes())
        source, target = next(
            (s, t)
            for s in nodes
            for t in nodes
            if s != t and not data.has_edge(s, t)
        )
        data.add_edge(source, target)
        data.add_node("fresh", "l0")
        data.add_edge(target, "fresh")
        ri = get_reach_index(data)
        stats = get_index(data).stats
        assert stats.reach_drops == 1, "an insertion must drop the labels"
        assert stats.reach_builds == 2, "the next request must rebuild"
        assert stats.reach_patches == 0
        self.assert_exact(data, ri)

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
        self.assert_exact(data, ri)


class TestPathQueriesBuildNoLabels:
    """No path query builds the 2-hop labels; results equal python's."""

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

    @pytest.mark.parametrize("bound", [2, 3, None])
    def test_bounded_queries_build_none(self, bound):
        pattern, data = self.fresh_pair()
        bp = BoundedPattern(pattern, {edge: bound for edge in pattern.edges()})
        observed = bounded_simulation(bp, data, engine="kernel").pair_set()
        assert get_index(data).stats.reach_builds == 0
        assert observed == bounded_simulation(
            bp, data, engine="python"
        ).pair_set()

    def test_wildcard_queries_build_none(self):
        pattern, data = self.fresh_pair()
        rpattern = RegularPattern(
            pattern, {edge: ".*" for edge in pattern.edges()}
        )
        dual = regular_dual_simulation(rpattern, data, engine="kernel")
        strong = canonical_result(
            regular_strong_match(rpattern, data, engine="kernel")
        )
        assert get_index(data).stats.reach_builds == 0
        assert dual.pair_set() == regular_dual_simulation(
            rpattern, data, engine="python"
        ).pair_set()
        assert strong == canonical_result(
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
    def test_asymmetric_regex_property(self, pair):
        data, pattern = pair
        edges = list(pattern.edges())
        assert_paths_identical(
            pattern,
            data,
            bounds={edge: None for edge in edges},
            constraints={edge: ASYMMETRIC for edge in edges},
        )

    @settings(max_examples=20, deadline=None)
    @given(graph_with_sampled_pattern())
    def test_containment_chain(self, pair):
        data, pattern = pair
        assert_paths_containment(pattern, data)


# ----------------------------------------------------------------------
# Mutation streams: warm maintained index vs reference vs fresh compile
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
        assert stats.reach_builds == 0
        assert stats.full_compiles == 1


# ----------------------------------------------------------------------
# Cascades along a long chain
# ----------------------------------------------------------------------
DEEP_NODES = 200

TWO_CYCLE = Pattern.build({"a": "A", "b": "A"}, [("a", "b"), ("b", "a")])
THREE_CHAIN = Pattern.build(
    {"a": "A", "b": "A", "c": "A"}, [("a", "b"), ("b", "c")]
)


def _one_label_ring(closed: bool) -> DiGraph:
    """A directed path of ``DEEP_NODES`` nodes, closed into a cycle or not."""
    edges = [(i, i + 1) for i in range(DEEP_NODES - 1)]
    if closed:
        edges.append((DEEP_NODES - 1, 0))
    return DiGraph.from_parts({i: "A" for i in range(DEEP_NODES)}, edges)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
@pytest.mark.parametrize(
    "pattern", [TWO_CYCLE, THREE_CHAIN], ids=["2-cycle", "3-chain"]
)
class TestDeepCascades:
    """On the path, the 2-cycle pattern empties every relation only after
    a cascade that runs the whole length of the path: child checks
    remove candidates from the sink end, parent checks (regular
    matching) from the source end."""

    @staticmethod
    def assert_cascade_empties(closed, pattern, relation):
        if not closed and pattern is TWO_CYCLE:
            assert relation.is_empty(), "the path fixture drove no cascade"

    @pytest.mark.parametrize("bound", [2, None], ids=["bound-2", "unbounded"])
    def test_bounded_simulation(self, closed, pattern, bound):
        data = _one_label_ring(closed)
        bp = BoundedPattern(pattern, {edge: bound for edge in pattern.edges()})
        reference = bounded_simulation(bp, data, engine="python")
        self.assert_cascade_empties(closed, pattern, reference)
        assert bounded_simulation(bp, data, engine="kernel") == reference

    @pytest.mark.parametrize("constraint", [".?", ".*"])
    def test_regular_matching(self, closed, pattern, constraint):
        data = _one_label_ring(closed)
        edges = list(pattern.edges())
        rpattern = RegularPattern(
            pattern,
            {edge: constraint for edge in edges},
            {edge: 2 for edge in edges},
        )
        reference = regular_dual_simulation(rpattern, data, engine="python")
        self.assert_cascade_empties(closed, pattern, reference)
        assert regular_dual_simulation(
            rpattern, data, engine="kernel"
        ) == reference
        assert canonical_result(
            regular_strong_match(rpattern, data, engine="kernel")
        ) == canonical_result(
            regular_strong_match(rpattern, data, engine="python")
        )


# ----------------------------------------------------------------------
# The ball step's depth rules for path checks
# ----------------------------------------------------------------------
#: ``x -> y`` and ``x -> t``, each ``.?`` within 2 hops, so every check
#: has hop reach b = 2; at radius r = 2 the first round tests the
#: candidates deeper than r - b = 0, and a walk from depth at most
#: r - b + 1 = 1 reads the global walk.
FORK = Pattern.build({"x": "X", "y": "Y", "t": "T"}, [("x", "y"), ("x", "t")])


def _fork(pattern: Pattern) -> RegularPattern:
    edges = list(pattern.edges())
    return RegularPattern(
        pattern, {edge: ".?" for edge in edges}, {edge: 2 for edge in edges}
    )


class TestBallDepthRules:
    """Around the center ``s`` (label T) at radius 2, a candidate of
    ``x`` whose only ``y`` witness path leaves the ball must drop out of
    that ball's relation, although the global relation keeps it."""

    @staticmethod
    def assert_drops(data: DiGraph, dropped) -> None:
        rpattern = _fork(FORK)
        assert dropped in regular_dual_simulation(
            rpattern, data, engine="python"
        ).matches_of_raw("x")
        ball = extract_ball(data, "s", 2).graph
        assert dropped not in regular_dual_simulation(
            rpattern, ball, engine="python"
        ).matches_of_raw("x"), "the fixture does not exercise the rule"
        assert canonical_result(
            regular_strong_match(rpattern, data, radius=2, engine="kernel")
        ) == canonical_result(
            regular_strong_match(rpattern, data, radius=2, engine="python")
        )

    def test_first_round_tests_depth_r_minus_b_plus_1(self):
        # v sits at depth 1 = r - b + 1: its global walk stays inside
        # the ball, but its only Y witness, w, lies at depth 3.  Only a
        # first-round test of v removes it.
        data = DiGraph.from_parts(
            {"s": "T", "u": "X", "v": "X", "c": "Y", "i": "Z", "w": "Y"},
            [("u", "s"), ("v", "s"), ("u", "c"), ("v", "i"), ("i", "w")],
        )
        self.assert_drops(data, "v")

    def test_walk_from_depth_r_minus_b_plus_2_stays_in_ball(self):
        # v sits at depth 2 = r - b + 2 and reaches c only through o,
        # at depth 3: its global walk finds c, its walk in the ball
        # does not.
        data = DiGraph.from_parts(
            {"s": "T", "u": "X", "c": "Y", "a": "Z", "v": "X", "o": "Z"},
            [
                ("u", "s"), ("u", "c"), ("a", "s"),
                ("v", "a"), ("v", "o"), ("o", "c"),
            ],
        )
        self.assert_drops(data, "v")

    @pytest.mark.parametrize("radius", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(graph_with_sampled_pattern())
    def test_radius_property(self, radius, pair):
        data, pattern = pair
        rpattern = _fork(pattern)
        kernel, python = (
            regular_strong_match(rpattern, data, radius=radius, engine=engine)
            for engine in ("kernel", "python")
        )
        assert canonical_result(kernel) == canonical_result(python)
