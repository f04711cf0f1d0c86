"""Engine equivalence: the compiled engines must mirror the reference path.

The contract of :mod:`repro.core.kernel` and :mod:`repro.core.npkernel`
is *output identity*: for every input, ``engine="kernel"``,
``engine="numpy"`` and ``engine="python"`` produce the same set of
maximum perfect subgraphs with the same match relations (the recorded
discovering center may legitimately differ — see ``kernel_match_plus``).
``match_plus`` options that turn off the dual filter, pruning or the
label restriction of centers run on the reference engine only; there
they must still return plain ``Match``'s subgraphs.
These tests enforce the contract over the paper-figure fixtures, the
synthetic fixture corpus, and randomized graph/pattern pairs, plus the
kernel-specific machinery (index caching, version invalidation, engine
validation, and the numpy-missing graceful fallback).
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings

from repro.core.digraph import DiGraph
from repro.core.dualsim import dual_simulation
from repro.core.engines import ENGINE_TABLE
from repro.core.kernel import (
    NUMPY_AUTO_THRESHOLD,
    GraphIndex,
    dual_simulation_kernel,
    get_index,
    resolve_engine,
)
from repro.core.matchplus import MatchPlusOptions, match_plus
from repro.core.pattern import Pattern
from repro.core.strong import match, matches_via_strong_simulation
from repro.exceptions import MatchingError

from tests.conftest import (
    graph_and_pattern,
    graph_with_sampled_pattern,
    pattern_from_subgraph,
    random_connected_pattern,
    random_digraph,
)

ALL_OPTION_COMBOS = [
    MatchPlusOptions(),
    MatchPlusOptions(use_minimization=False),
    MatchPlusOptions(use_dual_filter=False),
    MatchPlusOptions(use_pruning=False),
    MatchPlusOptions(use_dual_filter=False, use_pruning=False),
    MatchPlusOptions(
        use_minimization=False,
        use_dual_filter=False,
        use_pruning=False,
        restrict_centers_by_label=False,
    ),
]

#: One option set per toggle that only the reference cell runs.
TOGGLED_OFF = [
    MatchPlusOptions(use_dual_filter=False),
    MatchPlusOptions(use_pruning=False),
    MatchPlusOptions(restrict_centers_by_label=False),
]


def canonical(result):
    """Engine-independent form of a MatchResult: subgraphs + relations."""
    return {
        (sg.signature(), sg.relation.pair_set()) for sg in result
    }


def compiled_accepts(options):
    """Whether the compiled ``match_plus`` cells run ``options``.

    They run only the composition with every optimization on; the other
    toggles are a feature of the reference cell (minimization happens
    before any cell runs, so it is accepted either way).
    """
    return (
        options.use_dual_filter
        and options.use_pruning
        and options.restrict_centers_by_label
    )


def assert_match_plus_agrees(pattern, data, engines):
    """Every option combination returns plain ``Match``'s subgraphs on the
    reference engine, and ``engines`` agree with it wherever they run."""
    plain = {sg.signature() for sg in match(pattern, data, engine="python")}
    for options in ALL_OPTION_COMBOS:
        reference = match_plus(pattern, data, options, engine="python")
        assert {sg.signature() for sg in reference} == plain
        if not compiled_accepts(options):
            continue
        for engine in engines:
            assert canonical(
                match_plus(pattern, data, options, engine=engine)
            ) == canonical(reference)


def _spy_on_match_plus(monkeypatch, engine):
    """Swap a recording spy into one row's ``match_plus`` cell; returns
    the keyword arguments of every call."""
    row = ENGINE_TABLE[engine]
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return row.match_plus(*args, **kwargs)

    monkeypatch.setitem(ENGINE_TABLE, engine, replace(row, match_plus=spy))
    return calls


def assert_engines_agree(pattern, data):
    """Both entry points agree between engines on (pattern, data)."""
    plain_python = canonical(match(pattern, data, engine="python"))
    assert canonical(match(pattern, data, engine="kernel")) == plain_python
    assert canonical(match(pattern, data, engine="numpy")) == plain_python
    assert_match_plus_agrees(pattern, data, ("kernel", "numpy"))


# ----------------------------------------------------------------------
# Fixture corpus
# ----------------------------------------------------------------------
class TestFixtureCorpus:
    def test_paper_figure(self, q1, g1):
        assert_engines_agree(q1, g1)

    def test_trailing_empty_ball_segments(self):
        """Balls after the last candidate-bearing one must not truncate it.

        Regression: the batched numpy validity check clamped segment
        boundaries of empty trailing balls (here, isolated node 6 with a
        non-pattern label) into the last member position, which cut the
        final member — center 4 itself, the only ``l0`` candidate — out
        of ball(4)'s reduction and silently dropped its 3-node result.
        """
        data = DiGraph()
        for node, label in [
            (0, "l1"), (1, "l2"), (2, "l1"), (4, "l0"), (6, "l2"),
        ]:
            data.add_node(node, label)
        for source, target in [(1, 4), (4, 1), (4, 2), (4, 0)]:
            data.add_edge(source, target)
        pgraph = DiGraph()
        pgraph.add_node(1, "l0")
        pgraph.add_node(0, "l1")
        pgraph.add_edge(1, 0)
        pattern = Pattern(pgraph)
        assert_engines_agree(pattern, data)
        assert sorted(
            len(sg.graph) for sg in match(pattern, data, engine="numpy")
        ) == [2, 2, 3]

    def test_small_synthetic_sampled_patterns(self, small_synthetic):
        for seed in range(6):
            pattern = pattern_from_subgraph(small_synthetic, seed, 4)
            if pattern is None:
                continue
            assert_engines_agree(pattern, small_synthetic)

    def test_medium_synthetic_sampled_pattern(self, medium_synthetic):
        pattern = pattern_from_subgraph(medium_synthetic, 5, 6)
        assert pattern is not None
        assert canonical(
            match_plus(pattern, medium_synthetic, engine="kernel")
        ) == canonical(match_plus(pattern, medium_synthetic, engine="python"))

    def test_dual_simulation_on_fixtures(self, q1, g1, small_synthetic):
        assert dual_simulation_kernel(q1, g1) == dual_simulation(q1, g1)
        assert ENGINE_TABLE["numpy"].dual(q1, g1) == dual_simulation(q1, g1)
        pattern = pattern_from_subgraph(small_synthetic, 2, 3)
        assert pattern is not None
        assert dual_simulation_kernel(pattern, small_synthetic) == (
            dual_simulation(pattern, small_synthetic)
        )
        assert ENGINE_TABLE["numpy"].dual(pattern, small_synthetic) == (
            dual_simulation(pattern, small_synthetic)
        )

    def test_non_default_radius(self, small_synthetic):
        pattern = pattern_from_subgraph(small_synthetic, 1, 3)
        assert pattern is not None
        for radius in (0, 1, pattern.diameter + 2):
            reference = canonical(
                match(pattern, small_synthetic, radius=radius, engine="python")
            )
            for engine in ("kernel", "numpy"):
                assert canonical(
                    match(
                        pattern, small_synthetic, radius=radius, engine=engine
                    )
                ) == reference

    def test_decision_procedure(self, small_synthetic):
        pattern = pattern_from_subgraph(small_synthetic, 4, 3)
        assert pattern is not None
        expected = len(match(pattern, small_synthetic, engine="python")) > 0
        for engine in ("python", "kernel", "numpy"):
            assert matches_via_strong_simulation(
                pattern, small_synthetic, engine=engine
            ) is expected


# ----------------------------------------------------------------------
# Randomized equivalence (hypothesis shrinks over the seeds)
# ----------------------------------------------------------------------
class TestRandomizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(graph_and_pattern())
    def test_match_agrees(self, pair):
        data, pattern = pair
        assert canonical(match(pattern, data, engine="kernel")) == canonical(
            match(pattern, data, engine="python")
        )

    @settings(max_examples=60, deadline=None)
    @given(graph_with_sampled_pattern())
    def test_match_plus_agrees_all_options(self, pair):
        data, pattern = pair
        assert_match_plus_agrees(pattern, data, ("kernel",))

    @settings(max_examples=60, deadline=None)
    @given(graph_and_pattern())
    def test_dual_simulation_agrees(self, pair):
        data, pattern = pair
        reference = dual_simulation(pattern, data)
        assert dual_simulation_kernel(pattern, data) == reference
        assert ENGINE_TABLE["numpy"].dual(pattern, data) == reference

    def test_seeded_sweep(self):
        """A deterministic seed sweep, independent of hypothesis."""
        for seed in range(40):
            data = random_digraph(seed, max_nodes=10)
            pattern = random_connected_pattern(seed + 900, max_nodes=4)
            assert_engines_agree(pattern, data)


# ----------------------------------------------------------------------
# Kernel machinery
# ----------------------------------------------------------------------
class TestGraphIndex:
    def test_index_is_cached_and_maintained_across_mutation(self):
        graph = DiGraph.from_parts({1: "A", 2: "B"}, [(1, 2)])
        first = get_index(graph)
        assert get_index(graph) is first
        graph.add_node(3, "A")
        second = get_index(graph)
        # The mutation pipeline keeps ONE warm index per graph: the
        # cached object syncs itself from the delta stream instead of
        # being replaced by a fresh compile.
        assert second is first
        assert second.n == 3
        assert second.graph_version == graph.version
        assert second.stats.full_compiles == 1
        assert second.stats.deltas_applied == 1

    def test_version_bumps_on_every_mutator(self):
        graph = DiGraph()
        observed = {graph.version}

        def record():
            assert graph.version not in observed, "mutator did not bump"
            observed.add(graph.version)

        graph.add_node(1, "A"); record()
        graph.add_node(2, "B"); record()
        graph.add_edge(1, 2); record()
        graph.relabel_node(2, "C"); record()
        graph.remove_edge(1, 2); record()
        graph.remove_node(2); record()

    def test_stale_index_never_served_after_edge_change(self):
        pattern = Pattern.build({"a": "X", "b": "Y"}, [("a", "b")])
        graph = DiGraph.from_parts(
            {1: "X", 2: "Y", 3: "Y"}, [(1, 2)]
        )
        before = canonical(match(pattern, graph, engine="kernel"))
        graph.add_edge(1, 3)
        after_kernel = canonical(match(pattern, graph, engine="kernel"))
        after_python = canonical(match(pattern, graph, engine="python"))
        assert after_kernel == after_python
        assert after_kernel != before

    def test_csr_shape(self):
        graph = DiGraph.from_parts(
            {1: "A", 2: "A", 3: "B"}, [(1, 2), (1, 3), (2, 1)]
        )
        index = GraphIndex(graph)
        assert index.n == 3
        assert sum(map(len, index.fwd_rows)) == graph.num_edges
        assert sum(map(len, index.rev_rows)) == graph.num_edges
        # Undirected rows contain each neighbor exactly once.
        node_1 = index.index_of[1]
        assert sorted(index.und_rows[node_1]) == sorted(
            index.index_of[x] for x in (2, 3)
        )

    def test_empty_data_graph(self):
        pattern = Pattern.build({"a": "A"}, [])
        assert len(match(pattern, DiGraph(), engine="kernel")) == 0
        assert len(match_plus(pattern, DiGraph(), engine="kernel")) == 0


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("fortran")
        pattern = Pattern.build({"a": "A"}, [])
        data = DiGraph.from_parts({1: "A"}, [])
        with pytest.raises(ValueError):
            match(pattern, data, engine="fortran")
        with pytest.raises(ValueError):
            match_plus(pattern, data, engine="fortran")

    def test_numpy_is_a_valid_engine(self):
        assert resolve_engine("numpy") == "numpy"
        pattern = Pattern.build({"a": "A"}, [])
        data = DiGraph.from_parts({1: "A"}, [])
        assert len(match(pattern, data, engine="numpy")) == 1

    def test_auto_matches_reference(self):
        data = random_digraph(17, max_nodes=10)
        pattern = random_connected_pattern(23, max_nodes=4)
        assert canonical(match(pattern, data)) == canonical(
            match(pattern, data, engine="python")
        )
        assert canonical(match_plus(pattern, data)) == canonical(
            match_plus(pattern, data, engine="python")
        )

    def test_auto_prefers_numpy_above_size_threshold(self):
        nodes = {i: "A" for i in range(NUMPY_AUTO_THRESHOLD + 1)}
        data = DiGraph.from_parts(nodes, [])
        assert resolve_engine("auto", data) == "numpy"

    def test_toggles_run_the_reference_cell_under_auto(self, monkeypatch):
        data = random_digraph(17, max_nodes=10)
        pattern = random_connected_pattern(23, max_nodes=4)
        assert resolve_engine("auto", data) != "python"
        calls = _spy_on_match_plus(monkeypatch, "python")
        for options in TOGGLED_OFF:
            before = len(calls)
            result = match_plus(pattern, data, options)
            assert len(calls) == before + 1
            assert calls[-1] == {
                "use_dual_filter": options.use_dual_filter,
                "use_pruning": options.use_pruning,
                "restrict_centers_by_label": (
                    options.restrict_centers_by_label
                ),
            }
            assert {sg.signature() for sg in result} == {
                sg.signature() for sg in match(pattern, data, engine="python")
            }

    @pytest.mark.parametrize("engine", ["kernel", "numpy"])
    def test_toggles_raise_on_compiled_engines(self, engine):
        data = random_digraph(17, max_nodes=10)
        pattern = random_connected_pattern(23, max_nodes=4)
        for options in TOGGLED_OFF:
            with pytest.raises(MatchingError, match=engine):
                match_plus(pattern, data, options, engine=engine)

    def test_minimization_toggle_runs_on_every_engine(self, monkeypatch):
        data = random_digraph(17, max_nodes=10)
        pattern = random_connected_pattern(23, max_nodes=4)
        options = MatchPlusOptions(use_minimization=False)
        reference = canonical(
            match_plus(pattern, data, options, engine="python")
        )
        calls = {
            engine: _spy_on_match_plus(monkeypatch, engine)
            for engine in ENGINE_TABLE
        }
        for engine in ("kernel", "numpy", "auto"):
            ran = resolve_engine(engine, data)
            before = {name: len(log) for name, log in calls.items()}
            assert canonical(
                match_plus(pattern, data, options, engine=engine)
            ) == reference
            assert {
                name: len(log) - before[name] for name, log in calls.items()
            } == {name: int(name == ran) for name in calls}


class TestNumpyFallback:
    """Importing repro without numpy keeps python/kernel functional."""

    _SCRIPT = r"""
import sys


class _BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked for this test")
        return None


sys.meta_path.insert(0, _BlockNumpy())

from repro.core.digraph import DiGraph
from repro.core.kernel import NUMPY_AVAILABLE, resolve_engine
from repro.core.pattern import Pattern
from repro.core.strong import match
from repro.exceptions import MatchingError

assert not NUMPY_AVAILABLE

pattern = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
data = DiGraph.from_parts({1: "A", 2: "B"}, [(1, 2)])
assert len(match(pattern, data, engine="python")) == 1
assert len(match(pattern, data, engine="kernel")) == 1

# Explicitly asking for numpy fails loud, as a MatchingError (not a
# ValueError: the name is known, the dependency is missing).
try:
    resolve_engine("numpy")
except MatchingError as exc:
    assert "numpy" in str(exc)
else:
    raise AssertionError("resolve_engine('numpy') should have raised")

# Auto never selects the unavailable engine, at any size.
big = DiGraph.from_parts({i: "A" for i in range(3000)}, [])
assert resolve_engine("auto", big) == "kernel"
assert len(match(pattern, big, engine="auto")) == 0
print("fallback-ok")
"""

    def test_numpy_blocked_import_keeps_other_engines_working(self):
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fallback-ok" in proc.stdout
