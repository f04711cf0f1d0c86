"""The unified mutation pipeline, end to end.

Four layers under test, matching the pipeline's shape:

1. **DiGraph change-log** — mutators emit typed
   :class:`~repro.core.digraph.GraphDelta` events; ``batch()`` groups
   them; listeners are held weakly.
2. **Incremental GraphIndex maintenance** — a cached index syncs itself
   from the delta stream: insertions never recompile (the acceptance
   criterion: ``stats.full_compiles`` stays at 1 across an insertion
   workload), deletions fall back to a full recompile only past the
   density threshold, and a *held* stale index raises
   :class:`~repro.exceptions.MatchingError` instead of serving rows from
   mixed epochs.  Plus the ``auto`` engine heuristic built on top.
3. **Incremental matching engines** — ``IncrementalDualSimulation`` /
   ``IncrementalMatcher`` with ``engine="kernel"`` or ``engine="numpy"``
   stay output-identical to from-scratch reference runs under random
   update sequences.
4. **Update-workload differential suite** — random interleavings of
   mutations and queries over every entry point, centralized and
   distributed, via the harness in :mod:`tests.engines` (fixtures +
   hypothesis; CI re-runs with a pinned seed).
"""

from __future__ import annotations

import gc
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DiGraph,
    GraphDelta,
)
from repro.core.dualsim import dual_simulation
from repro.core.incremental import IncrementalDualSimulation, IncrementalMatcher
from repro.core.kernel import (
    NUMPY_AUTO_THRESHOLD,
    TINY_AUTO_THRESHOLD,
    get_index,
    index_maintenance,
    resolve_engine,
)
from repro.core.matchplus import match_plus
from repro.core.pattern import Pattern
from repro.core.strong import match
from repro.datasets.synthetic import generate_graph
from repro.exceptions import MatchingError

from tests.conftest import (
    graph_seeds,
    pattern_seeds,
    random_connected_pattern,
    random_digraph,
)
from tests.engines import (
    DeltaRecorder,
    assert_update_workload_identical,
    canonical_result,
)


def _canonical(result):
    return canonical_result(result)


# ----------------------------------------------------------------------
# Layer 1: the change-log
# ----------------------------------------------------------------------
class TestGraphDeltas:
    def test_every_mutator_emits_a_typed_event(self):
        graph = DiGraph()
        recorder = DeltaRecorder(graph)
        graph.add_node(1, "A")
        graph.add_node(2, "B")
        graph.add_edge(1, 2)
        graph.relabel_node(2, "C")
        graph.remove_edge(1, 2)
        graph.remove_node(2)
        kinds = [d.kind for d in recorder.deltas]
        assert kinds == [
            ADD_NODE, ADD_NODE, ADD_EDGE, RELABEL, REMOVE_EDGE, REMOVE_NODE,
        ]
        relabel = recorder.deltas[3]
        assert (relabel.node, relabel.old_label, relabel.label) == (2, "B", "C")

    def test_noop_mutations_emit_nothing(self):
        graph = DiGraph.from_parts({1: "A", 2: "B"}, [(1, 2)])
        recorder = DeltaRecorder(graph)
        graph.add_edge(1, 2)  # already present: set semantics
        graph.relabel_node(1, "A")  # unchanged label
        assert recorder.deltas == []

    def test_remove_node_emits_edge_removals_first_in_one_batch(self):
        graph = DiGraph.from_parts(
            {1: "A", 2: "B", 3: "C"}, [(1, 2), (3, 1), (1, 1)]
        )
        deliveries = []

        class Listener:
            def on_graph_deltas(self, deltas):
                deliveries.append(deltas)

        listener = Listener()
        graph.subscribe(listener)
        graph.remove_node(1)
        assert len(deliveries) == 1  # one grouped delivery
        group = deliveries[0]
        assert [d.kind for d in group[:-1]] == [REMOVE_EDGE] * 3
        assert group[-1].kind == REMOVE_NODE and group[-1].label == "A"

    def test_batch_groups_deliveries(self):
        graph = DiGraph.from_parts({1: "A", 2: "B"}, [])
        deliveries = []

        class Listener:
            def on_graph_deltas(self, deltas):
                deliveries.append(deltas)

        listener = Listener()
        graph.subscribe(listener)
        with graph.batch():
            graph.add_edge(1, 2)
            graph.add_node(3, "C")
            assert deliveries == []  # nothing delivered mid-batch
        assert len(deliveries) == 1
        assert [d.kind for d in deliveries[0]] == [ADD_EDGE, ADD_NODE]
        assert graph.version >= 2  # versions still bumped per mutation

    def test_listener_is_held_weakly(self):
        graph = DiGraph.from_parts({1: "A"}, [])
        recorder = DeltaRecorder(graph)
        del recorder
        gc.collect()
        graph.add_node(2, "B")  # must not raise into a dead listener
        assert graph.num_nodes == 2


class TestSubscriberCleanup:
    def test_collected_subscriber_never_blocks_delivery(self):
        """Regression: a garbage-collected subscriber must be pruned on
        the next emit and meanwhile never stop live subscribers from
        hearing deltas."""
        graph = DiGraph.from_parts({1: "A"}, [])
        dead = DeltaRecorder(graph)
        live = DeltaRecorder(graph)
        del dead
        gc.collect()
        graph.add_node(2, "B")
        assert [d.kind for d in live.deltas] == [ADD_NODE]
        # The dead weakref is gone after the emit, not retained forever.
        assert len(graph._listeners) == 1

    def test_unsubscribe_is_idempotent(self):
        graph = DiGraph.from_parts({1: "A"}, [])
        recorder = DeltaRecorder(graph)
        graph.unsubscribe(recorder)
        graph.unsubscribe(recorder)  # second call: clean no-op
        graph.unsubscribe(object())  # never-subscribed: clean no-op
        graph.add_node(2, "B")
        assert recorder.deltas == []

    def test_unsubscribe_during_delivery_sticks(self):
        """Regression: pruning dead weakrefs used to rebuild the
        listener list from a pre-delivery snapshot, resurrecting a
        listener that unsubscribed inside its own callback."""
        graph = DiGraph.from_parts({1: "A"}, [])

        class OneShot:
            def __init__(self):
                self.heard = 0

            def on_graph_deltas(self, deltas):
                self.heard += 1
                graph.unsubscribe(self)

        dead = DeltaRecorder(graph)  # a dead ref forces the prune path
        one_shot = OneShot()
        graph.subscribe(one_shot)
        del dead
        gc.collect()
        graph.add_node(2, "B")
        graph.add_node(3, "C")
        assert one_shot.heard == 1  # not resurrected by the prune


# ----------------------------------------------------------------------
# Layer 2: incremental index maintenance
# ----------------------------------------------------------------------
class TestIncrementalIndexMaintenance:
    def test_insertion_workload_never_recompiles(self):
        """The acceptance criterion: N single-edge insertions into an
        indexed graph, re-querying after each — zero full recompiles."""
        data = generate_graph(300, alpha=1.15, num_labels=8, seed=23)
        pattern = Pattern.build({"x": 0, "y": 1}, [("x", "y")])
        reference = _canonical(match_plus(pattern, data, engine="python"))
        assert _canonical(match_plus(pattern, data, engine="kernel")) == (
            reference
        )
        index = get_index(data)
        assert index.stats.full_compiles == 1
        rng = random.Random(7)
        nodes = list(data.nodes())
        inserted = 0
        while inserted < 25:
            source, target = rng.choice(nodes), rng.choice(nodes)
            if data.has_edge(source, target):
                continue
            data.add_edge(source, target)
            inserted += 1
            kernel = _canonical(match_plus(pattern, data, engine="kernel"))
            assert kernel == _canonical(
                match_plus(pattern, data, engine="python")
            )
        after = get_index(data)
        assert after is index  # one warm index throughout
        assert after.stats.full_compiles == 1  # zero recompiles
        assert after.stats.deltas_applied == 25

    def test_node_insertions_extend_in_place(self):
        data = random_digraph(3, max_nodes=8)
        pattern = random_connected_pattern(5, max_nodes=3)
        match_plus(pattern, data, engine="kernel")
        index = get_index(data)
        for i in range(10):
            data.add_node(f"new{i}", "l0")
            data.add_edge(f"new{i}", next(iter(data.nodes())))
            assert _canonical(
                match_plus(pattern, data, engine="kernel")
            ) == _canonical(match_plus(pattern, data, engine="python"))
        assert get_index(data) is index
        assert index.stats.full_compiles == 1

    def test_deletions_past_threshold_trigger_recompile(self):
        data = random_digraph(11, max_nodes=12, edge_prob=0.6)
        get_index(data)
        # Remove far more than a quarter of the graph: the density
        # threshold (floor 64) must eventually force a compacting
        # recompile rather than unbounded tombstone accumulation.
        removed = 0
        for source, target in list(data.edges()):
            data.remove_edge(source, target)
            get_index(data)
            removed += 1
        for node in list(data.nodes())[:-1]:
            data.remove_node(node)
            get_index(data)
            removed += 1
        index = get_index(data)
        if removed > 64:
            assert index.stats.full_compiles > 1
        # Whatever path was taken, the index must be exact.
        assert index.n >= data.num_nodes
        assert sorted(index.index_of) == sorted(data.nodes())

    def test_stale_held_index_raises_matching_error(self):
        data = random_digraph(17, max_nodes=10, edge_prob=0.4)
        pattern = random_connected_pattern(9, max_nodes=3)
        held = get_index(data)
        data.add_node("fresh", "l0")  # always a real mutation
        with pytest.raises(MatchingError, match="stale GraphIndex"):
            held.new_epoch()
        # Re-acquiring through get_index syncs and works again.
        synced = get_index(data)
        assert synced is held
        synced.new_epoch()
        assert _canonical(match(pattern, data, engine="kernel")) == (
            _canonical(match(pattern, data, engine="python"))
        )

    def test_stale_held_index_raises_with_maintenance_off(self):
        with index_maintenance(False):
            data = random_digraph(21, max_nodes=10, edge_prob=0.4)
            held = get_index(data)
            data.remove_edge(*next(iter(data.edges())))
            with pytest.raises(MatchingError, match="stale GraphIndex"):
                held.new_epoch()
            # get_index hands out a *fresh* index instead of syncing.
            fresh = get_index(data)
            assert fresh is not held
            assert fresh.stats.full_compiles == 1

    def test_maintenance_toggle_restores(self):
        with index_maintenance(False):
            with index_maintenance(True):
                pass
            data = DiGraph.from_parts({1: "A"}, [])
            first = get_index(data)
            data.add_node(2, "B")
            assert get_index(data) is not first

    def test_maintenance_restored_after_exception(self):
        with pytest.raises(RuntimeError):
            with index_maintenance(False):
                raise RuntimeError("boom")
        # Maintenance is back on: a mutated graph's index syncs in place.
        data = DiGraph.from_parts({1: "A"}, [])
        first = get_index(data)
        data.add_node(2, "B")
        assert get_index(data) is first
        assert first.stats.incremental_syncs == 1

    def test_toggle_is_kernel_internal(self):
        """The maintenance switch is a kernel detail, not core API: only
        the context manager exists, and only in ``repro.core.kernel``."""
        import repro.core
        import repro.core.kernel as kernel

        assert not [n for n in repro.core.__all__ if "maintenance" in n]
        assert not [n for n in dir(repro.core) if "maintenance" in n]
        assert [
            n for n in dir(kernel)
            if "maintenance" in n and not n.startswith("_")
        ] == ["index_maintenance"]


class TestBatchLevelIndexSync:
    def test_relabel_storm_coalesces_to_one_label_move(self):
        """The open ROADMAP item: a whole batch() group applies with one
        label-group pass — k relabels of one node cost at most one
        label-group move, while deltas_applied still counts every event."""
        data = random_digraph(43, max_nodes=10, edge_prob=0.3)
        index = get_index(data)
        node = next(iter(data.nodes()))
        before = index.stats.label_moves
        applied_before = index.stats.deltas_applied
        with data.batch():
            for step in range(5):
                data.relabel_node(node, f"spin{step}")
        get_index(data)
        assert index.stats.deltas_applied == applied_before + 5
        assert index.stats.label_moves == before + 1  # one net move
        assert index.labels[index.index_of[node]] == "spin4"
        assert index.index_of[node] in index.label_groups["spin4"]

    def test_round_trip_relabel_moves_nothing(self):
        data = random_digraph(47, max_nodes=8, edge_prob=0.3)
        index = get_index(data)
        node = next(iter(data.nodes()))
        original = data.label(node)
        before = index.stats.label_moves
        with data.batch():
            data.relabel_node(node, "elsewhere")
            data.relabel_node(node, original)  # net no-op
        get_index(data)
        assert index.stats.label_moves == before  # zero group churn
        assert index.labels[index.index_of[node]] == original

    def test_relabel_then_remove_in_one_batch(self):
        """A deferred relabel must settle before the node's removal so
        the removal finds the node under its latest label."""
        data = random_digraph(53, max_nodes=8, edge_prob=0.4)
        pattern = random_connected_pattern(19, max_nodes=3)
        index = get_index(data)
        victim = next(iter(data.nodes()))
        with data.batch():
            data.relabel_node(victim, "doomed")
            data.remove_node(victim)
        assert _canonical(match_plus(pattern, data, engine="kernel")) == (
            _canonical(match_plus(pattern, data, engine="python"))
        )
        assert get_index(data) is index
        assert victim not in index.index_of
        assert "doomed" not in index.label_groups

    def test_mixed_batch_stays_output_identical(self):
        data = random_digraph(59, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(29, max_nodes=3)
        index = get_index(data)
        nodes = list(data.nodes())
        with data.batch():
            data.add_node("fresh1", "l0")
            data.add_edge("fresh1", nodes[0])
            data.relabel_node(nodes[0], "l2")
            data.relabel_node(nodes[0], "l1")
            if data.num_edges:
                data.remove_edge(*next(iter(data.edges())))
        get_index(data)
        assert index.stats.full_compiles == 1  # synced in place
        assert _canonical(match_plus(pattern, data, engine="kernel")) == (
            _canonical(match_plus(pattern, data, engine="python"))
        )


class TestAutoEngineHeuristic:
    def test_tiny_unindexed_graph_resolves_to_python(self):
        data = DiGraph.from_parts({1: "A", 2: "B"}, [(1, 2)])
        assert data.size < TINY_AUTO_THRESHOLD
        assert resolve_engine("auto", data) == "python"

    def test_tiny_graph_with_cached_index_resolves_to_kernel(self):
        data = DiGraph.from_parts({1: "A", 2: "B"}, [(1, 2)])
        get_index(data)
        assert resolve_engine("auto", data) == "kernel"

    def test_midsize_graph_resolves_to_kernel(self):
        data = generate_graph(400, alpha=1.1, num_labels=5, seed=3)
        assert TINY_AUTO_THRESHOLD <= data.size < NUMPY_AUTO_THRESHOLD
        assert resolve_engine("auto", data) == "kernel"

    def test_large_graph_resolves_to_numpy(self):
        data = generate_graph(700, alpha=1.15, num_labels=5, seed=3)
        assert data.size >= NUMPY_AUTO_THRESHOLD
        assert resolve_engine("auto", data) == "numpy"

    def test_dataless_auto_keeps_kernel(self):
        assert resolve_engine("auto") == "kernel"

    def test_explicit_engines_unaffected(self):
        data = DiGraph.from_parts({1: "A"}, [])
        assert resolve_engine("python", data) == "python"
        assert resolve_engine("kernel", data) == "kernel"
        assert resolve_engine("numpy", data) == "numpy"
        with pytest.raises(ValueError):
            resolve_engine("fortran", data)

    def test_auto_output_identical_either_way(self):
        data = random_digraph(29, max_nodes=8)
        pattern = random_connected_pattern(31, max_nodes=3)
        assert _canonical(match_plus(pattern, data)) == _canonical(
            match_plus(pattern, data, engine="python")
        )


# ----------------------------------------------------------------------
# Layer 3: incremental matching on the compiled substrates
# ----------------------------------------------------------------------
COMPILED_ENGINES = ("kernel", "numpy")


class TestIncrementalKernelEngine:
    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    @settings(max_examples=20, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=1, max_value=10),
    )
    def test_dual_simulation_tracks_scratch(
        self, engine, seed, pattern_seed, op_seed, num_ops
    ):
        data = random_digraph(seed, max_nodes=9, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        assert inc.engine == engine
        rng = random.Random(op_seed)
        fresh = 5000
        for _ in range(num_ops):
            nodes = list(data.nodes())
            edges = list(data.edges())
            choice = rng.random()
            if choice < 0.35 and nodes:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if not data.has_edge(source, target):
                    inc.add_edge(source, target)
            elif choice < 0.60 and edges:
                inc.remove_edge(*rng.choice(edges))
            elif choice < 0.75:
                inc.add_node(fresh, "l1")
                fresh += 1
            elif len(nodes) > 1:
                inc.remove_node(rng.choice(nodes))
            assert inc.relation.pair_set() == dual_simulation(
                pattern, data
            ).pair_set()

    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matcher_tracks_scratch(self, engine, seed, pattern_seed, op_seed):
        data = random_digraph(seed, max_nodes=8, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        matcher = IncrementalMatcher(pattern, data, engine=engine)
        rng = random.Random(op_seed)
        fresh = 6000
        for _ in range(5):
            nodes = list(data.nodes())
            edges = list(data.edges())
            choice = rng.random()
            if choice < 0.4 and nodes:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if not data.has_edge(source, target):
                    matcher.add_edge(source, target)
            elif choice < 0.65 and edges:
                matcher.remove_edge(*rng.choice(edges))
            elif choice < 0.8:
                matcher.add_node(fresh, "l0")
                fresh += 1
            elif len(nodes) > 1:
                matcher.remove_node(rng.choice(nodes))
            assert _canonical(matcher.result()) == _canonical(
                match(pattern, data, engine="python")
            )

    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    def test_survives_threshold_compaction(self, engine):
        """Regression: a deletion-heavy stream pushes the warm index past
        the density threshold, recompiling it IN PLACE with compacted
        ids; the kernel incremental state must remap through the old
        node list (captured before the recompile), not the new one."""
        data = generate_graph(150, alpha=1.25, num_labels=4, seed=2)
        pattern = random_connected_pattern(61, max_nodes=3)
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        rng = random.Random(8)
        for step in range(140):
            nodes = list(data.nodes())
            edges = list(data.edges())
            choice = rng.random()
            if choice < 0.45 and edges:
                inc.remove_edge(*rng.choice(edges))
            elif choice < 0.7 and len(nodes) > 1:
                inc.remove_node(rng.choice(nodes))
            elif nodes:
                source, target = rng.choice(nodes), rng.choice(nodes)
                if not data.has_edge(source, target):
                    inc.add_edge(source, target)
            if step % 20 == 19:
                assert inc.relation.pair_set() == dual_simulation(
                    pattern, data
                ).pair_set()
        # The point of the scenario: compaction actually happened.
        assert get_index(data).stats.full_compiles > 1
        assert inc.relation.pair_set() == dual_simulation(
            pattern, data
        ).pair_set()

    @pytest.mark.parametrize("engine", COMPILED_ENGINES)
    def test_single_node_pattern_node_churn(self, engine):
        pattern = Pattern.build({"x": "A"}, [])
        data = DiGraph.from_parts({1: "A", 2: "B"}, [])
        inc = IncrementalDualSimulation(pattern, data, engine=engine)
        inc.add_node(3, "A")
        assert inc.relation.pair_set() == dual_simulation(
            pattern, data
        ).pair_set()
        inc.remove_node(1)
        assert inc.relation.pair_set() == dual_simulation(
            pattern, data
        ).pair_set()
        assert sorted(inc.relation.matches_of("x")) == [3]


# ----------------------------------------------------------------------
# Reader–writer guard: syncs defer behind in-flight queries, fail loud
# on self-deadlock
# ----------------------------------------------------------------------
class TestIndexReadGuard:
    def test_sync_waits_for_inflight_reader(self):
        """A ``get_index`` sync from another thread must block until an
        in-flight reader drains, then apply — never rewrite rows under a
        reader, never drop the sync."""
        data = random_digraph(63, max_nodes=10, edge_prob=0.4)
        index = get_index(data)
        entered = threading.Event()
        release = threading.Event()

        def reader():
            with index.reading():
                entered.set()
                release.wait(timeout=10)

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        assert entered.wait(timeout=10)
        data.add_node("fresh", "l0")
        synced = {}

        def writer():
            synced["index"] = get_index(data)

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        writer_thread.join(timeout=0.3)
        assert writer_thread.is_alive(), (
            "sync went through while a reader held the index"
        )
        release.set()
        writer_thread.join(timeout=10)
        reader_thread.join(timeout=10)
        assert not writer_thread.is_alive()
        assert synced["index"] is index
        assert index.graph_version == data.version
        assert "fresh" in index.index_of

    def test_mid_query_sync_from_reading_thread_fails_loud(self):
        """A thread that mutates the graph mid-query and then re-enters
        ``get_index`` on its own read would self-deadlock behind its own
        read hold; the guard raises ``MatchingError`` instead."""
        data = random_digraph(67, max_nodes=10, edge_prob=0.4)
        index = get_index(data)
        with index.reading():
            with index.reading():  # queries nest (ball inside match)
                pass
            data.add_node("fresh", "l0")
            with pytest.raises(MatchingError, match="mid-query"):
                get_index(data)
        # Out of the read section the deferred sync applies normally.
        assert get_index(data) is index
        assert index.graph_version == data.version


# ----------------------------------------------------------------------
# Layer 4: the update-workload differential suite
# ----------------------------------------------------------------------
class TestUpdateWorkloadCentralized:
    def test_paper_figure_fixture(self, q1, g1):
        assert_update_workload_identical(q1, g1, num_ops=12, op_seed=13)

    def test_synthetic_fixture(self, small_synthetic):
        pattern = random_connected_pattern(41, max_nodes=3)
        assert_update_workload_identical(
            pattern, small_synthetic, num_ops=15, op_seed=17
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=1, max_value=10),
    )
    def test_random_interleavings(self, seed, pattern_seed, op_seed, num_ops):
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        assert_update_workload_identical(
            pattern, data, num_ops=num_ops, op_seed=op_seed
        )


class TestUpdateWorkloadDistributed:
    def test_paper_figure_fixture(self, q1, g1):
        nodes = list(g1.nodes())
        assignment = {node: i % 2 for i, node in enumerate(nodes)}
        assert_update_workload_identical(
            q1, g1, num_ops=10, op_seed=19,
            assignment=assignment, num_sites=2, check_every=2,
        )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
        num_sites=st.integers(min_value=2, max_value=3),
    )
    def test_random_interleavings(
        self, seed, pattern_seed, op_seed, num_sites
    ):
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        rng = random.Random(seed + op_seed)
        assignment = {
            node: rng.randrange(num_sites) for node in data.nodes()
        }
        assert_update_workload_identical(
            pattern, data, num_ops=6, op_seed=op_seed,
            assignment=assignment, num_sites=num_sites, check_every=2,
        )
