"""The query service layer, end to end.

Four layers under test, matching the subsystem's shape:

1. **Canonical fingerprints** — relabel-permuted (isomorphic) patterns
   get equal canonical keys; structurally different patterns do not
   share keys; the canonical order is an isomorphism witness.  The
   soundness half is the property the cache leans on: fingerprint-equal
   patterns must produce identical results, asserted differentially
   through the service (hypothesis + fixtures).
2. **Result cache** — LRU bounds, version-gated lookups (open batches
   read as misses), the delta-invalidation rule table (label-disjoint
   deltas keep entries live, everything else drops them), and lifecycle
   (dead graphs purge their entries).
3. **MatchService** — observation-identical to direct engine calls with
   the cache cold, warm, disabled, across engines, and under concurrent
   submission from a wide pool (the kernel read-path thread-safety
   contract).
4. **Mutation soundness** — random mutation/query interleavings against
   a warm service: a wrongly retained cache entry would surface as a
   stale hit (:func:`tests.engines.assert_service_update_workload_identical`).
"""

from __future__ import annotations

import gc
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import DiGraph
from repro.core.matchplus import match_plus
from repro.core.pattern import Pattern
from repro.service import (
    CacheStats,
    MatchService,
    Query,
    ResultCache,
    ServiceStats,
    WorkloadReport,
    canonical_form,
    pattern_fingerprint,
    replay_workload,
    skewed_stream,
)

from tests.conftest import (
    graph_seeds,
    pattern_seeds,
    random_connected_pattern,
    random_digraph,
)
from tests.engines import (
    assert_service_identical,
    assert_service_update_workload_identical,
    canonical_result,
    permuted_pattern,
)


# ----------------------------------------------------------------------
# Layer 1: canonical fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    @settings(max_examples=60, deadline=None)
    @given(
        pattern_seed=pattern_seeds,
        perm_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_isomorphic_patterns_fingerprint_equal(
        self, pattern_seed, perm_seed
    ):
        pattern = random_connected_pattern(pattern_seed, max_nodes=6)
        twin = permuted_pattern(pattern, perm_seed)
        assert canonical_form(pattern).key == canonical_form(twin).key
        assert pattern_fingerprint(pattern) == pattern_fingerprint(twin)

    @settings(max_examples=40, deadline=None)
    @given(pattern_seed=pattern_seeds, perm_seed=graph_seeds)
    def test_canonical_order_is_an_isomorphism_witness(
        self, pattern_seed, perm_seed
    ):
        """Matching canonical positions between fingerprint-equal
        patterns must map labels and edges exactly — the property that
        makes cross-pattern cache replay sound."""
        pattern = random_connected_pattern(pattern_seed, max_nodes=6)
        twin = permuted_pattern(pattern, perm_seed)
        order_p = canonical_form(pattern).order
        order_t = canonical_form(twin).order
        node_at = {position: node for node, position in order_t.items()}
        sigma = {u: node_at[order_p[u]] for u in pattern.nodes()}
        for u in pattern.nodes():
            assert pattern.label(u) == twin.label(sigma[u])
        mapped = {(sigma[a], sigma[b]) for a, b in pattern.edges()}
        assert mapped == set(twin.edges())

    def test_structural_differences_change_the_key(self):
        base = Pattern.build({"a": "A", "b": "B"}, [("a", "b")])
        flipped = Pattern.build({"a": "A", "b": "B"}, [("b", "a")])
        relabeled = Pattern.build({"a": "A", "b": "C"}, [("a", "b")])
        looped = Pattern.build({"a": "A", "b": "B"}, [("a", "b"), ("b", "b")])
        keys = {
            canonical_form(p).key for p in (base, flipped, relabeled, looped)
        }
        assert len(keys) == 4

    def test_symmetric_patterns_terminate(self):
        """Highly symmetric shapes (every leaf automorphic) must not
        explode: the orbit-skip keeps the search polynomial."""
        graph = DiGraph()
        graph.add_node("hub", "R")
        for i in range(16):
            graph.add_node(f"leaf{i}", "B")
            graph.add_edge("hub", f"leaf{i}")
        star = Pattern(graph)
        assert canonical_form(star).key == canonical_form(
            permuted_pattern(star, 3)
        ).key

    def test_canonical_form_is_memoized_on_the_pattern(self):
        pattern = random_connected_pattern(11, max_nodes=5)
        assert pattern.canonical() is pattern.canonical()
        assert pattern.fingerprint() == canonical_form(pattern).fingerprint

    @settings(max_examples=25, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        perm_seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fingerprint_sharing_is_sound(self, seed, pattern_seed, perm_seed):
        """The acceptance property: a cache entry warmed by one pattern
        and hit by a fingerprint-equal pattern must reproduce exactly
        what a direct computation for the *second* pattern returns."""
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        twin = permuted_pattern(pattern, perm_seed)
        with MatchService(max_workers=1) as service:
            service.query(pattern, data)  # warm
            replayed = service.query(twin, data)  # hit via fingerprint
            assert service.stats.cache.hits >= 1
            assert canonical_result(replayed) == canonical_result(
                match_plus(twin, data)
            )


# ----------------------------------------------------------------------
# Layer 2: the result cache
# ----------------------------------------------------------------------
def _label_pattern() -> Pattern:
    return Pattern.build({"a": "l0", "b": "l1"}, [("a", "b")])


def _graph_with_spare_labels() -> DiGraph:
    graph = random_digraph(5, max_nodes=10, num_labels=2, edge_prob=0.3)
    graph.add_node("s1", "spare")
    graph.add_node("s2", "spare")
    return graph


class TestResultCache:
    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        graph = DiGraph.from_parts({1: "A"}, [])
        for i in range(4):
            cache.store(graph, ("key", i), "dual",
                        frozenset({"A"}), payload=(frozenset(),))
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert cache.lookup(graph, ("key", 0), "dual") is None
        assert cache.lookup(graph, ("key", 3), "dual") is not None

    def test_open_batch_reads_as_miss(self):
        """Version-gated lookups: mutations buffered in an open batch
        have bumped the version but not delivered deltas yet — the cache
        must refuse to serve until delivery settles the entry."""
        graph = _graph_with_spare_labels()
        pattern = _label_pattern()
        with MatchService(max_workers=1) as service:
            service.query(pattern, graph, "dual")
            with graph.batch():
                graph.relabel_node("s1", "other")  # label-disjoint
                relation = service.query(pattern, graph, "dual")
                assert service.stats.cache.hits == 0  # mid-batch: miss
            assert relation.pair_set() == service.query(
                pattern, graph, "dual"
            ).pair_set()

    def test_label_disjoint_deltas_keep_entries_live(self):
        graph = _graph_with_spare_labels()
        pattern = _label_pattern()
        with MatchService(max_workers=1) as service:
            service.query(pattern, graph, "dual")
            service.query(pattern, graph, "match-plus")
            stats = service.stats.cache
            assert stats.misses == 2
            graph.relabel_node("s1", "other")      # node delta, disjoint
            graph.add_node("s3", "spare")          # node delta, disjoint
            service.query(pattern, graph, "dual")
            service.query(pattern, graph, "match-plus")
            assert stats.hits == 2 and stats.invalidations == 0

    def test_edge_deltas_respect_the_ball_distance_rule(self):
        """Edge deltas: ball-based entries drop, global relations stay.

        The spare nodes are isolated, so an edge between them lies far
        from every candidate — yet the ``match-plus`` entry drops, as it
        does on every edge delta.  The ``dual`` entry survives any edge
        with an endpoint label outside ``L`` and drops only on an edge
        between two candidate labels.
        """
        graph = _graph_with_spare_labels()
        pattern = _label_pattern()  # labels {l0, l1}
        with MatchService(max_workers=1) as service:
            service.query(pattern, graph, "dual")
            service.query(pattern, graph, "match-plus")
            graph.add_edge("s1", "s2")  # spare component: beyond any ball
            stats = service.stats.cache
            service.query(pattern, graph, "dual")
            assert stats.hits == 1  # global relation provably unaffected
            service.query(pattern, graph, "match-plus")
            assert stats.hits == 1 and stats.invalidations == 1
            # Bridge the spare component to a candidate: the ball entry
            # drops again, the dual entry survives (``spare`` is
            # outside L).
            l0_node = next(
                node for node in graph.nodes() if graph.label(node) == "l0"
            )
            l1_node = next(
                node for node in graph.nodes() if graph.label(node) == "l1"
            )
            graph.add_edge("s2", l0_node)
            service.query(pattern, graph, "dual")
            assert stats.hits == 2
            service.query(pattern, graph, "match-plus")
            assert stats.invalidations == 2 and stats.misses == 4
            # An edge between two candidate labels drops the dual entry.
            if graph.has_edge(l0_node, l1_node):
                graph.remove_edge(l0_node, l1_node)
            else:
                graph.add_edge(l0_node, l1_node)
            assert stats.invalidations == 4
            service.query(pattern, graph, "dual")
            assert stats.hits == 2 and stats.misses == 5

    def test_overlapping_deltas_invalidate(self):
        graph = _graph_with_spare_labels()
        pattern = _label_pattern()
        with MatchService(max_workers=1) as service:
            service.query(pattern, graph, "dual")
            graph.relabel_node("s1", "l0")  # new label overlaps the pattern
            service.query(pattern, graph, "dual")
            stats = service.stats.cache
            assert stats.hits == 0 and stats.invalidations == 1

    def test_remove_node_group_recovers_labels(self):
        """A remove_node batch ships remove_edge deltas whose endpoint
        has already left the graph; the group's own remove_node delta
        supplies the label, so disjointness stays provable."""
        graph = _graph_with_spare_labels()
        graph.add_edge("s1", "s2")
        pattern = _label_pattern()
        with MatchService(max_workers=1) as service:
            service.query(pattern, graph, "dual")
            graph.remove_node("s1")  # edges + node in one batch, disjoint
            service.query(pattern, graph, "dual")
            assert service.stats.cache.hits == 1

    def test_store_refuses_payload_computed_before_a_mutation(self):
        """Regression: a mutation landing between compute and store used
        to plant an entry stamped with the *post*-mutation version —
        permanently stale, and invisible to later delta deliveries
        (which judge only future mutations).  store() must refuse."""
        cache = ResultCache()
        graph = DiGraph.from_parts({1: "l0", 2: "spare"}, [])
        computed_version = graph.version
        graph.relabel_node(2, "other")  # lands mid-"query"
        cache.store(
            graph, ("k",), "dual", frozenset({"l0"}),
            payload=(frozenset(),), computed_version=computed_version,
        )
        assert len(cache) == 0
        # Even after a later harmless delta, nothing stale can resurface.
        graph.relabel_node(2, "spare")
        assert cache.lookup(graph, ("k",), "dual") is None

    def test_dead_graph_purges_entries(self):
        cache = ResultCache(max_entries=8)
        graph = DiGraph.from_parts({1: "A"}, [])
        cache.store(graph, ("k",), "dual",
                    frozenset({"A"}), payload=(frozenset(),))
        assert len(cache) == 1
        del graph
        gc.collect()
        assert len(cache) == 0

    def test_clear(self):
        cache = ResultCache()
        graph = DiGraph.from_parts({1: "A"}, [])
        cache.store(graph, ("k",), "dual",
                    frozenset({"A"}), payload=(frozenset(),))
        cache.clear()
        assert len(cache) == 0
        assert cache.lookup(graph, ("k",), "dual") is None


# ----------------------------------------------------------------------
# Layer 3: the service façade
# ----------------------------------------------------------------------
class TestMatchService:
    def test_paper_figure_fixture(self, q1, g1):
        with MatchService(max_workers=2) as service:
            assert_service_identical(service, q1, g1)
            # Second pass: every combination now replays from cache.
            assert_service_identical(service, q1, g1)
            assert service.stats.replayed > 0

    @settings(max_examples=15, deadline=None)
    @given(seed=graph_seeds, pattern_seed=pattern_seeds)
    def test_random_pairs_identical(self, seed, pattern_seed):
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        with MatchService(max_workers=2) as service:
            assert_service_identical(service, pattern, data)

    def test_cache_disabled_still_identical(self, q1, g1):
        with MatchService(max_workers=2, cache_size=0) as service:
            assert_service_identical(service, q1, g1)
            assert_service_identical(service, q1, g1)
            assert service.stats.replayed == 0
            assert service.stats.computed == service.stats.queries

    def test_submit_batch_preserves_order(self, q1, g1):
        with MatchService(max_workers=4) as service:
            queries = [Query(q1, g1) for _ in range(8)]
            report, results = replay_workload(service, queries)
            expected = canonical_result(match_plus(q1, g1))
            assert report.queries == 8
            assert all(canonical_result(r) == expected for r in results)
            assert report.stats.cache.hits >= 7

    def test_concurrent_queries_share_one_index(self):
        """The kernel read path under a wide pool: many threads querying
        one shared graph must all observe the reference answer (the
        per-thread visited buffers are what makes this race-free)."""
        data = random_digraph(31, max_nodes=14, edge_prob=0.35)
        patterns = [
            random_connected_pattern(seed, max_nodes=4)
            for seed in range(6)
        ]
        expected = [
            canonical_result(match_plus(p, data, engine="python"))
            for p in patterns
        ]
        with MatchService(max_workers=8, cache_size=0) as service:
            futures = [
                service.submit(p, data, engine="kernel")
                for p in patterns * 5
            ]
            for i, future in enumerate(futures):
                assert canonical_result(future.result()) == expected[
                    i % len(patterns)
                ]

    def test_direct_kernel_calls_are_thread_safe(self):
        """Same property without the service: raw match_plus calls from
        plain threads on one graph."""
        data = random_digraph(37, max_nodes=14, edge_prob=0.35)
        pattern = random_connected_pattern(41, max_nodes=4)
        expected = canonical_result(match_plus(pattern, data, engine="python"))
        failures = []

        def worker():
            try:
                for _ in range(5):
                    observed = canonical_result(
                        match_plus(pattern, data, engine="kernel")
                    )
                    if observed != expected:
                        failures.append("diverged")
            except Exception as exc:  # noqa: BLE001 - collected for assert
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

    def test_unknown_algorithm_rejected(self, q1, g1):
        with MatchService(max_workers=1) as service:
            with pytest.raises(ValueError, match="unknown algorithm"):
                service.submit(q1, g1, algorithm="vf2")

    def test_shared_external_cache(self, q1, g1):
        cache = ResultCache(max_entries=16)
        with MatchService(max_workers=1, cache=cache) as first:
            first.query(q1, g1)
        with MatchService(max_workers=1, cache=cache) as second:
            second.query(q1, g1)
            assert second.stats.cache.hits == 1  # warmed by the first

    def test_stats_shapes(self, q1, g1):
        with MatchService(max_workers=1) as service:
            service.query(q1, g1)
            stats = service.stats
            assert stats.queries == stats.computed + stats.replayed == 1
            assert isinstance(stats.cache, CacheStats)
            assert 0.0 <= stats.cache.hit_rate <= 1.0


# ----------------------------------------------------------------------
# Layer 4: soundness under interleaved mutations
# ----------------------------------------------------------------------
class TestServiceUnderMutations:
    def test_paper_figure_fixture(self, q1, g1):
        with MatchService(max_workers=2) as service:
            assert_service_update_workload_identical(
                service, q1, g1, num_ops=10, op_seed=23
            )

    @settings(max_examples=10, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=10_000),
        num_ops=st.integers(min_value=1, max_value=8),
    )
    def test_random_interleavings(self, seed, pattern_seed, op_seed, num_ops):
        data = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        with MatchService(max_workers=2) as service:
            assert_service_update_workload_identical(
                service, pattern, data, num_ops=num_ops, op_seed=op_seed,
                algorithms=("match-plus", "dual"),
            )


# ----------------------------------------------------------------------
# Single-flight deduplication of concurrent identical misses
# ----------------------------------------------------------------------
class TestSingleFlight:
    def _blocking_compute(self, entered, release, calls):
        import repro.service.executor as executor_module

        real = executor_module._COMPUTE["dual"]

        def blocking(pattern, data, engine):
            calls.append(threading.current_thread().name)
            entered.set()
            assert release.wait(timeout=30), "test never released the leader"
            return real(pattern, data, engine)

        return blocking

    def _await_coalesced(self, service, expected):
        import time

        deadline = time.monotonic() + 30
        while (
            service.stats.coalesced < expected
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert service.stats.coalesced == expected

    def test_concurrent_identical_misses_share_one_computation(
        self, monkeypatch
    ):
        """The barrier test of the single-flight contract: N concurrent
        submissions of isomorphic patterns — all missing, the leader
        parked mid-compute so every follower provably arrives *during*
        the flight — yield exactly 1 engine run and 1 store; the N-1
        followers wait and resolve as cache hits."""
        import repro.service.executor as executor_module

        graph = random_digraph(11, max_nodes=20, edge_prob=0.2)
        pattern = _label_pattern()
        n = 4
        entered, release = threading.Event(), threading.Event()
        calls = []
        monkeypatch.setitem(
            executor_module._COMPUTE,
            "dual",
            self._blocking_compute(entered, release, calls),
        )
        with MatchService(max_workers=n) as service:
            leader_future = service.submit(pattern, graph, "dual")
            assert entered.wait(timeout=30)  # the leader is computing
            followers = [
                (twin, service.submit(twin, graph, "dual"))
                for twin in (
                    permuted_pattern(pattern, i) for i in range(1, n)
                )
            ]
            self._await_coalesced(service, n - 1)  # all parked in-flight
            release.set()
            from repro.core.dualsim import dual_simulation

            expected = dual_simulation(pattern, graph).pair_set()
            assert leader_future.result(timeout=30).pair_set() == expected
            for twin, future in followers:
                # Replayed under the twin's own node names: equal to a
                # direct computation for that twin, not to the leader's.
                assert future.result(timeout=30).pair_set() == (
                    dual_simulation(twin, graph).pair_set()
                )
            assert len(calls) == 1, "duplicate engine runs raced"
            stats = service.stats
            assert stats.computed == 1 and stats.replayed == n - 1
            assert stats.coalesced == n - 1
            assert stats.cache.stores == 1
            assert stats.cache.hits == n - 1

    def test_leader_failure_elects_a_new_leader(self, monkeypatch):
        """A follower must not inherit the leader's exception: it wakes,
        misses, and runs the computation itself."""
        import repro.service.executor as executor_module

        graph = random_digraph(12, max_nodes=15, edge_prob=0.2)
        pattern = _label_pattern()
        real = executor_module._COMPUTE["dual"]
        entered, release = threading.Event(), threading.Event()
        attempts = []

        def flaky(pattern_, data, engine):
            attempts.append(1)
            if len(attempts) == 1:
                entered.set()
                assert release.wait(timeout=30)
                raise RuntimeError("injected leader failure")
            return real(pattern_, data, engine)

        monkeypatch.setitem(executor_module._COMPUTE, "dual", flaky)
        with MatchService(max_workers=2) as service:
            leader_future = service.submit(pattern, graph, "dual")
            assert entered.wait(timeout=30)
            follower_future = service.submit(
                permuted_pattern(pattern, 5), graph, "dual"
            )
            self._await_coalesced(service, 1)
            release.set()
            with pytest.raises(RuntimeError, match="injected"):
                leader_future.result(timeout=30)
            relation = follower_future.result(timeout=30)
        assert len(attempts) == 2
        twin = permuted_pattern(pattern, 5)
        assert relation.pair_set() == real(twin, graph, "auto").pair_set()

    def test_services_sharing_a_cache_share_one_computation(
        self, monkeypatch
    ):
        """The flight table lives on the cache: a miss on one service
        follows the leader another service over the same ``cache=``
        elected, so the storm costs one engine run, not one per
        service."""
        import repro.service.executor as executor_module
        from repro.core.dualsim import dual_simulation

        graph = random_digraph(11, max_nodes=20, edge_prob=0.2)
        pattern = _label_pattern()
        twin = permuted_pattern(pattern, 3)
        entered, release = threading.Event(), threading.Event()
        calls = []
        monkeypatch.setitem(
            executor_module._COMPUTE,
            "dual",
            self._blocking_compute(entered, release, calls),
        )
        cache = ResultCache()
        with MatchService(cache=cache) as one, MatchService(
            cache=cache
        ) as two:
            leader_future = one.submit(pattern, graph, "dual")
            assert entered.wait(timeout=30)  # the leader is computing
            follower_future = two.submit(twin, graph, "dual")
            self._await_coalesced(two, 1)
            release.set()
            assert leader_future.result(timeout=30).pair_set() == (
                dual_simulation(pattern, graph).pair_set()
            )
            assert follower_future.result(timeout=30).pair_set() == (
                dual_simulation(twin, graph).pair_set()
            )
        assert len(calls) == 1, "each service ran its own computation"
        assert one.stats.computed == 1 and two.stats.computed == 0
        assert two.stats.replayed == 1
        assert cache.stats.stores == 1


# ----------------------------------------------------------------------
# Ball-based edge-delta retention vs fresh recomputation
# ----------------------------------------------------------------------
class TestBallDistanceRetention:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        op_seed=st.integers(min_value=0, max_value=400),
    )
    def test_edge_deltas_stay_exact_vs_fresh_recomputation(
        self, seed, pattern_seed, op_seed
    ):
        """Random edge insertions/removals — some far from every
        candidate, some near — against warm ``match``/``match-plus``
        entries: every post-delta answer must equal a fresh direct
        computation.  A single wrongly retained entry surfaces as a
        stale hit here."""
        from repro.core.strong import match as direct_match

        graph = random_digraph(seed, max_nodes=12, edge_prob=0.25)
        # A far satellite component in a label the pattern never uses:
        # edges inside it touch no candidate.
        for i in range(4):
            graph.add_node(f"far{i}", "spare")
        graph.add_edge("far0", "far1")
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        rng = random.Random(op_seed)
        with MatchService(max_workers=1) as service:
            for _ in range(8):
                service.query(pattern, graph, "match")
                service.query(pattern, graph, "match-plus")
                nodes = list(graph.nodes())
                source, target = rng.choice(nodes), rng.choice(nodes)
                if graph.has_edge(source, target):
                    graph.remove_edge(source, target)
                else:
                    graph.add_edge(source, target)
                assert canonical_result(
                    service.query(pattern, graph, "match")
                ) == canonical_result(direct_match(pattern, graph))
                assert canonical_result(
                    service.query(pattern, graph, "match-plus")
                ) == canonical_result(match_plus(pattern, graph))
            assert service.stats.cache.retained >= 0  # counters coherent


# ----------------------------------------------------------------------
# Workload helpers: report arithmetic and the shared stream builder
# ----------------------------------------------------------------------
class TestWorkloadHelpers:
    def test_throughput_is_zero_for_an_empty_stream(self):
        # Zero queries must not read as infinite throughput, whatever
        # the clock measured around the empty replay.
        assert WorkloadReport(0, 0.0, {}, ServiceStats()).throughput == 0.0
        assert WorkloadReport(0, 1.5, {}, ServiceStats()).throughput == 0.0

    def test_throughput_inf_only_when_work_completed_instantly(self):
        report = WorkloadReport(4, 0.0, {}, ServiceStats())
        assert report.throughput == float("inf")

    def test_throughput_normal_division(self):
        assert WorkloadReport(10, 2.0, {}, ServiceStats()).throughput == 5.0

    def test_empty_replay_end_to_end(self):
        with MatchService(max_workers=1) as service:
            report, results = replay_workload(service, [])
        assert results == []
        assert report.queries == 0
        assert report.by_algorithm == {}
        assert report.throughput == 0.0

    def test_skewed_stream_counts_and_order(self, q1, g1):
        twin = permuted_pattern(q1, seed=1)
        stream = skewed_stream([q1, twin], g1, rounds=1)
        # Rank 0 repeats 2 * 2 times, rank 1 repeats 2 * 1, in order.
        assert [q.pattern for q in stream] == [q1] * 4 + [twin] * 2
        assert all(q.data is g1 for q in stream)
        assert all(q.algorithm == "match-plus" for q in stream)
        two_rounds = skewed_stream(
            [q1, twin], g1, algorithm="match", rounds=2
        )
        assert [q.pattern for q in two_rounds] == ([q1] * 4 + [twin] * 2) * 2
        assert all(q.algorithm == "match" for q in two_rounds)


# ----------------------------------------------------------------------
# Engine-independent cache keys: the auto-resolution flip stays warm
# ----------------------------------------------------------------------
class TestEngineIndependentKeys:
    def test_explicit_engines_share_one_entry(self, q1, g1):
        with MatchService(max_workers=1) as service:
            first = service.query(q1, g1, "match", engine="python")
            second = service.query(q1, g1, "match", engine="kernel")
            assert service.stats.computed == 1
            assert service.stats.replayed == 1
            assert canonical_result(first) == canonical_result(second)
