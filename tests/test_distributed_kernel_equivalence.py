"""Cross-engine differential tests: distributed protocol + all entry points.

The contract under test (via the :mod:`tests.engines` harness): for every
entry point — ``match``, ``match_plus``, ``graph_simulation``,
``dual_simulation`` and ``Cluster.run`` — the ``"kernel"`` and
``"python"`` engines are *output-identical*.  For the distributed
protocol that identity is three-fold: the deduplicated result set Θ, the
per-site partial-subgraph counts, and the complete message-bus
accounting (message count, units per kind, units per directed link —
hence also the Section 4.3 data-shipment volume).

A cluster's engine selects nothing (every site runs the reference
per-ball step), so its rows here also pin that.

The distributed dual filter gets its own checks below: each site's
surviving centers are its nodes of the centralized dual-simulation
relation, each site's partial count is what centralized ``Match``
finds from that site's centers, and a hand-built removal chain that
crosses the cut three times logs exactly its ``filter`` charges.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Dict, List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import DiGraph
from repro.core.dualsim import dual_simulation
from repro.core.pattern import Pattern
from repro.core.strong import match, match_reference
from repro.distributed import (
    PARTITIONERS,
    Cluster,
    bfs_partition,
    crossing_ball_bound,
    hash_partition,
)
from repro.distributed.worker import SiteWorker
from repro.datasets.paper_figures import data_g1, pattern_q1
from repro.datasets.patterns import sample_pattern_from_data

from tests.conftest import (
    graph_seeds,
    pattern_seeds,
    random_connected_pattern,
    random_digraph,
)
from tests.engines import (
    CENTRALIZED_ENTRY_POINTS,
    ENGINES,
    assert_all_entry_points_identical,
    assert_entry_point_identical,
    available_backends,
    canonical_result,
    cluster_observation,
    run_entry_point,
)

def random_assignment(data, num_sites: int, seed: int):
    """An arbitrary (not locality-aware) node-to-site assignment."""
    rng = random.Random(seed)
    return {node: rng.randrange(num_sites) for node in data.nodes()}


# ----------------------------------------------------------------------
# Centralized entry points over the fixture corpus
# ----------------------------------------------------------------------
class TestCentralizedEntryPoints:
    @pytest.mark.parametrize("name", CENTRALIZED_ENTRY_POINTS)
    def test_paper_figure(self, name, q1, g1):
        assert_entry_point_identical(name, q1, g1)

    @pytest.mark.parametrize("name", CENTRALIZED_ENTRY_POINTS)
    def test_small_synthetic(self, name, small_synthetic):
        for seed in range(4):
            pattern = sample_pattern_from_data(small_synthetic, 4, seed=seed)
            if pattern is None:
                continue
            assert_entry_point_identical(name, pattern, small_synthetic)

    @pytest.mark.parametrize("name", CENTRALIZED_ENTRY_POINTS)
    @settings(max_examples=25, deadline=None)
    @given(seed=graph_seeds, pattern_seed=pattern_seeds)
    def test_random_graphs(self, name, seed, pattern_seed):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=4)
        assert_entry_point_identical(name, pattern, data)


# ----------------------------------------------------------------------
# Distributed protocol: fixtures × partitioners × site counts
# ----------------------------------------------------------------------
class TestClusterEquivalence:
    @pytest.mark.parametrize("num_sites", [1, 2, 3, 5])
    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_paper_figure_full_matrix(self, partitioner, num_sites):
        pattern, data = pattern_q1(), data_g1(4)
        assignment = PARTITIONERS[partitioner](data, num_sites)
        assert_entry_point_identical(
            "cluster_run",
            pattern,
            data,
            assignment=assignment,
            num_sites=num_sites,
        )

    @pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
    def test_synthetic_all_partitioners(self, partitioner, small_synthetic):
        pattern = sample_pattern_from_data(small_synthetic, 4, seed=2)
        assert pattern is not None
        assignment = PARTITIONERS[partitioner](small_synthetic, 3)
        assert_all_entry_points_identical(
            pattern,
            small_synthetic,
            assignment=assignment,
            num_sites=3,
        )

    def test_kernel_cluster_matches_centralized_and_bound(
        self, small_synthetic
    ):
        """The kernel cluster returns the centralized Θ and respects the
        Section 4.3 shipment bound, like the reference cluster."""
        pattern = sample_pattern_from_data(small_synthetic, 4, seed=3)
        assert pattern is not None
        central = canonical_result(
            match(pattern, small_synthetic, engine="python")
        )
        assignment = hash_partition(small_synthetic, 4)
        bound = crossing_ball_bound(
            small_synthetic, assignment, pattern.diameter
        )
        for engine in ENGINES:
            cluster = Cluster(small_synthetic, assignment, 4, engine=engine)
            report = cluster.run(pattern)
            assert canonical_result(report.result) == central
            assert report.data_shipment_units <= bound

    def test_multi_query_cluster_stays_in_lockstep(self, small_synthetic):
        """Across several queries on one long-lived cluster, every
        engine re-fetches after the per-query cache clear, so the
        *cumulative* accounting stays identical (no record one query
        paid for may leak into the next)."""
        patterns = [
            sample_pattern_from_data(small_synthetic, size, seed=seed)
            for size, seed in ((3, 1), (4, 2), (3, 1))
        ]
        assignment = bfs_partition(small_synthetic, 3)
        clusters = {
            engine: Cluster(small_synthetic, assignment, 3, engine=engine)
            for engine in ENGINES
        }
        for pattern in patterns:
            assert pattern is not None
            observations = {
                engine: cluster_observation(clusters[engine].run(pattern))
                for engine in ENGINES
            }
            reference = observations[ENGINES[0]]
            for engine in ENGINES[1:]:
                assert observations[engine] == reference

    def test_invalid_engine_rejected_before_running(self, small_synthetic):
        assignment = hash_partition(small_synthetic, 2)
        with pytest.raises(ValueError):
            Cluster(small_synthetic, assignment, 2, engine="fortran")
        pattern = sample_pattern_from_data(small_synthetic, 3, seed=5)
        assert pattern is not None
        # "numpy" is a real engine now: accepted and output-identical.
        numpy_cluster = Cluster(small_synthetic, assignment, 2, engine="numpy")
        kernel_cluster = Cluster(small_synthetic, assignment, 2, engine="kernel")
        assert cluster_observation(numpy_cluster.run(pattern)) == (
            cluster_observation(kernel_cluster.run(pattern))
        )


# ----------------------------------------------------------------------
# Randomized distributed equivalence (hypothesis shrinks over seeds)
# ----------------------------------------------------------------------
class TestRandomizedClusterEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        num_sites=st.integers(min_value=1, max_value=4),
    )
    def test_random_graphs_random_assignments(
        self, seed, pattern_seed, num_sites
    ):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        assignment = random_assignment(data, num_sites, seed + pattern_seed)
        assert_entry_point_identical(
            "cluster_run",
            pattern,
            data,
            assignment=assignment,
            num_sites=num_sites,
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=graph_seeds, num_sites=st.integers(min_value=2, max_value=4))
    def test_sampled_pattern_nonempty_results(self, seed, num_sites):
        """Bias toward runs that actually produce matches: patterns
        sampled from the data graph itself."""
        data = random_digraph(seed, max_nodes=14, edge_prob=0.3)
        pattern = sample_pattern_from_data(data, 3, seed=seed)
        if pattern is None:
            pattern = random_connected_pattern(seed, max_nodes=3)
        assignment = random_assignment(data, num_sites, seed * 31 + 7)
        observed = {
            engine: run_entry_point(
                "cluster_run",
                engine,
                pattern,
                data,
                assignment=assignment,
                num_sites=num_sites,
            )
            for engine in ENGINES
        }
        reference = observed[ENGINES[0]]
        for engine in ENGINES[1:]:
            assert observed[engine] == reference
        # And the distributed result agrees with centralized Match.
        assert reference["result"] == canonical_result(
            match(pattern, data, engine="python")
        )


# ----------------------------------------------------------------------
# The distributed dual filter
# ----------------------------------------------------------------------
@contextmanager
def recorded_centers():
    """The centers each in-process site evaluates, by site."""
    seen: Dict[int, List] = {}
    original = SiteWorker._match_balls

    def spy(self, pattern, radius, centers):
        seen[self.fragment.site_id] = list(centers)
        return original(self, pattern, radius, centers)

    with mock.patch.object(SiteWorker, "_match_balls", spy):
        yield seen


def ping_pong_fixture():
    """Two sites; one removal crosses the cut, comes back, crosses again.

    ``a0 <-> b0`` is a stable cycle on site 0 for the 2-cycle pattern.
    The chain ``a0 -> b1 -> a2 -> b2`` alternates sites; ``b2`` has no
    child, so it loses its candidate (site 1 tells site 0), then ``a2``
    (site 0 tells site 1), then ``b1`` (site 1 tells site 0).  ``a0``
    keeps its candidate through ``b0``.
    """
    data = DiGraph.from_parts(
        {"a0": "A", "b0": "B", "b1": "B", "a2": "A", "b2": "B"},
        [("a0", "b0"), ("b0", "a0"), ("a0", "b1"), ("b1", "a2"),
         ("a2", "b2")],
    )
    assignment = {"a0": 0, "b0": 0, "a2": 0, "b1": 1, "b2": 1}
    pattern = Pattern.build({"u1": "A", "u2": "B"},
                            [("u1", "u2"), ("u2", "u1")])
    return pattern, data, assignment


class TestDistributedDualFilter:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=graph_seeds,
        pattern_seed=pattern_seeds,
        num_sites=st.integers(min_value=1, max_value=4),
        sampled=st.booleans(),
    )
    def test_survivors_are_the_global_dual_relation(
        self, seed, pattern_seed, num_sites, sampled
    ):
        data = random_digraph(seed, max_nodes=14, edge_prob=0.3)
        pattern = None
        if sampled:
            pattern = sample_pattern_from_data(data, 3, seed=pattern_seed)
        if pattern is None:
            pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        assignment = random_assignment(data, num_sites, seed ^ pattern_seed)
        relation = dual_simulation(pattern, data)
        related = set().union(
            *(relation.matches_of_raw(u) for u in relation.pattern_nodes())
        )
        for engine in ENGINES:
            cluster = Cluster(data, assignment, num_sites, engine=engine)
            with recorded_centers() as centers:
                report = cluster.run(pattern)
            for site, worker in cluster.workers.items():
                owned = list(worker.fragment.labels)
                # Survivors, in fragment order: the owned nodes of the
                # centralized relation (collapse included).
                assert centers[site] == [v for v in owned if v in related]
                # An oracle that does not use the filter: centralized
                # Match from each owned center.
                assert report.per_site_subgraphs[site] == sum(
                    len(match_reference(pattern, data, pattern.diameter, [v]))
                    for v in owned
                )

    @pytest.mark.parametrize("backend", available_backends())
    @pytest.mark.parametrize("engine", ENGINES)
    def test_removal_chain_crossing_the_cut_three_times(
        self, engine, backend
    ):
        pattern, data, assignment = ping_pong_fixture()
        with Cluster(
            data, assignment, 2, engine=engine, backend=backend
        ) as cluster:
            report = cluster.run(pattern)
        filter_log = [e for e in report.query_log if e[2] == "filter"]
        assert filter_log == [
            # Round 0: border candidates a0, a2 and b1, b2 announced.
            (0, 1, "filter", 2),
            (1, 0, "filter", 2),
            # Rounds 1-3: b2 loses u2, a2 loses u1, b1 loses u2.
            (1, 0, "filter", 1),
            (0, 1, "filter", 1),
            (1, 0, "filter", 1),
        ]
        # Only the stable cycle survives: both of its balls match.
        assert report.per_site_subgraphs == {0: 2, 1: 0}
        assert canonical_result(report.result) == canonical_result(
            match(pattern, data, engine="python")
        )
