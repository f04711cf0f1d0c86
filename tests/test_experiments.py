"""Tests for the experiment harnesses (metrics, quality, performance, tables)."""

from dataclasses import replace

import pytest

from repro.core.engines import CELLS, ENGINE_TABLE
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.strong import match
from repro.datasets import generate_amazon, generate_graph
from repro.datasets.paper_figures import data_g2, pattern_q2
from repro.experiments import (
    AlgorithmOutcome,
    closeness,
    outcome_from_match_result,
    outcome_from_relation,
    render_closeness_figure,
    render_subgraph_count_figure,
    render_table,
    render_table3,
    render_timing_figure,
    run_quality,
    size_histogram,
    sweep_data_sizes,
    sweep_pattern_sizes,
    sweep_timing,
    time_algorithms,
)
from repro.datasets.patterns import sample_pattern_from_data


class TestMetrics:
    def test_closeness_definition(self):
        outcome = AlgorithmOutcome("X", frozenset({1, 2, 3, 4}), 1, (4,))
        assert closeness({1, 2}, outcome) == pytest.approx(0.5)

    def test_closeness_perfect(self):
        outcome = AlgorithmOutcome("X", frozenset({1, 2}), 1, (2,))
        assert closeness({1, 2}, outcome) == pytest.approx(1.0)

    def test_closeness_empty_both(self):
        outcome = AlgorithmOutcome("X", frozenset(), 0, ())
        assert closeness(set(), outcome) == 1.0

    def test_closeness_algorithm_found_nothing(self):
        outcome = AlgorithmOutcome("X", frozenset(), 0, ())
        assert closeness({1}, outcome) == 0.0

    def test_closeness_clamped_to_one(self):
        # Approximate algorithms can report fewer nodes than VF2.
        outcome = AlgorithmOutcome("X", frozenset({1}), 1, (1,))
        assert closeness({1, 2, 3}, outcome) == 1.0

    def test_outcome_from_match_result(self):
        result = match(pattern_q2(), data_g2())
        outcome = outcome_from_match_result(result)
        assert outcome.num_matched_subgraphs == len(result)
        assert "book2" in outcome.matched_nodes

    def test_outcome_from_relation(self):
        pattern = pattern_q2()
        rel = MatchRelation.from_pairs(pattern, [("B", "book1"), ("ST", "s")])
        outcome = outcome_from_relation(rel)
        assert outcome.num_matched_subgraphs is None
        assert outcome.subgraph_sizes == (2,)

    def test_size_histogram_bins(self):
        hist = size_histogram((3, 12, 12, 55), bin_width=10, num_bins=5)
        assert hist["[0, 9]"] == 1
        assert hist["[10, 19]"] == 2
        assert hist[">= 50"] == 1
        assert hist["[20, 29]"] == 0


class TestQualityHarness:
    @pytest.fixture(scope="class")
    def small_amazon(self):
        return generate_amazon(250, num_labels=10, seed=1)

    def test_run_quality_outcome_names(self, small_amazon):
        pattern = sample_pattern_from_data(small_amazon, 4, seed=0)
        run = run_quality(pattern, small_amazon)
        assert set(run.outcomes) == {"VF2", "Match", "Sim", "TALE", "MCS"}
        assert run.closeness_of("VF2") == 1.0

    def test_match_contains_vf2_nodes(self, small_amazon):
        """Proposition 1 surfaced in the harness: VF2 nodes ⊆ Match nodes."""
        pattern = sample_pattern_from_data(small_amazon, 5, seed=1)
        run = run_quality(pattern, small_amazon)
        assert run.reference_nodes <= run.outcomes["Match"].matched_nodes
        assert run.outcomes["Match"].matched_nodes <= run.outcomes[
            "Sim"
        ].matched_nodes

    def test_sweep_pattern_sizes(self, small_amazon):
        sweep = sweep_pattern_sizes(small_amazon, [2, 4], seed=0)
        assert sweep.axis_values == [2, 4]
        series = sweep.closeness_series()
        assert all(len(v) == 2 for v in series.values())
        counts = sweep.subgraph_count_series()
        assert "Sim" not in counts

    def test_sweep_data_sizes(self):
        sweep = sweep_data_sizes(
            lambda n: generate_amazon(n, num_labels=8, seed=2),
            [100, 200],
            pattern_size=4,
            seed=0,
        )
        assert sweep.axis_values == [100, 200]
        assert len(sweep.runs) == 2

    def test_mean_closeness_ordering(self, small_amazon):
        """The headline Exp-1 shape: Match beats the approximate matchers,
        which beat Sim, on average."""
        sweep = sweep_pattern_sizes(small_amazon, [3, 4, 5, 6], seed=5)
        means = sweep.mean_closeness()
        assert means["Match"] >= means["Sim"]
        assert means["Match"] >= means["TALE"]


class TestReferenceReliability:
    def test_embedding_cap_marks_run_unreliable(self):
        data = generate_graph(40, alpha=1.3, num_labels=2, seed=6)
        pattern = sample_pattern_from_data(data, 3, seed=0)
        assert pattern is not None
        run = run_quality(pattern, data, vf2_max_matches=1)
        assert run.vf2_exhausted

    def test_reliable_only_mean_skips_truncated_runs(self):
        from repro.experiments.quality import QualitySweep

        data = generate_graph(40, alpha=1.3, num_labels=2, seed=6)
        pattern = sample_pattern_from_data(data, 3, seed=0)
        good = run_quality(pattern, data)
        bad = run_quality(pattern, data, vf2_max_matches=1)
        sweep = QualitySweep(axis_name="|Vq|")
        sweep.add(3, good)
        sweep.add(3, bad)
        assert sweep.reliable_run_count() == 1
        reliable = sweep.mean_closeness(reliable_only=True)
        assert reliable["Match"] == pytest.approx(good.closeness_of("Match"))

    def test_state_budget_marks_run_unreliable(self):
        data = generate_graph(60, alpha=1.3, num_labels=2, seed=7)
        pattern = sample_pattern_from_data(data, 5, seed=1)
        assert pattern is not None
        run = run_quality(pattern, data, vf2_max_states=3)
        assert run.vf2_exhausted


class TestPerformanceHarness:
    def test_time_algorithms_keys(self):
        data = generate_graph(60, alpha=1.1, num_labels=5, seed=1)
        pattern = sample_pattern_from_data(data, 3, seed=0)
        run = time_algorithms(pattern, data, include_vf2=True)
        assert set(run.seconds) == {"Sim", "Match", "Match+", "VF2"}
        assert all(
            sec is None or sec >= 0 for sec in run.seconds.values()
        )

    def test_time_algorithms_runs_the_reference_row(self, monkeypatch):
        """Fig. 8 compares algorithms, so Sim, Match and Match+ each run
        once on the python row and no other row is touched."""
        calls = []

        def spy(row, cell, fn):
            def wrapped(*args, **kwargs):
                calls.append((row, cell))
                return fn(*args, **kwargs)

            return wrapped

        for name, row in ENGINE_TABLE.items():
            spied = {c: spy(name, c, getattr(row, c)) for c in CELLS}
            monkeypatch.setitem(ENGINE_TABLE, name, replace(row, **spied))
        data = generate_graph(60, alpha=1.1, num_labels=5, seed=1)
        pattern = sample_pattern_from_data(data, 3, seed=0)
        time_algorithms(pattern, data)
        assert sorted(calls) == [
            ("python", "match"),
            ("python", "match_plus"),
            ("python", "sim"),
        ]

    def test_vf2_skipped_when_disabled(self):
        data = generate_graph(60, alpha=1.1, num_labels=5, seed=1)
        pattern = sample_pattern_from_data(data, 3, seed=0)
        run = time_algorithms(pattern, data, include_vf2=False)
        assert run.seconds["VF2"] is None

    def test_sweep_timing(self):
        def pair_for(value, repeat):
            data = generate_graph(
                int(value), alpha=1.1, num_labels=5, seed=repeat
            )
            pattern = sample_pattern_from_data(data, 3, seed=repeat)
            if pattern is None:
                return None
            return pattern, data

        sweep = sweep_timing("|V|", [40, 80], pair_for, repeats=2)
        assert sweep.axis_values == [40, 80]
        series = sweep.series()
        assert len(series["Match"]) == 2
        assert all(sec is not None for sec in series["Match"])

    def test_speedup_ratios(self):
        def pair_for(value, repeat):
            data = generate_graph(
                int(value), alpha=1.15, num_labels=4, seed=3
            )
            pattern = sample_pattern_from_data(data, 4, seed=3)
            return (pattern, data) if pattern else None

        sweep = sweep_timing("|V|", [120], pair_for)
        ratios = sweep.speedup_match_plus()
        assert all(r > 0 for r in ratios)


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(
            "demo", "x", [1, 2], {"col": [0.5, 1.0], "other": [3, None]}
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "x" in lines[1] and "col" in lines[1]
        assert "-" in lines[2]
        assert "0.500" in lines[3]
        assert lines[4].rstrip().endswith("-")

    def test_render_closeness_figure(self):
        g = generate_amazon(150, num_labels=8, seed=0)
        sweep = sweep_pattern_sizes(g, [3], seed=0)
        text = render_closeness_figure("fig", sweep)
        assert "VF2" in text and "Match" in text and "Sim" in text

    def test_render_subgraph_count_figure(self):
        g = generate_amazon(150, num_labels=8, seed=0)
        sweep = sweep_pattern_sizes(g, [3], seed=0)
        text = render_subgraph_count_figure("fig", sweep)
        assert "Sim" not in text.splitlines()[1]

    def test_render_timing_figure(self):
        def pair_for(value, repeat):
            data = generate_graph(40, alpha=1.1, num_labels=4, seed=0)
            pattern = sample_pattern_from_data(data, 3, seed=0)
            return (pattern, data) if pattern else None

        sweep = sweep_timing("|V|", [40], pair_for)
        text = render_timing_figure("fig8", sweep)
        assert "Match+" in text

    def test_render_table3(self):
        text = render_table3(
            "Table 3", {"Amazon": (5, 15, 25), "YouTube": (12,)}
        )
        assert "[0, 9]" in text
        assert "Amazon" in text and "YouTube" in text
