"""Future-work bench: incremental maintenance vs full recomputation.

Section 6 motivates incremental methods by "(frequent) changes to
real-life graphs".  This bench streams edge updates into an
:class:`IncrementalMatcher` and compares against re-running ``Match+``
from scratch after every update — the baseline a system without
incremental support would pay.
"""

import random

import pytest

from repro.core.incremental import IncrementalDualSimulation, IncrementalMatcher
from repro.core.dualsim import dual_simulation
from repro.core.matchplus import match_plus
from repro.datasets import generate_amazon
from repro.datasets.patterns import sample_pattern_from_data
from repro.experiments import render_table
from repro.utils.timer import timed
from benchmarks.conftest import emit


def test_incremental_vs_recompute(benchmark, scale):
    data = generate_amazon(800, num_labels=scale["labels"], seed=53)
    pattern = sample_pattern_from_data(data, 5, seed=901)
    assert pattern is not None
    rng = random.Random(99)
    nodes = list(data.nodes())
    updates = []
    for _ in range(20):
        u, v = rng.choice(nodes), rng.choice(nodes)
        if u != v:
            updates.append((u, v))

    # Incremental path.
    inc_data = data.copy()
    matcher = IncrementalMatcher(pattern, inc_data)
    construction_balls = matcher.balls_recomputed
    _, inc_seconds = timed(lambda: _apply_updates_incremental(matcher, updates))

    # Recompute path.
    batch_data = data.copy()
    _, batch_seconds = timed(
        lambda: _apply_updates_recompute(pattern, batch_data, updates)
    )

    # Same final answer.
    final_batch = {sg.signature() for sg in match_plus(pattern, batch_data)}
    final_inc = {sg.signature() for sg in matcher.result()}
    assert final_inc == final_batch

    emit(
        "incremental_updates",
        render_table(
            "Incremental strong simulation vs recompute "
            f"(20 edge updates, Amazon surrogate {data.num_nodes} nodes)",
            "strategy",
            ["incremental (affected balls)", "recompute (Match+ per update)"],
            {"seconds": [inc_seconds, batch_seconds],
             "balls recomputed": [
                 matcher.balls_recomputed - construction_balls, "-"
             ]},
        ),
    )

    # Dual-simulation deletions are the paper's 'easy direction': measure
    # the cascade alone as the benchmarked unit.
    def deletion_cascade():
        inc = IncrementalDualSimulation(pattern, data.copy())
        for u, v in list(data.edges())[:5]:
            inc.remove_edge(u, v)
        return inc.relation

    benchmark(deletion_cascade)


def _apply_updates_incremental(matcher, updates):
    for u, v in updates:
        if matcher.data.has_edge(u, v):
            matcher.remove_edge(u, v)
        else:
            matcher.add_edge(u, v)


def _apply_updates_recompute(pattern, data, updates):
    results = []
    for u, v in updates:
        if data.has_edge(u, v):
            data.remove_edge(u, v)
        else:
            data.add_edge(u, v)
        results.append(match_plus(pattern, data))
    return results
