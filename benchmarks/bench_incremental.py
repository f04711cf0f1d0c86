"""Future-work bench: incremental maintenance vs full recomputation.

Section 6 motivates incremental methods by "(frequent) changes to
real-life graphs".  This bench streams 20 edge updates into an
:class:`IncrementalMatcher` (incremental ``Match+``) and compares against
re-running ``Match+`` from scratch after every update — the baseline a
system without incremental support would pay — on the ``python`` and
``kernel`` engines and on the default ``auto``.  Each row reports the
median of ``RUNS`` runs, each on a fresh copy of the graph, and the
balls the matcher refined; every row's final Θ must equal
``match_plus``'s.  No timing is asserted.

Run:  PYTHONPATH=src python -m pytest -q benchmarks/bench_incremental.py -s
"""

import random
from statistics import median

from repro.core.incremental import IncrementalDualSimulation, IncrementalMatcher
from repro.core.kernel import resolve_engine
from repro.core.matchplus import match_plus
from repro.datasets import generate_amazon
from repro.datasets.patterns import sample_pattern_from_data
from repro.experiments import render_table
from repro.utils.timer import timed
from benchmarks.conftest import emit

ENGINES = ("python", "kernel", "auto")
RUNS = 5


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

    rows = {engine: _time_engine(pattern, data, updates, engine)
            for engine in ENGINES}

    def column(key, fmt="{:.1f}"):
        return [fmt.format(median(rows[e][key])) for e in ENGINES]

    emit(
        "incremental_updates",
        render_table(
            "Incremental Match+ vs recompute (20 edge updates, Amazon "
            f"surrogate |V|={data.num_nodes} |E|={data.num_edges}, "
            f"|Vq|={pattern.num_nodes} d_Q={pattern.diameter}; "
            f"median of {RUNS} runs, ms)",
            "engine",
            [f"auto ({resolve_engine('auto', data)})" if e == "auto" else e
             for e in ENGINES],
            {
                "updates": column("update_ms"),
                "recompute": column("recompute_ms"),
                "construction": column("construction_ms"),
                "construction balls": column("construction_balls", "{:.0f}"),
                "update balls": column("update_balls", "{:.0f}"),
                "final |Θ|": column("final_size", "{:.0f}"),
            },
        ),
        payload={"runs": rows},
    )

    # Dual-simulation deletions are the paper's 'easy direction': measure
    # the cascade alone as the benchmarked unit.
    def deletion_cascade():
        inc = IncrementalDualSimulation(pattern, data.copy())
        for u, v in list(data.edges())[:5]:
            inc.remove_edge(u, v)
        return inc.relation

    benchmark(deletion_cascade)


def _time_engine(pattern, data, updates, engine):
    """``RUNS`` timed runs of both strategies on fresh copies of ``data``."""
    runs = {key: [] for key in (
        "update_ms", "recompute_ms", "construction_ms",
        "construction_balls", "update_balls", "final_size",
    )}
    for _ in range(RUNS):
        matcher, construction_s = timed(
            lambda: IncrementalMatcher(pattern, data.copy(), engine=engine)
        )
        construction_balls = matcher.balls_recomputed
        _, update_s = timed(
            lambda: _apply_updates_incremental(matcher, updates)
        )
        batch_data = data.copy()
        _, recompute_s = timed(
            lambda: _apply_updates_recompute(
                pattern, batch_data, updates, engine
            )
        )
        # Same final answer as Match+ on the updated graph.
        final_batch = {
            sg.signature()
            for sg in match_plus(pattern, batch_data, engine=engine)
        }
        final_inc = {sg.signature() for sg in matcher.result()}
        assert final_inc == final_batch
        runs["update_ms"].append(update_s * 1e3)
        runs["recompute_ms"].append(recompute_s * 1e3)
        runs["construction_ms"].append(construction_s * 1e3)
        runs["construction_balls"].append(construction_balls)
        runs["update_balls"].append(
            matcher.balls_recomputed - construction_balls
        )
        runs["final_size"].append(len(final_inc))
    return runs


def _apply_updates_incremental(matcher, updates):
    for u, v in updates:
        if matcher.data.has_edge(u, v):
            matcher.remove_edge(u, v)
        else:
            matcher.add_edge(u, v)


def _apply_updates_recompute(pattern, data, updates, engine):
    results = []
    for u, v in updates:
        if data.has_edge(u, v):
            data.remove_edge(u, v)
        else:
            data.add_edge(u, v)
        results.append(match_plus(pattern, data, engine=engine))
    return results
