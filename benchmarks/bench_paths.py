"""Path matching: CSR kernel vs reference + equivalence gate.

Bounded simulation and regular (regex-constrained) matching answered
by the kernel's witness-check fixpoint — one multi-source BFS per
fixpoint pop over the compiled CSR rows for every bound other than 1
and every global ``.*`` edge, memoized lazy-DFA walks for general
regexes — versus the reference per-candidate BFS / NFA walks.  Three
sections:

* **bounded** — ``bounded_simulation`` over Figure-8(g)-shaped synthetic
  graphs at |V|=2500 (smoke: 600) with mixed per-edge bounds
  ``{1, 2, 3, unbounded}``, python vs kernel, summed over sampled
  patterns.  Gated at >= 2x kernel-over-reference at small scale (the
  full ``large`` profile targets >= 5x — record, don't gate, since CI
  only runs small);
* **insertion stream** — a warm index carried through single-edge
  insertions with a kernel requery after each: the CSR rows are
  patched in place and no path query builds the 2-hop labels
  (``reach_builds == 0`` after priming and across the stream,
  ``full_compiles`` unchanged), with the final relation checked
  against a cold reference run;
* **regular** — ``regular_dual_simulation`` and ``regular_strong_match``
  with wildcard + regex edge constraints, python vs kernel; plus the
  ``strong/optional`` row, ``regular_strong_match`` on perfbench
  paths-mixed's regular query shape (sampled 3-node patterns, ``.?``
  on every edge, hop bound 2), summed over the sampled patterns.  That
  row times the kernel's ball step on path checks (Match+'s border
  seeding by hop reach, global walks read where they stay in the
  ball); it is recorded, not gated.

Every timed pair is an equivalence check first: the kernel result must
be identical (canonical pair-set / signature form) to the reference.
Emits ``benchmarks/results/bench_paths.txt`` and machine-readable
``benchmarks/results/BENCH_paths.json``.

Set ``REPRO_KERNEL_BENCH_SMOKE=1`` to shrink the sizes (CI smoke mode;
no speedup assertion, equivalence still enforced).
"""

from __future__ import annotations

import os
from typing import Dict, List

from benchmarks.conftest import best_of, emit, emit_result
from repro.core.bounded import BoundedPattern, bounded_simulation
from repro.core.kernel import get_index
from repro.core.regular import (
    RegularPattern,
    hop_bounded_pattern,
    regular_dual_simulation,
    regular_strong_match,
)
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.experiments.performance import random_insertion_stream

PATTERN_SIZE = 6
PATTERN_REPEATS = 3
TIMING_REPS = 3
BOUND_CYCLE = (1, 2, 3, None)
#: Few labels -> large per-label candidate sets, the regime where the
#: reference path's per-candidate BFS dominates (same choice as the
#: numpy section of bench_kernel).
PATHS_BENCH_LABELS = 10
BOUNDED_SMALL_SCALE_BAR = 2.0
BOUNDED_LARGE_SCALE_TARGET = 5.0
STREAM_UPDATES_SMOKE = 8
STREAM_UPDATES = 30
REGULAR_CONSTRAINT_CYCLE = (".*", "l0*", "(l0|l1)*")
#: perfbench paths-mixed's regular query shape.
OPTIONAL_PATTERN_SIZE = 3
OPTIONAL_CONSTRAINT = ".?"
OPTIONAL_BOUND = 2


def _mixed_bounds(pattern) -> Dict:
    edges = sorted(pattern.edges(), key=repr)
    return {
        edge: BOUND_CYCLE[i % len(BOUND_CYCLE)]
        for i, edge in enumerate(edges)
    }


def _result_canonical(result) -> frozenset:
    return frozenset(
        (sg.signature(), sg.relation.pair_set()) for sg in result
    )


def _timing_row(times: Dict[str, float]) -> Dict:
    return {
        "python_s": round(times["python"], 6),
        "kernel_s": round(times["kernel"], 6),
        "speedup": (
            round(times["python"] / times["kernel"], 3)
            if times["kernel"]
            else None
        ),
    }


def test_paths_kernel_vs_reference(scale):
    smoke = os.environ.get("REPRO_KERNEL_BENCH_SMOKE") == "1"

    # ------------------------------------------------------------------
    # Bounded simulation: mixed bounds, python vs kernel.
    # ------------------------------------------------------------------
    bounded_n = 600 if smoke else 2500
    data = generate_graph(
        bounded_n, alpha=1.2, num_labels=PATHS_BENCH_LABELS, seed=83
    )
    times = {"python": 0.0, "kernel": 0.0}
    patterns_used = 0
    for repeat in range(PATTERN_REPEATS):
        pattern = sample_pattern_from_data(
            data, PATTERN_SIZE, seed=811 + repeat
        )
        if pattern is None:
            continue
        patterns_used += 1
        bp = BoundedPattern(pattern, _mixed_bounds(pattern))
        reference = bounded_simulation(bp, data, engine="python").pair_set()
        assert bounded_simulation(
            bp, data, engine="kernel"
        ).pair_set() == reference, (
            f"bounded kernel diverged at |V|={bounded_n}, repeat={repeat}"
        )
        for engine in times:
            times[engine] += best_of(
                lambda engine=engine: bounded_simulation(
                    bp, data, engine=engine
                ),
                TIMING_REPS,
            )
    assert patterns_used > 0
    bounded_speedup = (
        round(times["python"] / times["kernel"], 3)
        if times["kernel"]
        else None
    )
    reach_builds = get_index(data).stats.reach_builds
    bounded_section = {
        "workload": (
            f"bounded_simulation, synthetic |V|={bounded_n}, alpha=1.2, "
            f"{PATHS_BENCH_LABELS} labels, |Vq|={PATTERN_SIZE}, "
            f"bounds cycled over {[str(b) for b in BOUND_CYCLE]}"
        ),
        "n": bounded_n,
        "patterns": patterns_used,
        "python_s": round(times["python"], 6),
        "kernel_s": round(times["kernel"], 6),
        "speedup": bounded_speedup,
        "reach_builds": reach_builds,
        "large_scale_target": (
            f">= {BOUNDED_LARGE_SCALE_TARGET}x (recorded, gated only at "
            f"small scale: >= {BOUNDED_SMALL_SCALE_BAR}x)"
        ),
    }

    # ------------------------------------------------------------------
    # Insertion stream: rows patched in place, no labels ever built.
    # ------------------------------------------------------------------
    stream_updates = STREAM_UPDATES_SMOKE if smoke else STREAM_UPDATES
    stream_n = 300 if smoke else 1000
    stream_data = generate_graph(
        stream_n, alpha=1.2, num_labels=PATHS_BENCH_LABELS, seed=89
    )
    stream_pattern = sample_pattern_from_data(stream_data, 4, seed=821)
    assert stream_pattern is not None
    stream_bp = BoundedPattern(stream_pattern, _mixed_bounds(stream_pattern))
    # Prime: compile the graph index once.
    bounded_simulation(stream_bp, stream_data, engine="kernel")
    stats = get_index(stream_data).stats
    assert stats.reach_builds == 0, (
        f"priming built the 2-hop labels {stats.reach_builds} time(s); "
        "no path query may build them"
    )
    compiles_after_priming = stats.full_compiles
    stream = random_insertion_stream(stream_data, stream_updates, seed=5)

    def run_stream():
        for source, target in stream:
            stream_data.add_edge(source, target)
            bounded_simulation(stream_bp, stream_data, engine="kernel")

    import time as _time

    start = _time.perf_counter()
    run_stream()
    stream_s = _time.perf_counter() - start
    stats = get_index(stream_data).stats
    assert stats.reach_builds == 0, (
        f"pure-insertion stream built the 2-hop labels "
        f"{stats.reach_builds} time(s); no path query may build them"
    )
    assert stats.full_compiles == compiles_after_priming, (
        f"pure-insertion stream recompiled the index "
        f"{stats.full_compiles - compiles_after_priming} time(s); "
        "insertions must patch the CSR rows in place"
    )
    # Final-state equivalence against a cold reference run.
    warm = bounded_simulation(stream_bp, stream_data, engine="kernel")
    cold = bounded_simulation(stream_bp, stream_data, engine="python")
    assert warm.pair_set() == cold.pair_set(), (
        "warm patched index diverged from the cold reference after the "
        "insertion stream"
    )
    stream_section = {
        "workload": (
            f"{stream_updates} single-edge insertions + kernel requery "
            f"each, synthetic |V|={stream_n}"
        ),
        "n": stream_n,
        "updates": stream_updates,
        "seconds": round(stream_s, 6),
        "amortized_update_ms": round(stream_s / stream_updates * 1e3, 4),
        "reach_builds": stats.reach_builds,
        "full_compiles": stats.full_compiles,
    }

    # ------------------------------------------------------------------
    # Regular matching: wildcard + regex constraints, python vs kernel.
    # ------------------------------------------------------------------
    regular_n = 300 if smoke else 800
    reg_data = generate_graph(
        regular_n, alpha=1.2, num_labels=PATHS_BENCH_LABELS, seed=97
    )
    reg_pattern = sample_pattern_from_data(reg_data, 4, seed=831)
    assert reg_pattern is not None
    reg_bounds = _mixed_bounds(reg_pattern)
    wild = hop_bounded_pattern(reg_pattern, reg_bounds)
    edges = sorted(reg_pattern.edges(), key=repr)
    constraints = {
        edge: REGULAR_CONSTRAINT_CYCLE[i % len(REGULAR_CONSTRAINT_CYCLE)]
        for i, edge in enumerate(edges)
    }
    regex = RegularPattern(reg_pattern, constraints, reg_bounds)

    regular_rows: List[Dict] = []
    for name, rpattern in (("wildcard", wild), ("regex", regex)):
        dual_ref = regular_dual_simulation(
            rpattern, reg_data, engine="python"
        ).pair_set()
        assert regular_dual_simulation(
            rpattern, reg_data, engine="kernel"
        ).pair_set() == dual_ref, f"regular dual/{name} diverged"
        strong_ref = _result_canonical(
            regular_strong_match(rpattern, reg_data, engine="python")
        )
        assert _result_canonical(
            regular_strong_match(rpattern, reg_data, engine="kernel")
        ) == strong_ref, f"regular strong/{name} diverged"
        row = {"constraints": name}
        for algo, fn in (
            ("dual", regular_dual_simulation),
            ("strong", regular_strong_match),
        ):
            algo_times = {
                engine: best_of(
                    lambda engine=engine, fn=fn: fn(
                        rpattern, reg_data, engine=engine
                    ),
                    1 if algo == "strong" else TIMING_REPS,
                )
                for engine in ("python", "kernel")
            }
            row[algo] = _timing_row(algo_times)
        regular_rows.append(row)

    # paths-mixed's regular queries: strong matching only, summed.
    optional_times = {"python": 0.0, "kernel": 0.0}
    optional_patterns = 0
    for repeat in range(PATTERN_REPEATS):
        pattern = sample_pattern_from_data(
            reg_data, OPTIONAL_PATTERN_SIZE, seed=841 + repeat
        )
        if pattern is None:
            continue
        optional_patterns += 1
        edges = list(pattern.edges())
        rpattern = RegularPattern(
            pattern,
            {edge: OPTIONAL_CONSTRAINT for edge in edges},
            {edge: OPTIONAL_BOUND for edge in edges},
        )
        strong_ref = _result_canonical(
            regular_strong_match(rpattern, reg_data, engine="python")
        )
        assert _result_canonical(
            regular_strong_match(rpattern, reg_data, engine="kernel")
        ) == strong_ref, f"regular strong/optional diverged, repeat={repeat}"
        for engine in optional_times:
            optional_times[engine] += best_of(
                lambda engine=engine, rpattern=rpattern: regular_strong_match(
                    rpattern, reg_data, engine=engine
                ),
                1,
            )
    assert optional_patterns > 0
    regular_rows.append(
        {"constraints": "optional", "strong": _timing_row(optional_times)}
    )

    payload = {
        "benchmark": "bench_paths",
        "workload": "bounded + regular path matching on the CSR kernel",
        "scale": os.environ.get("REPRO_BENCH_SCALE", "small"),
        "smoke": smoke,
        "timing": f"best of {TIMING_REPS}, summed over sampled patterns",
        "bounded": bounded_section,
        "insertion_stream": stream_section,
        "regular": {
            "workload": (
                f"synthetic |V|={regular_n}, {PATHS_BENCH_LABELS} labels, "
                f"|Vq|=4, constraint cycles {list(REGULAR_CONSTRAINT_CYCLE)}; "
                f"optional: {optional_patterns} sampled "
                f"|Vq|={OPTIONAL_PATTERN_SIZE} patterns, "
                f"{OPTIONAL_CONSTRAINT!r} on every edge, "
                f"hop bound {OPTIONAL_BOUND}"
            ),
            "n": regular_n,
            "rows": regular_rows,
        },
        "equivalence": "all kernel results identical to the reference",
    }
    emit_result("BENCH_paths", payload)

    lines = [
        "Path matching: CSR kernel vs reference (seconds, lower is "
        "better)",
        f"bounded (|V|={bounded_n}, {patterns_used} patterns, mixed "
        f"bounds): python={times['python']:.4f}s "
        f"kernel={times['kernel']:.4f}s -> {bounded_speedup:.2f}x "
        f"(reach builds={reach_builds})",
        f"insertion stream ({stream_updates} inserts + requery, "
        f"|V|={stream_n}): {stream_s:.4f}s total, "
        f"{stream_section['amortized_update_ms']:.2f} ms/update, "
        f"reach builds={stats.reach_builds} "
        f"full compiles={stats.full_compiles}",
    ]
    for row in regular_rows:
        for algo in ("dual", "strong"):
            if algo not in row:
                continue
            lines.append(
                f"regular {algo}/{row['constraints']} (|V|={regular_n}): "
                f"python={row[algo]['python_s']:.4f}s "
                f"kernel={row[algo]['kernel_s']:.4f}s "
                f"-> {row[algo]['speedup']:.2f}x"
            )
    emit("bench_paths", "\n".join(lines))

    if not smoke and payload["scale"] == "small":
        assert bounded_speedup >= BOUNDED_SMALL_SCALE_BAR, (
            f"bounded kernel speedup {bounded_speedup} fell below "
            f"{BOUNDED_SMALL_SCALE_BAR}x on the small synthetic workload"
        )
