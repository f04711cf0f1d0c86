"""Kernel vs reference engine: wall-clock comparison + equivalence gate.

Runs ``match_plus``, ``dual_simulation`` and ``graph_simulation`` on
the execution engines over the Figure-8(g) synthetic shapes
(``generate_graph`` with ``alpha=1.2`` and patterns sampled from the
data), at the scale
selected by ``REPRO_BENCH_SCALE``
(``small`` default / ``large``), plus an **incremental** section — an
update+requery workload comparing the delta-maintained warm index
(incremental-kernel) against recompile-per-query (recompile-kernel) and
the reference engine, gated at >= 2x over full recompilation at small
scale with zero full recompiles asserted — and emits

* a rendered table under ``benchmarks/results/bench_kernel.txt``;
* machine-readable ``benchmarks/results/BENCH_kernel.json`` — the seed of
  the repo's performance trajectory (one file per run; CI and future PRs
  diff the numbers).

Every timed pair is also an equivalence check: the kernel result set must
be byte-identical (canonical node/edge/relation form) to the reference
result set, and the run fails otherwise.  At small scale the aggregate
``match_plus`` speedup is asserted to stay above 2x — the bar the kernel
was built to clear.  The ``dual`` and ``sim`` rows run one witness-check
fixpoint that differs only in the checks it compiles; they have no
speedup gate.

Plain ``match`` has no row: on the compiled engines it runs the
``Match+`` core, so a kernel-vs-python ``match`` column would compare two
algorithms, not two engines.  Its cross-engine identity is checked by
the tier-1 differential suites and the scenario digests.

The distributed protocol has no row either: every site runs the
reference per-ball step on every engine, so there is no second site
substrate to time.  ``bench_distributed_proc.py`` times its backends.

Set ``REPRO_KERNEL_BENCH_SMOKE=1`` to shrink the sweep to one small size
(CI smoke mode; no speedup assertion, equivalence still enforced).
"""

from __future__ import annotations

import os
from typing import Dict, List

from repro.core.matchplus import match_plus
from repro.core.dualsim import dual_simulation
from repro.core.kernel import (
    dual_simulation_kernel,
    get_index,
    graph_simulation_kernel,
)
from repro.core.npkernel import get_array_view
from repro.core.simulation import graph_simulation
from repro.experiments.performance import (
    random_insertion_stream,
    time_update_workload,
)
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from benchmarks.conftest import best_of, emit, emit_result

PATTERN_SIZE = 10
PATTERN_REPEATS = 3
TIMING_REPS = 3
MATCH_PLUS_SMALL_SCALE_BAR = 2.0
NUMPY_MATCH_PLUS_SMALL_SCALE_BAR = 1.5
NUMPY_BENCH_PATTERN_SIZE = 6
NUMPY_BENCH_LABELS = 4
INCREMENTAL_SMALL_SCALE_BAR = 2.0
INCREMENTAL_PATTERN_SIZE = 6
#: Disabled-path tracing overhead budget: the no-op spans left on the
#: hot paths may cost at most this fraction of a match_plus query.
OBS_DISABLED_OVERHEAD_BAR = 0.02
OBS_NOOP_TIMING_CALLS = 200_000
#: The engines timed per algorithm.  The numpy engine's ``dual`` and
#: ``sim`` cells are the kernel's (repro.core.engines), so they have no
#: column of their own.
TIMED_ENGINES = {
    "match_plus": ("python", "kernel", "numpy"),
    "dual": ("python", "kernel"),
    "sim": ("python", "kernel"),
}


def _canonical(result) -> frozenset:
    return frozenset(
        (sg.signature(), sg.relation.pair_set()) for sg in result
    )


def _relation_canonical(relation) -> frozenset:
    return relation.pair_set()


def _timing_entry(seconds: Dict[str, float]) -> Dict:
    """Per-engine seconds plus each compiled engine's speedup."""
    python_s = seconds["python"]
    entry = {f"{engine}_s": round(s, 6) for engine, s in seconds.items()}
    for engine, key in (("kernel", "speedup"), ("numpy", "numpy_speedup")):
        if engine in seconds:
            engine_s = seconds[engine]
            entry[key] = round(python_s / engine_s, 3) if engine_s else None
    return entry


def test_kernel_vs_python_engines(scale):
    smoke = os.environ.get("REPRO_KERNEL_BENCH_SMOKE") == "1"
    sweep = [scale["perf_v_sweep"][0]] if smoke else scale["perf_v_sweep"]

    rows: List[Dict] = []
    totals = {key: dict.fromkeys(engines, 0.0)
              for key, engines in TIMED_ENGINES.items()}
    for n in sweep:
        data = generate_graph(
            int(n), alpha=1.2, num_labels=scale["labels"], seed=29
        )
        get_array_view(get_index(data))  # compile + array view once;
        # the row times show amortized cost for all three engines.
        row = {"n": int(n), "patterns": 0}
        times = {key: dict.fromkeys(engines, 0.0)
                 for key, engines in TIMED_ENGINES.items()}
        for repeat in range(PATTERN_REPEATS):
            pattern = sample_pattern_from_data(
                data, PATTERN_SIZE, seed=441 + repeat
            )
            if pattern is None:
                continue
            row["patterns"] += 1

            reference = _canonical(match_plus(pattern, data, engine="python"))
            for engine in ("kernel", "numpy"):
                assert _canonical(
                    match_plus(pattern, data, engine=engine)
                ) == reference, (
                    f"match_plus/{engine} diverged at |V|={n}, "
                    f"repeat={repeat}"
                )
            for engine in TIMED_ENGINES["match_plus"]:
                times["match_plus"][engine] += best_of(
                    lambda engine=engine: match_plus(
                        pattern, data, engine=engine
                    ),
                    TIMING_REPS,
                )

            dual_reference = _relation_canonical(
                dual_simulation(pattern, data)
            )
            assert _relation_canonical(
                dual_simulation_kernel(pattern, data)
            ) == dual_reference
            dual_fns = {
                "python": dual_simulation,
                "kernel": dual_simulation_kernel,
            }
            for engine in TIMED_ENGINES["dual"]:
                times["dual"][engine] += best_of(
                    lambda engine=engine: dual_fns[engine](pattern, data),
                    TIMING_REPS,
                )

            sim_reference = _relation_canonical(
                graph_simulation(pattern, data, engine="python")
            )
            assert _relation_canonical(
                graph_simulation_kernel(pattern, data)
            ) == sim_reference
            sim_fns = {
                "python": lambda: graph_simulation(
                    pattern, data, engine="python"
                ),
                "kernel": lambda: graph_simulation_kernel(pattern, data),
            }
            for engine in TIMED_ENGINES["sim"]:
                times["sim"][engine] += best_of(sim_fns[engine], TIMING_REPS)

        for key in totals:
            for engine in totals[key]:
                totals[key][engine] += times[key][engine]
            row[key] = _timing_entry(times[key])
        rows.append(row)
    total_entries = {key: _timing_entry(totals[key]) for key in totals}

    # ------------------------------------------------------------------
    # Incremental index maintenance: update + requery workload.  One
    # stream of single-edge insertions, re-running match_plus after each:
    #   * incremental-kernel — maintenance on, ONE warm index maintained
    #     through the GraphDelta pipeline (zero full recompiles);
    #   * recompile-kernel  — maintenance off, every query recompiles the
    #     index from scratch (the pre-pipeline behavior);
    #   * reference         — engine="python", no index at all.
    # ------------------------------------------------------------------
    inc_n = 600 if smoke else 2500
    inc_updates = 10 if smoke else 40
    inc_master = generate_graph(
        inc_n, alpha=1.15, num_labels=scale["labels"], seed=71
    )
    inc_pattern = sample_pattern_from_data(
        inc_master, INCREMENTAL_PATTERN_SIZE, seed=611
    )
    assert inc_pattern is not None
    inc_run = time_update_workload(
        inc_pattern,
        inc_master,
        random_insertion_stream(inc_master, inc_updates, seed=5),
    )
    assert inc_run.results_identical(), (
        "update-workload results diverged between maintenance modes/engines"
    )
    assert inc_run.full_compiles == 0, (
        f"incremental maintenance recompiled {inc_run.full_compiles} "
        "time(s) on a pure-insertion workload"
    )
    inc_s = inc_run.seconds["incremental-kernel"]
    rec_s = inc_run.seconds["recompile-kernel"]
    ref_s = inc_run.seconds["reference"]
    inc_speedup = round(rec_s / inc_s, 3) if inc_s else None
    incremental_section = {
        "workload": (
            f"{inc_updates} single-edge insertions + match_plus requery "
            f"each, synthetic |V|={inc_n}, |Vq|={INCREMENTAL_PATTERN_SIZE}"
        ),
        "n": inc_n,
        "updates": inc_updates,
        "pattern_size": INCREMENTAL_PATTERN_SIZE,
        "incremental_kernel_s": round(inc_s, 6),
        "recompile_kernel_s": round(rec_s, 6),
        "reference_s": round(ref_s, 6),
        "speedup_vs_recompile": inc_speedup,
        "speedup_vs_reference": round(ref_s / inc_s, 3) if inc_s else None,
        "amortized_update_ms": {
            strategy: round(amortized * 1e3, 4)
            for strategy, amortized in inc_run.amortized_seconds.items()
        },
        "incremental_full_compiles_after_priming": inc_run.full_compiles,
    }

    # ------------------------------------------------------------------
    # numpy vs kernel head-to-head: the batched array engine against the
    # compiled-kernel engine on the ``Match+`` workload it was built
    # for — a moderately labeled synthetic graph where the dual filter
    # leaves real per-ball work.  (On the label-sparse sweep above the
    # per-query cost is ~1 ms and the kernel's low fixed overhead wins;
    # ROADMAP.md records the regime guidance.)
    # ------------------------------------------------------------------
    np_n = 600 if smoke else 2500
    np_data = generate_graph(
        np_n, alpha=1.2, num_labels=NUMPY_BENCH_LABELS, seed=29
    )
    np_pattern = sample_pattern_from_data(
        np_data, NUMPY_BENCH_PATTERN_SIZE, seed=441
    )
    assert np_pattern is not None
    get_array_view(get_index(np_data))
    assert _canonical(
        match_plus(np_pattern, np_data, engine="numpy")
    ) == _canonical(
        match_plus(np_pattern, np_data, engine="kernel")
    ), "numpy-vs-kernel section results diverged"
    np_times = {
        engine: best_of(
            lambda engine=engine: match_plus(
                np_pattern, np_data, engine=engine
            ),
            TIMING_REPS,
        )
        for engine in ("kernel", "numpy")
    }
    np_speedup = (
        round(np_times["kernel"] / np_times["numpy"], 3)
        if np_times["numpy"]
        else None
    )
    numpy_section = {
        "workload": (
            f"match_plus, synthetic |V|={np_n}, alpha=1.2, "
            f"{NUMPY_BENCH_LABELS} labels, |Vq|={NUMPY_BENCH_PATTERN_SIZE}"
        ),
        "n": np_n,
        "pattern_size": NUMPY_BENCH_PATTERN_SIZE,
        "num_labels": NUMPY_BENCH_LABELS,
        "kernel_s": round(np_times["kernel"], 6),
        "numpy_s": round(np_times["numpy"], 6),
        "speedup_vs_kernel": np_speedup,
        "note": (
            "smoke scale: |V|=600, no speedup gate (the batched engine's "
            "advantage needs the full |V|=2500 workload)"
            if smoke
            else f"gated at >= {NUMPY_MATCH_PLUS_SMALL_SCALE_BAR}x at "
            "small scale"
        ),
    }

    payload = {
        "benchmark": "bench_kernel",
        "workload": "fig8g synthetic shapes (alpha=1.2, sampled patterns)",
        "scale": os.environ.get("REPRO_BENCH_SCALE", "small"),
        "smoke": smoke,
        "pattern_size": PATTERN_SIZE,
        "timing": f"best of {TIMING_REPS}, summed over sampled patterns",
        "rows": rows,
        "totals": total_entries,
        "incremental": incremental_section,
        "numpy_vs_kernel": numpy_section,
        "equivalence": "all result sets identical across engines",
    }
    emit_result("BENCH_kernel", payload)

    lines = ["Compiled engines vs reference engine (seconds, lower is better)",
             f"{'|V|':>8} {'algorithm':>11} {'python':>10} {'kernel':>10} "
             f"{'numpy':>10} {'speedup':>8}"]

    def numpy_cell(seconds) -> str:
        return f"{'-':>10}" if seconds is None else f"{seconds:>10.4f}"

    for row in rows:
        for key in TIMED_ENGINES:
            if row[key]["kernel_s"]:
                lines.append(
                    f"{row['n']:>8} {key:>11} "
                    f"{row[key]['python_s']:>10.4f} "
                    f"{row[key]['kernel_s']:>10.4f} "
                    f"{numpy_cell(row[key].get('numpy_s'))} "
                    f"{row[key]['speedup']:>8.2f}"
                )
    for key in TIMED_ENGINES:
        if totals[key]["kernel"]:
            lines.append(
                f"{'TOTAL':>8} {key:>11} "
                f"{totals[key]['python']:>10.4f} "
                f"{totals[key]['kernel']:>10.4f} "
                f"{numpy_cell(totals[key].get('numpy'))} "
                f"{total_entries[key]['speedup']:>8.2f}"
            )
    lines.append(
        f"incremental ({inc_updates} updates + requery, |V|={inc_n}): "
        f"warm={inc_s:.4f}s recompile={rec_s:.4f}s reference={ref_s:.4f}s "
        f"-> {inc_speedup:.2f}x vs recompile, "
        f"{inc_run.full_compiles} full recompiles"
    )
    lines.append(
        f"numpy vs kernel (match_plus, |V|={np_n}, "
        f"{NUMPY_BENCH_LABELS} labels): kernel={np_times['kernel']:.4f}s "
        f"numpy={np_times['numpy']:.4f}s -> {np_speedup:.2f}x"
    )
    emit("bench_kernel", "\n".join(lines))

    if not smoke and payload["scale"] == "small":
        match_plus_speedup = total_entries["match_plus"]["speedup"]
        assert match_plus_speedup >= MATCH_PLUS_SMALL_SCALE_BAR, (
            f"kernel match_plus speedup {match_plus_speedup} fell below "
            f"{MATCH_PLUS_SMALL_SCALE_BAR}x on the small synthetic workload"
        )
        assert inc_speedup >= INCREMENTAL_SMALL_SCALE_BAR, (
            f"incremental index maintenance speedup {inc_speedup} fell "
            f"below {INCREMENTAL_SMALL_SCALE_BAR}x over recompile-per-query "
            "on the update workload"
        )
        assert np_speedup >= NUMPY_MATCH_PLUS_SMALL_SCALE_BAR, (
            f"numpy match_plus speedup over kernel {np_speedup} fell "
            f"below {NUMPY_MATCH_PLUS_SMALL_SCALE_BAR}x on the "
            "numpy-vs-kernel workload"
        )


def test_observability_disabled_overhead(scale):
    """The tracing instrumentation must be free when tracing is off.

    The hot paths carry ``span()`` calls that compile to a shared no-op
    when tracing is disabled (the default).  This gate bounds what those
    call sites can cost: (spans per query, counted from a real traced
    run) x (measured per-call cost of a disabled span) must stay under
    ``OBS_DISABLED_OVERHEAD_BAR`` of the disabled-path query time.  The
    construction keeps the bound honest as instrumentation accretes —
    adding a span inside the per-ball loop would multiply the span count
    and trip it.  Also asserts tracing does not perturb results.
    """
    import time as _time

    from repro.obs import collector, set_tracing, tracing_enabled
    from repro.obs.trace import span as obs_span

    smoke = os.environ.get("REPRO_KERNEL_BENCH_SMOKE") == "1"
    n = 300 if smoke else 1000
    data = generate_graph(n, alpha=1.2, num_labels=scale["labels"], seed=53)
    pattern = sample_pattern_from_data(data, PATTERN_SIZE, seed=701)
    assert pattern is not None
    get_array_view(get_index(data))  # compile + array view once

    assert not tracing_enabled()
    baseline = _canonical(match_plus(pattern, data, engine="kernel"))
    disabled_s = best_of(
        lambda: match_plus(pattern, data, engine="kernel"), TIMING_REPS
    )

    collector().clear()
    previous = set_tracing(True)
    try:
        traced = _canonical(match_plus(pattern, data, engine="kernel"))
        root = collector().roots()[-1]
    finally:
        set_tracing(previous)
    assert traced == baseline, "tracing perturbed the match_plus result"
    assert root.name == "kernel.match_plus"
    spans_per_query = root.span_count()

    start = _time.perf_counter()
    for _ in range(OBS_NOOP_TIMING_CALLS):
        with obs_span("bench.noop"):
            pass
    noop_s = (_time.perf_counter() - start) / OBS_NOOP_TIMING_CALLS

    overhead_s = spans_per_query * noop_s
    ratio = overhead_s / disabled_s if disabled_s else 0.0
    emit_result("BENCH_obs", {
        "benchmark": "bench_obs",
        "workload": (
            f"match_plus, synthetic |V|={n}, alpha=1.2, "
            f"{scale['labels']} labels, |Vq|={PATTERN_SIZE}"
        ),
        "smoke": smoke,
        "disabled_query_s": round(disabled_s, 6),
        "spans_per_query": spans_per_query,
        "noop_span_ns": round(noop_s * 1e9, 2),
        "disabled_overhead_ratio": round(ratio, 6),
        "bar": OBS_DISABLED_OVERHEAD_BAR,
        "equivalence": "traced result identical to untraced",
    })
    print(
        f"\nobservability: {spans_per_query} spans/query, "
        f"noop span {noop_s * 1e9:.0f} ns -> disabled overhead "
        f"{ratio:.4%} of {disabled_s * 1e3:.2f} ms (bar "
        f"{OBS_DISABLED_OVERHEAD_BAR:.0%})"
    )
    assert ratio <= OBS_DISABLED_OVERHEAD_BAR, (
        f"disabled-path tracing overhead {ratio:.4%} exceeds "
        f"{OBS_DISABLED_OVERHEAD_BAR:.0%} of a match_plus query "
        f"({spans_per_query} spans x {noop_s * 1e9:.0f} ns)"
    )
