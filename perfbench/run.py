"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout (no build step; the package is imported
from ``src/``)::

    python3 perfbench/run.py --workload serve-mixed --seed 3 --seconds 12 --trace 0

The run generates its inputs from ``--seed`` (untimed), times the cold
start several times (``setup_s`` is the median), then measures one
closed-loop window of ``--seconds`` on a warm system and checks every
query result against a serial replay of the same stream on a reference
configuration (``repro.scenarios.digest.digest_observations`` over both
streams).  It prints a table of every metric with its unit and sample
count, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` then
replays the same operations once more with the per-layer wrappers of
``perfbench/layers.py`` installed and reports the per-layer metrics
instead; end-to-end numbers always come from the untraced window.
``--workload all`` runs every workload in turn, one result line each.

Exit status: 0 when every result matched and nothing failed; 1 on a
digest mismatch or any failed operation; 2 when the program under test
cannot be imported; 3 when a reported percentile lacks samples.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

#: End-to-end metrics of the result line: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("read_after_write_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Run:
    setup_s: float
    window: object
    peak_rss_mb: float
    layers: Optional[Dict[str, Optional[float]]] = None


@dataclass
class Verdict:
    digest: str = ""
    reference_digest: str = ""
    wrong: int = 0
    notes: List[str] = field(default_factory=list)


def measure(workload, inputs, seconds, tracer=None, max_ops=None,
            untraced_seconds=0.0) -> Run:
    """Set up (timed, several times), then run one window.

    Half of the set-up repetitions run before the window and half after
    it, so the median samples the machine at two moments some seconds
    apart rather than one burst of milliseconds.
    """
    from harness import closed_loop, peak_rss_mb, samples_needed, timed_setups
    from repro.core.kernel import aggregate_index_stats

    if tracer is not None:
        import layers

        tracer.install()
    reps = workload.spec.setup_reps
    prepare = lambda: workload.prepare(inputs)  # noqa: E731
    session = None
    try:
        setup_times, session = timed_setups(
            prepare, workload.build, workload.close, (reps + 1) // 2,
            workload.PIN_SETUP,
        )
        setup = {"phases": workload.phases}
        if tracer is not None:
            setup.update(layers.setup_extras(session, tracer))
        for payload in workload.warmup():
            workload.submit(session, inputs, payload).result()
        if tracer is not None:
            tracer.reset()
        stats_before = aggregate_index_stats()
        gc.collect()
        window = closed_loop(
            workload.ops(inputs),
            lambda payload: workload.submit(session, inputs, payload),
            lambda payload: workload.apply_write(session, payload),
            seconds=seconds,
            clients=workload.spec.clients,
            min_queries=samples_needed(0.9),
            min_read_after_write=samples_needed(0.5),
            max_ops=max_ops,
            settle=settle,
        )
        rss = peak_rss_mb()
        values = None
        if tracer is not None:
            tracer.uninstall()
            setup["candidates_per_node"] = layers.candidates_per_node(
                inputs, window.executed
            )
            values = layers.compute(
                tracer, setup, window, untraced_seconds, session, stats_before
            )
    finally:
        if tracer is not None:
            tracer.uninstall()
        if session is not None:
            workload.close(session)
        gc.unfreeze()
    if tracer is None:
        later, session = timed_setups(
            prepare, workload.build, workload.close, reps // 2,
            workload.PIN_SETUP,
        )
        setup_times += later
        if session is not None:
            workload.close(session)
        gc.unfreeze()
    return Run(statistics.median(setup_times), window, rss, values)


def settle(result):
    """What a window keeps of one query result: its observation digest
    (``repro.scenarios.digest``) and, for a distributed run report, the
    units its own query log shipped, by message kind."""
    from repro.scenarios.digest import digest_observations

    units = result.units_by_kind() if hasattr(result, "query_log") else None
    return digest_observations([result]), units


def check(workload, inputs, windows) -> Verdict:
    """Compare each window's query digests with the reference replay's."""
    from repro.scenarios.digest import digest_observations

    executed = windows[0].executed
    reference = workload.reference(inputs, executed)
    digests: Dict[int, str] = {}
    for result in reference:  # memoized results repeat: digest each once
        if id(result) not in digests:
            digests[id(result)] = settle(result)[0]
    expected = [digests[id(result)] for result in reference]
    verdict = Verdict()
    for window in windows:
        if window.executed != executed:
            raise RuntimeError("traced and untraced windows diverged")
        ok = [i for i, kept in enumerate(window.results) if kept is not None]
        got = digest_observations(window.results[i][0] for i in ok)
        want = digest_observations(expected[i] for i in ok)
        verdict.digest, verdict.reference_digest = got, want
        for i in ok:
            if window.results[i][0] != expected[i]:
                verdict.wrong += 1
                if len(verdict.notes) < 5:
                    verdict.notes.append(
                        f"query #{i} {executed_query(executed, i)}"
                    )
    return verdict


def executed_query(executed, position: int):
    from harness import QUERY

    seen = -1
    for kind, payload in executed:
        if kind == QUERY:
            seen += 1
            if seen == position:
                return payload
    return None


def end_to_end(run: Run, workload) -> Dict[str, tuple]:
    """name -> (value or None, unit, sample count)."""
    from harness import percentile

    window = run.window
    latencies = window.latencies_ms
    after = window.read_after_write_ms
    return {
        "setup_s": (run.setup_s, "s", workload.spec.setup_reps),
        "query_p50_ms": (percentile(latencies, 0.5), "ms", len(latencies)),
        "query_p90_ms": (percentile(latencies, 0.9), "ms", len(latencies)),
        "throughput_qps": (
            len(latencies) / window.seconds if window.seconds else None,
            "1/s", len(latencies),
        ),
        "read_after_write_p50_ms": (percentile(after, 0.5), "ms", len(after)),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }


def format_value(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_table(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<28} {'value':>14} {'unit':<7} n")
    for name, (value, unit, count) in rows.items():
        print(f"  {name:<28} {format_value(value):>14} {unit:<7} {count}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    for path in (HERE, SOURCE):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        from repro.obs.trace import set_tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS)
    if args.workload != "all":
        if args.workload not in workloads.WORKLOADS:
            parser.error(
                f"unknown workload {args.workload!r}; "
                f"expected one of {names} or 'all'"
            )
        names = [args.workload]
    set_tracing(False)
    status = 0
    for name in names:
        workload = workloads.get_workload(name)
        code = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        status = max(status, code)
    return status


def run_workload(workload, seed: int, seconds: float, trace: bool) -> int:
    inputs = workload.make_inputs(seed)
    untraced = measure(workload, inputs, seconds)
    windows = [untraced.window]
    traced = None
    if trace:
        import layers

        # The same operations again, traced: the ratio of the two
        # window times is the tracing overhead.
        traced = measure(
            workload, inputs, seconds, tracer=layers.LayerTracer(),
            max_ops=len(untraced.window.executed),
            untraced_seconds=untraced.window.seconds,
        )
        windows.append(traced.window)
    verdict = check(workload, inputs, windows)

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed_queries + w.failed_writes for w in windows)
    failed += verdict.wrong
    rows = end_to_end(untraced, workload)
    window = untraced.window
    extra = {}
    units = [
        sum(kept[1].values())
        for kept in window.results if kept is not None and kept[1] is not None
    ]
    if units:
        extra["shipped_units_per_query"] = (
            sum(units) / len(units), "units", len(units)
        )
    extra["failed_ratio"] = (failed / attempted if attempted else None,
                             "ratio", attempted)
    print_table(
        f"workload {workload.name}  seed {seed}  clients "
        f"{workload.spec.clients}  window {window.seconds:.3f} s  "
        f"queries {window.queries}  writes {window.writes}",
        {**rows, **extra},
    )
    print(f"  digest {verdict.digest} reference {verdict.reference_digest}"
          f"  {'match' if verdict.wrong == 0 else 'MISMATCH'}")
    for note in verdict.notes:
        print(f"  wrong result: {note}")
    for error in sum((w.errors for w in windows), [])[:5]:
        print(f"  failed: {error}")

    if traced is not None:
        import layers

        print(f"per-layer ({workload.name}, traced window of "
              f"{traced.window.queries} queries)")
        print(f"  {'metric':<26} {'value':>12} {'unit':<6} {'per':<15}"
              f" moves")
        for metric in layers.METRICS:
            value = traced.layers[metric.name]
            print(f"  {metric.name:<26} {format_value(value):>12} "
                  f"{metric.unit:<6} {metric.per:<15} {metric.moves}"
                  f" ({metric.on})")
        units = {m.name: m.unit for m in layers.METRICS}
        metrics = {
            name: {"value": float(traced.layers[name] or 0.0),
                   "unit": units[name]}
            for name in layers.JSON_METRICS
        }
    else:
        if any(rows[name][0] is None for name, _ in END_TO_END):
            print("perfbench: a reported percentile lacks samples",
                  file=sys.stderr)
            return 3
        metrics = {
            name: {"value": float(rows[name][0]), "unit": unit}
            for name, unit in END_TO_END
        }
    correct = verdict.wrong == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
