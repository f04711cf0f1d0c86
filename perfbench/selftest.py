"""Self-tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 perfbench/selftest.py

They shrink the workloads to toy sizes, so the whole file takes seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from concurrent.futures import Future

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def tiny(name: str = "strong-heavy"):
    """A workload shrunk to a 300-node graph and a 12-pattern pool."""
    return workloads.get_workload(name).scaled(
        nodes=300, labels=6, pool=12, sizes=(3, 4), write_every=7,
        setup_reps=1,
    )


def run_captured(workload, trace: bool = False):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.run_workload(workload, seed=5, seconds=0.2, trace=trace)
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            self.spec = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_workloads(self):
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]],
            list(workloads.WORKLOADS),
        )

    def test_end_to_end_line(self):
        code, _, result = run_captured(tiny())
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, self.declared("end_to_end"))

    def test_per_layer_line(self):
        code, lines, result = run_captured(tiny("paths-mixed"), trace=True)
        self.assertEqual(code, 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, self.declared("per_layer"))
        table = "\n".join(lines)
        for metric in layers.METRICS:
            self.assertIn(metric.name, table)


class Percentiles(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(harness.samples_needed(0.5), 20)
        self.assertEqual(harness.samples_needed(0.9), 100)
        samples = [float(i) for i in range(1, 100)]
        self.assertIsNone(harness.percentile(samples, 0.9))
        self.assertEqual(harness.percentile(samples + [100.0], 0.9), 90.0)
        self.assertEqual(harness.percentile(samples[:20], 0.5), 10.0)

    def test_unsupported_prints_na(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.print_table("t", {"query_p90_ms": (None, "ms", 42)})
        self.assertIn("n/a", out.getvalue())
        self.assertIn("42", out.getvalue())


class FailuresAndMismatches(unittest.TestCase):
    def test_injected_failure_counts(self):
        def submit(payload):
            future = Future()
            if payload == 3:
                future.set_exception(RuntimeError("injected"))
            else:
                future.set_result(payload)
            return future

        ops = [(harness.QUERY, i) for i in range(6)]
        window = harness.closed_loop(
            ops, submit, lambda payload: None, seconds=0.0, clients=2,
            max_ops=len(ops),
        )
        self.assertEqual(window.queries, 6)
        self.assertEqual(window.failed_queries, 1)
        self.assertEqual(len(window.latencies_ms), 5)
        self.assertIsNone(window.results[3])

    def test_injected_failure_in_failed_ratio(self):
        workload = tiny()
        original = workload.submit
        state = {"seen": 0}

        def submit(session, inputs, payload):
            state["seen"] += 1
            if state["seen"] == 10:
                raise RuntimeError("injected failure")
            return original(session, inputs, payload)

        workload.submit = submit
        code, lines, result = run_captured(workload)
        self.assertNotEqual(code, 0)
        self.assertEqual(result["failed"], 1)
        ratio = next(line for line in lines if "failed_ratio" in line)
        self.assertGreater(float(ratio.split()[1]), 0.0)

    def test_digest_mismatch_exits_nonzero(self):
        workload = tiny()
        original = workload.reference_query

        def wrong(state, inputs, payload):
            # Answer every query with the next pattern's result.
            pattern_id, algorithm = payload
            return original(
                state, inputs, ((pattern_id + 1) % 12, algorithm)
            )

        workload.reference_query = wrong
        code, lines, result = run_captured(workload)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("MISMATCH" in line for line in lines))


class Streams(unittest.TestCase):
    def test_same_seed_same_stream(self):
        for name in workloads.WORKLOADS:
            workload = tiny(name)
            inputs = workload.make_inputs(7)
            first = [op for op, _ in zip(workload.ops(inputs), range(60))]
            again = [op for op, _ in zip(workload.ops(inputs), range(60))]
            self.assertEqual(first, again, name)


class BareDirectory(unittest.TestCase):
    def test_missing_program_exits_nonzero_silently(self):
        out = io.StringIO()
        saved = run.SOURCE
        run.SOURCE = os.path.join(HERE, "no-such-source")
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", "strong-heavy", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]
                )
        finally:
            run.SOURCE = saved
        self.assertNotEqual(code, 0)
        self.assertEqual(out.getvalue(), "")


if __name__ == "__main__":
    unittest.main()
