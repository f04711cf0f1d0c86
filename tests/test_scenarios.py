"""The scenario harness: digests, SLO math, the diff dashboard, the CLI.

Four layers under test:

* **Percentile math** (property-based) — the log-bucket interpolation in
  :meth:`HistogramSnapshot.percentile` must stay within one bucket
  boundary of the exact order statistic on arbitrary samples, and honor
  its documented edge cases (empty → 0.0, +Inf overflow → last finite
  bound, monotone in ``q``).
* **Digest determinism** — the seeded smoke matrix must produce one
  digest per (scenario, scale) across every engine and backend, twice
  in a row, matching the pinned ``EXPECTED_DIGESTS``.
* **The diff dashboard** — :func:`diff_payloads` must flag injected
  digest mismatches, injected p99 regressions, and vanished cases, and
  must *not* flag bucket-noise, ``queue_wait`` rows, or scales the new
  report never ran.
* **The service path seam** — ``bounded``/``regular`` through
  :class:`MatchService` must equal the direct algorithm calls.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs.metrics import (
    HISTOGRAM_BUCKETS,
    Histogram,
    HistogramSnapshot,
    subtract_snapshots,
)
from repro.scenarios import (
    EXPECTED_DIGESTS,
    ScenarioRunner,
    canonical_observation,
    diff_payloads,
    digest_observations,
    get_scenario,
    matrix_payload,
    run_matrix,
    scenario_names,
)

from tests.engines import available_backends

# ----------------------------------------------------------------------
# Percentile math (satellite: property tests)
# ----------------------------------------------------------------------

# Samples inside the finite bucket range (1µs .. 2^26 µs ≈ 67s).
_sample_values = st.floats(
    min_value=2e-6, max_value=HISTOGRAM_BUCKETS[-1] * 0.99,
    allow_nan=False, allow_infinity=False,
)


def _bucket_index(value: float) -> int:
    return bisect_left(HISTOGRAM_BUCKETS, value)


def _exact_percentile(samples, q: float) -> float:
    ordered = sorted(samples)
    rank = max(int(math.ceil(q * len(ordered))) - 1, 0)
    return ordered[rank]


class TestPercentileProperties:
    @given(st.lists(_sample_values, min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_within_one_bucket_of_exact(self, samples):
        """Interpolated p50/p99 land in the exact statistic's bucket or
        an adjacent one — the documented log-bucket error bound."""
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        for q in (0.5, 0.99):
            interpolated = histogram.percentile(q)
            exact = _exact_percentile(samples, q)
            assert (
                abs(_bucket_index(interpolated) - _bucket_index(exact)) <= 1
            ), (
                f"q={q}: interpolated {interpolated} vs exact {exact} "
                f"differ by more than one bucket"
            )

    @given(
        st.lists(_sample_values, min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_q(self, samples, q1, q2):
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        low, high = sorted((q1, q2))
        assert histogram.percentile(low) <= histogram.percentile(high)

    @given(st.lists(_sample_values, min_size=1, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_bounded_by_bucket_edges(self, samples):
        """Any quantile lies between the lowest occupied bucket's lower
        edge and the highest occupied bucket's upper edge."""
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        snapshot = histogram.snapshot_view()
        occupied = [i for i, c in enumerate(snapshot.counts) if c]
        lower_edge = (
            HISTOGRAM_BUCKETS[occupied[0] - 1] if occupied[0] else 0.0
        )
        upper_edge = HISTOGRAM_BUCKETS[min(occupied[-1],
                                           len(HISTOGRAM_BUCKETS) - 1)]
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            value = snapshot.percentile(q)
            assert lower_edge <= value <= upper_edge

    def test_empty_snapshot_is_zero(self):
        assert HistogramSnapshot([0] * 28).percentile(0.99) == 0.0
        assert Histogram().percentile(0.5) == 0.0

    def test_overflow_bucket_reports_last_finite_bound(self):
        histogram = Histogram()
        histogram.observe(HISTOGRAM_BUCKETS[-1] * 10)
        assert histogram.percentile(0.99) == HISTOGRAM_BUCKETS[-1]

    def test_single_bucket_interpolates_to_its_edges(self):
        histogram = Histogram()
        for _ in range(100):
            histogram.observe(3e-6)  # bucket (2µs, 4µs]
        assert histogram.percentile(1.0) == pytest.approx(4e-6)
        # q -> 0 approaches the lower edge geometrically.
        assert 2e-6 <= histogram.percentile(0.01) <= 4e-6

    def test_registry_window_subtraction(self):
        """subtract_snapshots yields the exact per-window histogram."""
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("lat").observe(1e-3)
        registry.counter("hits").inc(3)
        before = registry.snapshot()
        registry.histogram("lat").observe(4e-3)
        registry.histogram("lat").observe(4e-3)
        registry.counter("hits").inc(2)
        after = registry.snapshot()
        window = subtract_snapshots(after, before)
        assert window["counters"]["hits"] == 2
        snap = HistogramSnapshot.from_dict(window["histograms"]["lat"])
        assert snap.count == 2
        assert snap.sum == pytest.approx(8e-3)
        # The pre-window 1ms observation is gone from every bucket.
        assert sum(snap.counts) == 2


# ----------------------------------------------------------------------
# Digest determinism (satellite: cross-engine determinism test)
# ----------------------------------------------------------------------
class TestDigestDeterminism:
    def test_smoke_matrix_engine_and_backend_independent(self):
        """One digest per (scenario, scale) across the full smoke
        matrix, and every pinned digest reproduced."""
        cases = run_matrix(None, "smoke")
        ran = [case for case in cases if case.skipped is None]
        assert ran
        by_scenario = {}
        for case in ran:
            by_scenario.setdefault(case.scenario, set()).add(case.digest)
        divergent = {k: v for k, v in by_scenario.items() if len(v) > 1}
        assert not divergent, f"engine-dependent digests: {divergent}"
        mismatched = [case.case_key for case in ran
                      if case.digest_ok is False]
        assert not mismatched, f"pinned digest mismatches: {mismatched}"
        # Every scenario contributed at least one runnable case.
        assert set(by_scenario) == set(scenario_names())

    def test_two_runs_identical_digest(self):
        runner = ScenarioRunner(get_scenario("tenancy-mixed"))
        first = runner.run_case("smoke", "kernel")
        second = runner.run_case("smoke", "kernel")
        assert first.digest == second.digest
        assert first.digest == EXPECTED_DIGESTS[("tenancy-mixed", "smoke")]

    def test_distributed_case_cross_checks_hold(self):
        report = ScenarioRunner(get_scenario("distributed-4site")).run_case(
            "smoke", "kernel", "inproc"
        )
        assert report.skipped is None
        assert report.digest_ok is True
        assert report.bus_log_matches_trace is True
        # Exact bus accounting: per-kind units fold back to the total.
        assert report.bus["units"] == sum(report.bus["by_kind"].values())
        assert report.bus["messages"] > 0
        # Every pattern queried twice per round: half replayed from the
        # shared result store.
        assert report.executed["replayed"] == report.executed["computed"]

    def test_distributed_window_counts_each_query_once(self):
        """The SLO window holds one sample per query on every backend.

        Backends run in order, so by the time the process backend forks
        its workers this process's registry already holds the earlier
        cases' samples — which a worker must not ship back as its own.
        """
        runner = ScenarioRunner(get_scenario("distributed-4site"))
        for backend in available_backends():
            report = runner.run_case("smoke", "kernel", backend)
            counts = {row: v["count"] for row, v in report.latency.items()}
            assert counts == {
                "distributed": report.queries,
                "queue_wait": report.queries,
            }, backend

    def test_unknown_scale_reports_skips_not_silence(self):
        cases = run_matrix(["distributed-4site"], "M")
        assert cases and all(case.skipped for case in cases)


# ----------------------------------------------------------------------
# Diff dashboard
# ----------------------------------------------------------------------
def _payload_from(cases, scale="smoke"):
    return matrix_payload(list(cases), scale)


@pytest.fixture(scope="module")
def baseline_case():
    """One real smoke case, shared by the diff tests."""
    return ScenarioRunner(get_scenario("match-plus-single")).run_case(
        "smoke", "kernel"
    )


class TestDiffDashboard:
    def test_clean_diff_is_empty(self, baseline_case):
        payload = _payload_from([baseline_case])
        assert diff_payloads(payload, payload) == []

    def test_injected_digest_mismatch_flagged(self, baseline_case):
        before = _payload_from([baseline_case])
        after = json.loads(json.dumps(before))
        after["cases"][0]["digest"] = "0" * 16
        findings = diff_payloads(before, after)
        assert [f["kind"] for f in findings] == ["digest"]
        assert baseline_case.case_key == findings[0]["case"]

    def test_injected_p99_regression_flagged(self, baseline_case):
        before = _payload_from([baseline_case])
        after = json.loads(json.dumps(before))
        for row in after["cases"][0]["latency"].values():
            row["p99_ms"] = row.get("p99_ms", 0.0) * 10 + 50.0
        findings = diff_payloads(before, after)
        slo = [f for f in findings if f["kind"] == "slo"]
        assert slo, "a 10x+50ms p99 regression must be flagged"
        assert all("queue_wait" != f.get("algorithm") for f in slo)

    def test_bucket_noise_not_flagged(self, baseline_case):
        """A single log-2 bucket flip (exactly 2x) stays silent under
        the default threshold."""
        before = _payload_from([baseline_case])
        after = json.loads(json.dumps(before))
        for row in after["cases"][0]["latency"].values():
            row["p99_ms"] = row.get("p99_ms", 0.0) * 2.0
        assert diff_payloads(before, after) == []

    def test_queue_wait_never_compared(self, baseline_case):
        before = _payload_from([baseline_case])
        after = json.loads(json.dumps(before))
        after["cases"][0]["latency"]["queue_wait"] = {
            "count": 1, "mean_ms": 1e6, "p50_ms": 1e6, "p99_ms": 1e6,
        }
        before["cases"][0]["latency"]["queue_wait"] = {
            "count": 1, "mean_ms": 0.001, "p50_ms": 0.001, "p99_ms": 0.001,
        }
        assert diff_payloads(before, after) == []

    def test_missing_case_flagged_within_scale(self, baseline_case):
        before = _payload_from([baseline_case])
        after = json.loads(json.dumps(before))
        after["cases"][0]["skipped"] = "injected"
        # Another case at the same scale keeps the scale in scope.
        survivor = dict(before["cases"][0])
        survivor["engine"] = "python"
        after["cases"].append(survivor)
        findings = diff_payloads(before, after)
        assert [f["kind"] for f in findings] == ["missing"]

    def test_unran_scale_out_of_scope(self, baseline_case):
        """A smoke-only report diffed against a smoke+S baseline does
        not flag the S cases as missing."""
        s_case = dict(_payload_from([baseline_case])["cases"][0])
        s_case["scale"] = "S"
        before = _payload_from([baseline_case])
        before["cases"].append(s_case)
        after = _payload_from([baseline_case])
        assert diff_payloads(before, after) == []


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
class TestScenarioCli:
    def test_list_exits_zero(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        out_path = tmp_path / "scen.json"
        code = main([
            "scenarios", "run", "--scenario", "match-plus-single",
            "--smoke", "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 1
        assert payload["benchmark"] == "scenarios"
        assert payload["ok"] is True
        assert "ok" in capsys.readouterr().out

    def test_run_digest_mismatch_exits_one(self, monkeypatch, capsys):
        monkeypatch.setitem(
            EXPECTED_DIGESTS, ("match-plus-single", "smoke"), "f" * 16
        )
        code = main([
            "scenarios", "run", "--scenario", "match-plus-single", "--smoke",
        ])
        assert code == 1
        assert "DIGEST MISMATCH" in capsys.readouterr().out

    def test_run_unknown_scenario_exits_two(self, capsys):
        assert main(["scenarios", "run", "--scenario", "nope"]) == 2

    def test_diff_exit_codes(self, tmp_path, baseline_case, capsys):
        before = _payload_from([baseline_case])
        after = json.loads(json.dumps(before))
        after["cases"][0]["digest"] = "0" * 16
        before_path = tmp_path / "before.json"
        after_path = tmp_path / "after.json"
        before_path.write_text(json.dumps(before))
        after_path.write_text(json.dumps(after))
        # Regression found -> 1; clean -> 0; missing baseline -> 2.
        assert main([
            "scenarios", "diff", str(after_path), str(before_path)
        ]) == 1
        assert "digest" in capsys.readouterr().out
        assert main([
            "scenarios", "diff", str(before_path), str(before_path)
        ]) == 0
        assert main([
            "scenarios", "diff", str(after_path),
            str(tmp_path / "absent.json"),
        ]) == 2


# ----------------------------------------------------------------------
# Service path seam: bounded/regular through MatchService
# ----------------------------------------------------------------------
class TestServicePathAlgorithms:
    @pytest.fixture(scope="class")
    def fixtures(self):
        runner = ScenarioRunner(get_scenario("paths-bounded"))
        data = runner.build_graph("smoke")
        return data, runner.build_patterns(data)

    def test_bounded_matches_direct_call(self, fixtures):
        from repro.core.bounded import bounded_simulation
        from repro.service import MatchService

        data, bounded_patterns = fixtures
        with MatchService(max_workers=2) as service:
            for bp in bounded_patterns:
                via_service = service.submit(
                    bp, data, algorithm="bounded", engine="kernel"
                ).result()
                direct = bounded_simulation(bp, data, engine="kernel")
                assert canonical_observation(via_service) == (
                    canonical_observation(direct)
                )

    def test_regular_matches_direct_call(self):
        from repro.core.regular import regular_strong_match
        from repro.service import MatchService

        runner = ScenarioRunner(get_scenario("paths-regular"))
        data = runner.build_graph("smoke")
        patterns = runner.build_patterns(data)
        with MatchService(max_workers=2) as service:
            for rp in patterns:
                via_service = service.submit(
                    rp, data, algorithm="regular", engine="python"
                ).result()
                direct = regular_strong_match(rp, data, engine="python")
                assert canonical_observation(via_service) == (
                    canonical_observation(direct)
                )

    def test_path_algorithms_bypass_the_cache(self):
        from repro.service import MatchService

        runner = ScenarioRunner(get_scenario("paths-bounded"))
        data = runner.build_graph("smoke")
        bp = runner.build_patterns(data)[0]
        with MatchService(max_workers=1) as service:
            first = service.submit(bp, data, algorithm="bounded").result()
            second = service.submit(bp, data, algorithm="bounded").result()
            stats = service.stats
        assert canonical_observation(first) == canonical_observation(second)
        assert stats.computed == 2 and stats.replayed == 0
        assert stats.cache.stores == 0

    def test_numpy_engine_rejected_for_paths(self):
        from repro.service import MatchService

        runner = ScenarioRunner(get_scenario("paths-bounded"))
        data = runner.build_graph("smoke")
        bp = runner.build_patterns(data)[0]
        with MatchService(max_workers=1) as service:
            with pytest.raises(ValueError):
                service.submit(bp, data, algorithm="bounded", engine="numpy")

    def test_digest_results_only(self):
        """Two observations with equal results digest equal regardless
        of object identity; order matters (a workload is a sequence)."""
        runner = ScenarioRunner(get_scenario("paths-bounded"))
        data = runner.build_graph("smoke")
        patterns = runner.build_patterns(data)[:2]
        from repro.core.bounded import bounded_simulation

        first = [bounded_simulation(p, data) for p in patterns]
        second = [bounded_simulation(p, data) for p in patterns]
        assert digest_observations(first) == digest_observations(second)
        if len(patterns) == 2 and (
            canonical_observation(first[0]) != canonical_observation(first[1])
        ):
            assert digest_observations(first) != (
                digest_observations(list(reversed(first)))
            )
