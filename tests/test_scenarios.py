"""The scenario harness: digests, case reports, the CLI, the service
path seam.

Four layers under test:

* **Digest determinism** — the seeded smoke matrix must produce one
  digest per (scenario, scale) across every engine and backend, twice
  in a row, matching the pinned ``EXPECTED_DIGESTS``, and must skip no
  cell the platform can run.  Cache blocks are the filled cache's own
  ``CacheStats``.
* **Case reports** — the printed case/digest/gate table, skip reasons,
  and a payload that carries results and counts but no timings.
* **CLI exit codes** — ``repro scenarios list | run``, and no ``diff``.
* **The service path seam** — ``bounded``/``regular`` through
  :class:`MatchService` must equal the direct algorithm calls.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    EXPECTED_DIGESTS,
    EXPECTED_TRAFFIC_DIGESTS,
    SCENARIO_SCHEMA_VERSION,
    ScenarioCaseReport,
    ScenarioRunner,
    canonical_observation,
    digest_halves,
    digest_observations,
    get_scenario,
    matrix_payload,
    render_cases,
    run_matrix,
    scenario_names,
)


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
        # Where numpy and the process backend exist, the matrix must
        # not shrink silently: no cell may come back skipped.
        from repro.core.kernel import NUMPY_AVAILABLE
        from repro.distributed import process_backend_available

        if NUMPY_AVAILABLE and process_backend_available():
            skipped = [case.case_key for case in cases if case.skipped]
            assert not skipped, f"skipped cells: {skipped}"

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
        # The cache block is the cluster result store's own CacheStats:
        # the mid-stream update invalidates both smoke patterns' entries.
        assert report.cache["invalidations"] == 2

    @pytest.mark.parametrize("engine", ["python", "kernel"])
    def test_service_case_cache_block_is_the_services(self, engine):
        """A service case reports its service's own ``CacheStats``: the
        two mutation batches of tenancy-mixed invalidate three cached
        entries, and every computed miss is stored."""
        report = ScenarioRunner(get_scenario("tenancy-mixed")).run_case(
            "smoke", engine
        )
        assert report.cache["invalidations"] == 3
        assert report.cache["hits"] == report.executed["replayed"]
        assert report.cache["misses"] == report.executed["computed"]
        assert report.cache["stores"] == report.executed["computed"]
        assert report.cache["evictions"] == 0

    def test_unknown_scale_reports_skips_not_silence(self):
        cases = run_matrix(["distributed-4site"], "M")
        assert cases and all(case.skipped for case in cases)


class TestDigestHalves:
    @pytest.fixture(scope="class")
    def run_report(self):
        from repro.datasets.paper_figures import data_g1, pattern_q1
        from repro.distributed import Cluster, hash_partition

        data = data_g1(4)
        cluster = Cluster(data, hash_partition(data, 2), 2)
        return cluster.run(pattern_q1())

    def test_result_half_is_the_digest_of_a_stream_without_reports(self):
        from repro.core.strong import match
        from repro.datasets.paper_figures import data_g1, pattern_q1

        stream = [match(pattern_q1(), data_g1(4)), {"note": [1, 2]}]
        result_half, _ = digest_halves(stream)
        assert result_half == digest_observations(stream)

    def test_traffic_moves_only_the_traffic_half(self, run_report):
        from dataclasses import replace

        assert run_report.query_log
        lighter = replace(run_report, query_log=run_report.query_log[:-1])
        result_half, traffic_half = digest_halves([run_report])
        assert digest_halves([lighter])[0] == result_half
        assert digest_halves([lighter])[1] != traffic_half
        # The full digest keeps both: it is what perfbench gates on.
        assert digest_observations([lighter]) != (
            digest_observations([run_report])
        )

    def test_traffic_pin_gates_the_distributed_case(self, monkeypatch, capsys):
        case = ("distributed-4site", "smoke")
        monkeypatch.setitem(EXPECTED_TRAFFIC_DIGESTS, case, "f" * 16)
        code = main([
            "scenarios", "run", "--scenario", "distributed-4site", "--smoke",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIGEST MISMATCH" in out
        assert f"(traffic {'f' * 16})" in out
        # The result half still matched its own pin.
        assert EXPECTED_DIGESTS[case] in out.split("DIGEST MISMATCH")[1]


# ----------------------------------------------------------------------
# Case reports: the printed table and the payload layout
# ----------------------------------------------------------------------
def _case(digest="a" * 16, expected="a" * 16, skipped=None, engine="kernel"):
    return ScenarioCaseReport(
        scenario="match-single", scale="smoke", engine=engine,
        backend=None, digest=digest, expected_digest=expected, queries=4,
        skipped=skipped,
    )


class TestCaseReports:
    def test_render_cases_prints_case_digest_and_gate(self):
        cases = [
            _case(engine="python"),
            _case(digest="b" * 16, engine="kernel"),
            _case(expected=None, engine="numpy"),
        ]
        header, *rows = render_cases(cases).splitlines()
        assert header.split() == ["case", "digest", "gate"]
        assert [row.split() for row in rows] == [
            ["match-single/smoke/python/-", "a" * 16, "ok"],
            ["match-single/smoke/kernel/-", "b" * 16, "FAIL"],
            ["match-single/smoke/numpy/-", "a" * 16, "new"],
        ]

    def test_render_cases_prints_the_skip_reason(self):
        text = render_cases([_case(skipped="numpy is not installed")])
        row = text.splitlines()[1]
        assert row.split()[:3] == ["match-single/smoke/kernel/-", "-", "skip"]
        assert row.endswith("(numpy is not installed)")

    def test_matrix_payload_gates_only_pinned_cases_that_ran(self):
        unpinned = _case(expected=None)
        skipped = _case(digest="", skipped="no numpy")
        payload = matrix_payload([_case(), unpinned, skipped], "smoke")
        assert payload["scenario_schema_version"] == SCENARIO_SCHEMA_VERSION
        assert (payload["ok"], payload["ran"], payload["skipped"]) == (
            True, 2, 1
        )
        assert payload["cases"][2]["skipped"] == "no numpy"
        failing = matrix_payload([_case(), _case(digest="b" * 16)], "smoke")
        assert failing["ok"] is False

    def test_case_payload_carries_no_timings(self):
        report = ScenarioRunner(get_scenario("match-plus-single")).run_case(
            "smoke", "kernel"
        )
        assert set(report.to_payload()) == {
            "scenario", "scale", "engine", "backend", "digest",
            "expected_digest", "digest_ok", "queries", "cache", "executed",
        }
        assert set(report.cache) == {
            "hits", "misses", "hit_rate", "stores", "invalidations",
            "evictions",
        }


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

    def test_run_prints_skipped_cells_with_reasons(self, capsys):
        code = main([
            "scenarios", "run", "--scenario", "distributed-4site",
            "--scale", "M",
        ])
        assert code == 0  # nothing ran, so nothing missed its pin
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == len(get_scenario("distributed-4site").cases())
        for row in rows:
            assert row.split()[2] == "skip"
            assert row.endswith("(scenario has no 'M' scale)")

    def test_diff_subcommand_is_gone(self, capsys):
        """Digests are gated by ``run`` against ``EXPECTED_DIGESTS``;
        there is no second, file-to-file comparison."""
        with pytest.raises(SystemExit) as excinfo:
            main(["scenarios", "diff", "after.json", "before.json"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'diff'" in capsys.readouterr().err


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
