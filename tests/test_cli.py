"""Tests for the command-line interface."""

import gc
import json

import pytest

from repro.cli import build_parser, main
from repro.core.pattern import Pattern
from repro.io.jsonio import pattern_to_dict, write_graph_json
from repro.obs import get_registry
from repro.datasets.paper_figures import data_g2, pattern_q2


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g2.json"
    write_graph_json(data_g2(), path)
    return str(path)


@pytest.fixture
def pattern_file(tmp_path):
    path = tmp_path / "q2.json"
    path.write_text(json.dumps(pattern_to_dict(pattern_q2())))
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_defaults(self):
        args = build_parser().parse_args(
            ["match", "--data", "d", "--pattern", "p"]
        )
        assert args.algorithm == "strong-plus"
        assert args.format == "json"


class TestMatchCommand:
    def test_strong_match(self, graph_file, pattern_file, capsys):
        code = main(["match", "--data", graph_file, "--pattern", pattern_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "perfect subgraph" in out
        assert "book2" in out

    def test_plain_strong_algorithm(self, graph_file, pattern_file, capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "strong",
        ])
        assert code == 0
        assert "book2" in capsys.readouterr().out

    def test_sim_algorithm(self, graph_file, pattern_file, capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "sim",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "book1" in out  # simulation keeps the bad book

    def test_dual_algorithm(self, graph_file, pattern_file, capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "dual",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "book2" in out
        assert "book1" not in out

    def test_no_match_exit_code(self, tmp_path, graph_file, capsys):
        pattern = Pattern.build({"z": "ZZZ"}, [])
        path = tmp_path / "never.json"
        path.write_text(json.dumps(pattern_to_dict(pattern)))
        code = main(["match", "--data", graph_file, "--pattern", str(path)])
        assert code == 1
        assert "no match" in capsys.readouterr().out

    def test_top_k_and_out(self, tmp_path, graph_file, pattern_file, capsys):
        out_path = tmp_path / "result.json"
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--top", "1", "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["num_subgraphs"] >= 1


class TestGenerateAndInfo:
    def test_generate_synthetic_json(self, tmp_path, capsys):
        out = tmp_path / "syn.json"
        code = main([
            "generate", "--kind", "synthetic", "--nodes", "30",
            "--labels", "4", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["nodes"]) == 30

    def test_generate_amazon_edgelist(self, tmp_path, capsys):
        out = tmp_path / "amz.txt"
        code = main([
            "generate", "--kind", "amazon", "--nodes", "50",
            "--format", "edgelist", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_info(self, graph_file, capsys):
        code = main(["info", "--data", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes:  5" in out
        assert "connected components" in out

    def test_info_edgelist_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main([
            "generate", "--kind", "youtube", "--nodes", "40",
            "--format", "edgelist", "--out", str(out),
        ])
        capsys.readouterr()
        code = main(["info", "--data", str(out), "--format", "edgelist"])
        assert code == 0
        assert "nodes:  40" in capsys.readouterr().out


class TestDistributedCommand:
    def test_single_run_has_no_cache_line(
        self, graph_file, pattern_file, capsys
    ):
        code = main([
            "distributed", "--data", graph_file, "--pattern", pattern_file,
            "--sites", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "data shipment" in out
        assert "distributed cache" not in out
        # Every traffic kind is listed, and the kinds add up to the
        # printed total.
        (line,) = [x for x in out.splitlines() if x.startswith("traffic:")]
        head, listed = line[:-1].split(" (")
        kinds = dict(field.split("=") for field in listed.split(", "))
        assert set(kinds) == {"query", "filter", "fetch", "result"}
        assert head.endswith(f" {sum(int(v) for v in kinds.values())} units")

    def test_repeat_reports_cache_accounting(
        self, tmp_path, graph_file, pattern_file, capsys
    ):
        out_path = tmp_path / "metrics.prom"
        # cache.* folds every live cache: count from what is live now.
        gc.collect()
        before = get_registry().snapshot()["counters"]
        code = main([
            "distributed", "--data", graph_file, "--pattern", pattern_file,
            "--sites", "2", "--repeat", "3", "--metrics-out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "distributed cache: 1 computed, 2 replayed over 3 runs" in out
        assert "version vector (0, 0)" in out
        # The cluster's result store belongs to no service, yet its
        # hits, miss and store reach the cache.* metrics.
        exposed = dict(
            line.rsplit(" ", 1)
            for line in out_path.read_text().splitlines()
            if line.startswith("repro_cache_")
        )
        for name, served in (("hits", 2), ("misses", 1), ("stores", 1)):
            assert int(exposed[f"repro_cache_{name}"]) == (
                before.get(f"cache.{name}", 0) + served
            )


@pytest.fixture
def stream_file(tmp_path):
    """Three match-plus queries and one ``strong`` (alias of ``match``)."""
    pattern = pattern_to_dict(pattern_q2())
    path = tmp_path / "stream.json"
    path.write_text(json.dumps({"queries": [
        {"pattern": pattern, "algorithm": "match-plus", "count": 3},
        {"pattern": pattern, "algorithm": "strong"},
    ]}))
    return str(path)


class TestWorkloadCommand:
    def _run(self, graph_file, stream_file, *extra):
        return main([
            "workload", "--data", graph_file, "--queries", stream_file,
            "--workers", "1", *extra,
        ])

    def test_reports_throughput_and_cache_accounting(
        self, graph_file, stream_file, capsys
    ):
        assert self._run(graph_file, stream_file) == 0
        out = capsys.readouterr().out
        assert "served 4 queries in " in out and " q/s) on 1 worker(s)" in out
        assert "algorithms: match=1, match-plus=3" in out
        assert "non-empty results: 4/4" in out
        assert "cache: 2 hits / 2 misses (hit rate 50.0%), 2 stores" in out
        assert "executed: 2 computed, 2 replayed from cache" in out
        # Throughput is the only timing the command prints.
        for word in ("p50", "p99", "latency"):
            assert word not in out

    def test_no_cache_computes_every_query(
        self, graph_file, stream_file, capsys
    ):
        assert self._run(graph_file, stream_file, "--no-cache") == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert "executed: 4 computed, 0 replayed from cache" in out

    def test_unknown_algorithm_exits_two(self, tmp_path, graph_file, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([
            {"pattern": pattern_to_dict(pattern_q2()), "algorithm": "vf3"},
        ]))
        assert self._run(graph_file, str(path)) == 2
        out = capsys.readouterr().out
        assert "unknown algorithm 'vf3'" in out
        assert "strong-plus" in out

    def test_metrics_out_exposes_service_histograms(
        self, tmp_path, graph_file, stream_file, capsys
    ):
        out_path = tmp_path / "metrics.prom"
        assert self._run(
            graph_file, stream_file, "--metrics-out", str(out_path)
        ) == 0
        assert "metrics exposition written to" in capsys.readouterr().out
        text = out_path.read_text()
        assert "# TYPE repro_service_query_seconds histogram" in text
        assert (
            'repro_service_query_seconds_bucket{algorithm="match-plus",'
            'le="+Inf"}'
        ) in text
        assert "repro_service_queue_wait_seconds_count" in text


@pytest.fixture
def paths_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "edges": [
            {"source": "ST", "target": "B", "bound": 2},
            {"source": "TE", "target": "B", "bound": None, "regex": ".*"},
        ],
        "radius": 3,
    }))
    return str(path)


class TestPathAlgorithms:
    def test_bounded_algorithm(self, tmp_path, graph_file, pattern_file,
                               capsys):
        spec = tmp_path / "bounds.json"
        spec.write_text(json.dumps({"edges": [
            {"source": "ST", "target": "B", "bound": 2},
            {"source": "TE", "target": "B", "bound": None},
        ]}))
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "bounded", "--paths-spec", str(spec),
        ])
        assert code == 0
        assert "match relation" in capsys.readouterr().out

    def test_bounded_without_spec_defaults_to_simulation(
        self, graph_file, pattern_file, capsys
    ):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "bounded",
        ])
        assert code == 0
        assert "match relation" in capsys.readouterr().out

    def test_regular_algorithm(self, graph_file, pattern_file,
                               paths_spec_file, capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "regular", "--paths-spec", paths_spec_file,
        ])
        assert code == 0
        assert "perfect subgraph" in capsys.readouterr().out

    def test_engines_agree(self, graph_file, pattern_file, paths_spec_file,
                           capsys):
        outputs = {}
        for engine in ("python", "kernel"):
            code = main([
                "match", "--data", graph_file, "--pattern", pattern_file,
                "--algorithm", "regular", "--paths-spec", paths_spec_file,
                "--engine", engine,
            ])
            assert code == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["python"] == outputs["kernel"]

    def test_regex_in_bounded_spec_rejected(self, graph_file, pattern_file,
                                            paths_spec_file, capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "bounded", "--paths-spec", paths_spec_file,
        ])
        assert code == 2
        assert "regular" in capsys.readouterr().out

    def test_numpy_engine_rejected(self, graph_file, pattern_file, capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "bounded", "--engine", "numpy",
        ])
        assert code == 2
        assert "numpy" in capsys.readouterr().out

    def test_bad_spec_edge_rejected(self, tmp_path, graph_file, pattern_file,
                                    capsys):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({"edges": [
            {"source": "B", "target": "ST", "bound": 2},  # not a pattern edge
        ]}))
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "bounded", "--paths-spec", str(spec),
        ])
        assert code == 2
        assert "bad paths spec" in capsys.readouterr().out

    def test_spec_with_other_algorithm_rejected(self, graph_file,
                                                pattern_file, paths_spec_file,
                                                capsys):
        code = main([
            "match", "--data", graph_file, "--pattern", pattern_file,
            "--algorithm", "dual", "--paths-spec", paths_spec_file,
        ])
        assert code == 2
        assert "--paths-spec" in capsys.readouterr().out
