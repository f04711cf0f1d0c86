"""Tests for the experiment registry and the reproduce CLI subcommand."""

import pytest

from repro.cli import main
from repro.experiments.registry import EXPERIMENTS, run_experiment


class TestRegistry:
    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("nope")

    def test_all_experiments_have_docstrings(self):
        for renderer in EXPERIMENTS.values():
            assert renderer.__doc__

    @pytest.mark.parametrize("name", ["table3", "distributed"])
    def test_light_experiments_render(self, name):
        text = run_experiment(name, scale=200)
        assert text.strip()
        assert "\n" in text

    def test_distributed_backends_rows_count_one_query(self):
        """Each backend's fetch-units cell is the timed query's own
        shipment, not the warm-up run's added to it."""
        from repro.datasets import generate_graph
        from repro.datasets.patterns import sample_pattern_from_data
        from repro.distributed import Cluster, bfs_partition

        data = generate_graph(300, alpha=1.15, num_labels=20, seed=37)
        pattern = sample_pattern_from_data(data, 6, seed=501)
        with Cluster(data, bfs_partition(data, 4), 4) as cluster:
            one_query = cluster.run(pattern).data_shipment_units
        assert one_query > 0
        text = run_experiment("distributed-backends", scale=300)
        rows = [line.split() for line in text.splitlines()[3:]]
        assert rows and rows[0][0] == "inproc"
        assert [int(row[2]) for row in rows] == [one_query] * len(rows)

    def test_quality_experiment_renders_all_datasets(self):
        text = run_experiment("fig7-closeness-vq", scale=200)
        for dataset in ("Amazon", "YouTube", "Synthetic"):
            assert dataset in text


class TestReproduceCli:
    def test_listing(self, capsys):
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "distributed" in out

    def test_unknown_name_exit_code(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_smoke_matrix_is_not_an_experiment(self, capsys):
        """The smoke matrix runs as ``repro scenarios run --smoke`` only."""
        assert "scenario-matrix" not in EXPERIMENTS
        assert main(["reproduce", "scenario-matrix"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_render_via_cli(self, capsys):
        assert main(["reproduce", "table3", "--scale", "200"]) == 0
        assert "Table 3" in capsys.readouterr().out
