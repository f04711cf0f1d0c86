"""The engine table is the one place that picks an implementation.

:data:`repro.core.engines.ENGINE_TABLE` decides which implementation
computes each algorithm on each engine.  These tests check that every
public entry point and every stateful substrate takes its
implementation from the table rather than from a name comparison of its
own: a spy swapped into one cell must be the code that runs, and the
``compiled`` flag alone must pick the substrate.  Output identity across
the rows is the differential harness's job (``tests/engines.py``).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.core.engines import ENGINE_TABLE
from repro.core.incremental import (
    IncrementalDualSimulation,
    IncrementalMatcher,
)
from repro.core.kernel import _INDEX_CACHE
from repro.core.matchplus import match_plus
from repro.core.simulation import graph_simulation
from repro.core.strong import match, matches_via_strong_simulation
from repro.datasets.paper_figures import data_g2, pattern_q2
from repro.distributed import Cluster
from repro.distributed.worker import SiteWorker
from repro.io.jsonio import pattern_to_dict, write_graph_json
from repro.service import MatchService

from tests.engines import ENGINES, canonical_result


# ----------------------------------------------------------------------
# Routing: the public entry points read their cell from the table
# ----------------------------------------------------------------------
class _Spy:
    """Wraps one table cell: records that it ran, then delegates."""

    def __init__(self, cell):
        self.cell = cell
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.cell(*args, **kwargs)


def _install_spy(monkeypatch, engine: str, cell: str) -> _Spy:
    row = ENGINE_TABLE[engine]
    spy = _Spy(getattr(row, cell))
    monkeypatch.setitem(ENGINE_TABLE, engine, replace(row, **{cell: spy}))
    return spy


def _run_service_dual(pattern, data, engine):
    service = MatchService(max_workers=1, cache_size=0)
    try:
        return service.query(pattern, data, "dual", engine)
    finally:
        service.close()


#: entry point -> (the table cell it must read, runner(pattern, data, engine)).
ROUTED_ENTRY_POINTS = {
    "match": ("match", lambda p, g, e: match(p, g, engine=e)),
    "matches_via_strong_simulation": (
        "match_plus",
        lambda p, g, e: matches_via_strong_simulation(p, g, engine=e),
    ),
    "match_plus": ("match_plus", lambda p, g, e: match_plus(p, g, engine=e)),
    "graph_simulation": (
        "sim", lambda p, g, e: graph_simulation(p, g, engine=e)
    ),
    "service_dual": ("dual", _run_service_dual),
    "IncrementalDualSimulation": (
        "dual",
        lambda p, g, e: IncrementalDualSimulation(p, g, engine=e).relation,
    ),
}


class TestRouting:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("entry", sorted(ROUTED_ENTRY_POINTS))
    def test_entry_point_reads_its_cell(self, monkeypatch, entry, engine):
        cell, run = ROUTED_ENTRY_POINTS[entry]
        pattern, data = pattern_q2(), data_g2()
        expected = run(pattern, data, engine)
        spy = _install_spy(monkeypatch, engine, cell)
        observed = run(pattern, data, engine)
        assert spy.calls == 1, (
            f"{entry} bypassed ENGINE_TABLE[{engine!r}].{cell}"
        )
        if isinstance(expected, bool):
            assert observed is expected
        elif cell in ("match", "match_plus"):
            assert canonical_result(observed) == canonical_result(expected)
        else:
            assert observed.pair_set() == expected.pair_set()

    @pytest.mark.parametrize("algorithm, cell", [("dual", "dual"),
                                                 ("sim", "sim")])
    def test_cli_relation_algorithms_read_their_cell(
        self, monkeypatch, tmp_path, capsys, algorithm, cell
    ):
        graph_path = tmp_path / "g2.json"
        write_graph_json(data_g2(), graph_path)
        pattern_path = tmp_path / "q2.json"
        pattern_path.write_text(json.dumps(pattern_to_dict(pattern_q2())))
        spy = _install_spy(monkeypatch, "kernel", cell)
        code = main([
            "match", "--data", str(graph_path), "--pattern",
            str(pattern_path), "--algorithm", algorithm,
            "--engine", "kernel",
        ])
        assert code == 0
        assert spy.calls == 1
        assert "book2" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Stateful substrates follow the table: the compiled flag for the site
# workers, the dual cell for the incremental classes
# ----------------------------------------------------------------------
class TestSubstrates:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "cls", [IncrementalDualSimulation, IncrementalMatcher],
        ids=lambda cls: cls.__name__,
    )
    def test_incremental_substrate_follows_compiled_flag(self, cls, engine):
        data = data_g2()
        assert _INDEX_CACHE.get(data) is None  # nothing compiled
        cls(pattern_q2(), data, engine=engine)
        # Both classes keep the reference dicts and call the row's
        # `dual` cell: the compiled rows' cell runs over the graph's
        # cached GraphIndex, the reference cell leaves it uncompiled.
        compiled = _INDEX_CACHE.get(data) is not None
        assert compiled == ENGINE_TABLE[engine].compiled

    @pytest.mark.parametrize("engine", ENGINES)
    def test_site_worker_substrate_follows_compiled_flag(
        self, monkeypatch, engine
    ):
        ran = []
        for name in ("_match_local_kernel", "_match_local_python"):
            original = getattr(SiteWorker, name)

            def spy(self, *args, _original=original, _name=name, **kwargs):
                ran.append(_name)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(SiteWorker, name, spy)
        data = data_g2()
        nodes = sorted(data.nodes(), key=repr)
        assignment = {node: i % 2 for i, node in enumerate(nodes)}
        cluster = Cluster(data, assignment, 2, engine=engine,
                          backend="inproc")
        try:
            report = cluster.run(pattern_q2())
        finally:
            cluster.close()
        expected = (
            "_match_local_kernel" if ENGINE_TABLE[engine].compiled
            else "_match_local_python"
        )
        assert ran and set(ran) == {expected}
        assert canonical_result(report.result) == canonical_result(
            match(pattern_q2(), data_g2(), engine="python")
        )
