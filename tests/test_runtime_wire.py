"""Wire-format round-trips: every runtime payload survives bit-exactly.

The process runtime works only if its wire forms are lossless: a
fragment that decodes with a reordered node table would silently change
center iteration order (and with it per-site counts); a dropped stub id
would break routing; a mangled relation would corrupt results.  These
tests drive :mod:`repro.distributed.runtime.wire` with
hypothesis-generated graphs, partitions, patterns, mutation streams and
result sets — including tombstoned (in-group-removed) and stub (remote)
node ids, and adversarial node ids like ``None``, negative ints and
tuples — and assert exact reconstruction, plus loud rejection of
malformed or version-skewed frames.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.digraph import DiGraph
from repro.core.strong import match
from repro.distributed.fragment import fragment_graph
from repro.distributed.runtime import wire
from repro.exceptions import WireFormatError

from tests.conftest import (
    graph_seeds,
    pattern_seeds,
    random_connected_pattern,
    random_digraph,
)
from tests.engines import DeltaRecorder, canonical_result, random_mutation

#: Hashable-but-awkward node ids the wire layer must pass through
#: untouched: ``None`` (must not collide with any internal sentinel),
#: negative ints, empty string, a tuple, and a bool (hash-equal to 1).
ODD_IDS = [None, -3, "", ("composite", 0), True]


def _odd_graph() -> DiGraph:
    graph = DiGraph()
    for i, node in enumerate(ODD_IDS):
        graph.add_node(node, None if i % 2 else f"l{i}")
    graph.add_edge(None, -3)
    graph.add_edge(-3, ("composite", 0))
    graph.add_edge(("composite", 0), None)
    graph.add_edge("", True)
    return graph


def _random_assignment(data, num_sites, seed):
    rng = random.Random(seed)
    return {node: rng.randrange(num_sites) for node in data.nodes()}


def _assert_fragment_equal(observed, expected) -> None:
    assert observed.site_id == expected.site_id
    assert observed.labels == expected.labels
    assert list(observed.labels) == list(expected.labels), (
        "fragment node insertion order must survive the wire — it is the "
        "center iteration order of the protocol"
    )
    assert observed.succ == expected.succ
    assert observed.pred == expected.pred
    assert observed.remote_owner == expected.remote_owner


class TestFragmentRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=graph_seeds,
        num_sites=st.integers(min_value=1, max_value=4),
        assign_seed=st.integers(min_value=0, max_value=100),
    )
    def test_random_partitions(self, seed, num_sites, assign_seed):
        data = random_digraph(seed, max_nodes=14, edge_prob=0.3)
        assignment = _random_assignment(data, num_sites, assign_seed)
        for fragment in fragment_graph(data, assignment, num_sites):
            decoded = wire.decode_fragment(wire.encode_fragment(fragment))
            _assert_fragment_equal(decoded, fragment)

    def test_odd_node_ids_and_stubs(self):
        """``None``/tuple/bool ids and cross-site stubs ride through."""
        data = _odd_graph()
        assignment = {node: i % 2 for i, node in enumerate(data.nodes())}
        for fragment in fragment_graph(data, assignment, 2):
            assert fragment.remote_owner, "partition must create stubs"
            decoded = wire.decode_fragment(wire.encode_fragment(fragment))
            _assert_fragment_equal(decoded, fragment)


class TestPatternRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=pattern_seeds)
    def test_random_patterns(self, seed):
        pattern = random_connected_pattern(seed, max_nodes=6)
        decoded = wire.decode_pattern(wire.encode_pattern(pattern))
        assert decoded.graph.same_as(pattern.graph)
        assert list(decoded.nodes()) == list(pattern.nodes())
        assert decoded.diameter == pattern.diameter

    def test_disconnected_pattern_rejected_on_decode(self):
        pattern = random_connected_pattern(3, max_nodes=4)
        stamped = wire.encode_pattern(pattern)
        magic, version, kind, (nodes, labels, edges) = stamped
        tampered = (
            magic, version, kind,
            (nodes + ("lonely",), labels + ("l0",), edges),
        )
        from repro.exceptions import PatternError

        with pytest.raises(PatternError):
            wire.decode_pattern(tampered)


class TestDeltaRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(seed=graph_seeds, op_seed=st.integers(min_value=0, max_value=500))
    def test_random_mutation_streams(self, seed, op_seed):
        """A recorded stream — including remove_node batches whose edge
        deltas reference already-tombstoned nodes — decodes verbatim."""
        graph = random_digraph(seed, max_nodes=10, edge_prob=0.3)
        recorder = DeltaRecorder(graph)
        rng = random.Random(op_seed)
        fresh = 50_000
        for _ in range(12):
            if random_mutation(rng, graph, fresh) is not None:
                fresh += 1
        deltas = tuple(recorder.drain())
        decoded = wire.decode_deltas(wire.encode_deltas(deltas))
        assert decoded == deltas  # GraphDelta is a frozen dataclass

    def test_odd_ids_in_deltas(self):
        graph = _odd_graph()
        recorder = DeltaRecorder(graph)
        graph.relabel_node(None, None)
        graph.remove_node(-3)  # batch: edge tombstones + node removal
        graph.add_node(("fresh", None), "l9")
        deltas = tuple(recorder.drain())
        assert wire.decode_deltas(wire.encode_deltas(deltas)) == deltas


class TestPartialsRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(seed=graph_seeds, pattern_seed=pattern_seeds)
    def test_match_results_ride_through(self, seed, pattern_seed):
        data = random_digraph(seed, max_nodes=12, edge_prob=0.3)
        pattern = random_connected_pattern(pattern_seed, max_nodes=3)
        subgraphs = list(match(pattern, data))
        decoded = wire.decode_partials(wire.encode_partials(subgraphs))
        assert len(decoded) == len(subgraphs)
        for observed, expected in zip(decoded, subgraphs):
            assert observed.graph.same_as(expected.graph)
            assert list(observed.graph.nodes()) == list(
                expected.graph.nodes()
            )
            assert observed.center == expected.center
            assert (
                observed.relation.pair_set() == expected.relation.pair_set()
            )
        assert canonical_result(decoded) == canonical_result(subgraphs)


class TestBusLogRoundTrip:
    def test_log_rides_through_in_order(self):
        log = [(0, 1, "fetch", 7), (2, 0, "fetch", 1), (1, 2, "update", 1)]
        assert wire.decode_bus_log(wire.encode_bus_log(log)) == log


class TestEnvelopeValidation:
    def test_version_skew_rejected(self):
        stamped = wire.encode_bus_log([(0, 1, "fetch", 1)])
        magic, _, kind, body = stamped
        with pytest.raises(WireFormatError, match="version"):
            wire.decode_bus_log((magic, wire.WIRE_VERSION + 1, kind, body))

    def test_bad_magic_rejected(self):
        stamped = wire.encode_bus_log([])
        _, version, kind, body = stamped
        with pytest.raises(WireFormatError, match="magic"):
            wire.decode_bus_log(("weird", version, kind, body))

    def test_kind_confusion_rejected(self):
        """A frame of one kind must not decode as another."""
        pattern = random_connected_pattern(1, max_nodes=3)
        with pytest.raises(WireFormatError, match="expected"):
            wire.decode_fragment(wire.encode_pattern(pattern))

    @pytest.mark.parametrize(
        "frame", [None, 42, ("repro-wire",), ("repro-wire", 1, "bus-log", [])]
    )
    def test_malformed_frames_rejected(self, frame):
        with pytest.raises(WireFormatError):
            wire.decode_bus_log(frame)

    def test_truncated_fragment_body_rejected(self):
        graph = random_digraph(5, max_nodes=8)
        assignment = {node: 0 for node in graph.nodes()}
        fragment = fragment_graph(graph, assignment, 1)[0]
        magic, version, kind, body = wire.encode_fragment(fragment)
        with pytest.raises(WireFormatError):
            wire.decode_fragment((magic, version, kind, body[:-2]))
