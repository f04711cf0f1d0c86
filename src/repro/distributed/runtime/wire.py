"""Version-stamped wire forms for the process-based distributed runtime.

The in-process cluster passes rich objects between coordinator and
workers by reference; a process-backed cluster cannot.  ``DiGraph`` (and
everything wrapping one — ``Pattern``, ``PerfectSubgraph``) holds weak
references to its delta subscribers, which makes it unpicklable by
design; fragments and deltas *are* picklable but shipping live objects
would silently couple the two sides to implementation details of the
current build.  This module therefore defines explicit wire forms for
exactly the payloads the runtime protocol ships:

* **fragments** — the one-time site bootstrap (node table in fragment
  insertion order, so the child's center iteration matches the
  coordinator's, adjacency as indices into that table, the
  ``remote_owner`` routing table with its stub node ids);
* **patterns** — the per-query broadcast;
* **GraphDelta streams** — the mutation pipeline's update routing;
* **partial-result sets** — each site's Θ_i shipped back to the
  coordinator;
* **per-site bus accounting** — the fetch charges a worker accrued,
  replayed verbatim onto the coordinator's bus so the protocol
  observation is byte-identical to the in-process backend.

Fetched node records and the dual filter's ``(node, pattern nodes)``
entries cross as plain tuples of ids and labels, which the process
backend already requires to be picklable.  Cached distributed results
have no wire form: a cluster's result store lives with the coordinator
and never crosses a process boundary, so its payloads stay plain
in-process tuples.

Every payload is wrapped ``(magic, version, kind, body)``.  Decoding
validates all three header fields and the body shape and raises
:class:`~repro.exceptions.WireFormatError` on any mismatch, so a frame
from an incompatible runtime version (or a stray object on the pipe)
fails loud at the boundary instead of corrupting a worker.  Round-trips
are exact: ``decode(encode(x))`` reproduces ``x`` including node
insertion order, stub/remote ids and arbitrary hashable node ids and
labels (``None`` included — no wire field uses ``None`` as a sentinel).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DiGraph,
    GraphDelta,
)
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.result import PerfectSubgraph
from repro.distributed.fragment import Fragment
from repro.exceptions import WireFormatError
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    get_registry as _obs_registry,
)
from repro.obs.trace import Span, span_from_dict, span_to_dict

#: Bump when any wire form changes shape; both ends must agree exactly.
WIRE_VERSION = 2

_MAGIC = "repro-wire"

#: The payload kinds this protocol ships.
KIND_FRAGMENT = "fragment"
KIND_PATTERN = "pattern"
KIND_DELTAS = "deltas"
KIND_PARTIALS = "partials"
KIND_BUS_LOG = "bus-log"
KIND_SPAN = "span"
KIND_METRICS = "metrics"


def _stamp(kind: str, body: tuple) -> tuple:
    _obs_registry().counter("wire.frames", kind=kind, op="encode").inc()
    return (_MAGIC, WIRE_VERSION, kind, body)


def _unstamp(kind: str, wire: object) -> tuple:
    """Validate the ``(magic, version, kind, body)`` envelope."""
    _obs_registry().counter("wire.frames", kind=kind, op="decode").inc()
    if not isinstance(wire, tuple) or len(wire) != 4:
        raise WireFormatError(
            f"malformed wire frame: expected a 4-tuple envelope, "
            f"got {type(wire).__name__}"
        )
    magic, version, observed_kind, body = wire
    if magic != _MAGIC:
        raise WireFormatError(f"bad wire magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"wire version {version!r} is not the supported {WIRE_VERSION}"
        )
    if observed_kind != kind:
        raise WireFormatError(
            f"expected a {kind!r} payload, got {observed_kind!r}"
        )
    if not isinstance(body, tuple):
        raise WireFormatError(
            f"malformed {kind!r} body: expected tuple, "
            f"got {type(body).__name__}"
        )
    return body


# ======================================================================
# Fragments
# ======================================================================
def encode_fragment(fragment: Fragment) -> tuple:
    """One site's shard: the bootstrap payload a worker process receives.

    The node table lists owned nodes first, *in fragment insertion
    order* (which is data-graph node order restricted to the site — the
    center iteration order both engines share), then the remote stubs of
    ``remote_owner``.  Adjacency rows are index tuples into that table,
    so arbitrary node ids are interned once each.
    """
    owned = list(fragment.labels)
    remotes = list(fragment.remote_owner)
    table: Dict[object, int] = {
        node: i for i, node in enumerate(owned + remotes)
    }
    succ_rows = tuple(
        tuple(table[t] for t in fragment.succ[node]) for node in owned
    )
    pred_rows = tuple(
        tuple(table[s] for s in fragment.pred[node]) for node in owned
    )
    body = (
        fragment.site_id,
        tuple(owned),
        tuple(fragment.labels[node] for node in owned),
        succ_rows,
        pred_rows,
        tuple(remotes),
        tuple(fragment.remote_owner[node] for node in remotes),
    )
    return _stamp(KIND_FRAGMENT, body)


def decode_fragment(wire: object) -> Fragment:
    """Rebuild a :class:`Fragment` from its wire form."""
    body = _unstamp(KIND_FRAGMENT, wire)
    try:
        site_id, owned, labels, succ_rows, pred_rows, remotes, sites = body
        fragment = Fragment(site_id)
        table: List[object] = list(owned) + list(remotes)
        for node, label in zip(owned, labels):
            fragment.labels[node] = label
        for node, row in zip(owned, succ_rows):
            fragment.succ[node] = {table[i] for i in row}
        for node, row in zip(owned, pred_rows):
            fragment.pred[node] = {table[i] for i in row}
        for node, site in zip(remotes, sites):
            fragment.remote_owner[node] = site
    except (ValueError, TypeError, IndexError) as exc:
        raise WireFormatError(f"malformed fragment body: {exc}") from exc
    if not (
        len(owned) == len(labels) == len(succ_rows) == len(pred_rows)
    ) or len(remotes) != len(sites):
        raise WireFormatError("fragment body sections disagree on length")
    return fragment


# ======================================================================
# Patterns
# ======================================================================
def encode_pattern(pattern: Pattern) -> tuple:
    """The per-query broadcast: nodes (insertion order), labels, edges."""
    nodes = list(pattern.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    body = (
        tuple(nodes),
        tuple(pattern.label(node) for node in nodes),
        tuple((index[a], index[b]) for a, b in pattern.edges()),
    )
    return _stamp(KIND_PATTERN, body)


def decode_pattern(wire: object) -> Pattern:
    """Rebuild a :class:`Pattern`; re-validates connectivity on arrival."""
    body = _unstamp(KIND_PATTERN, wire)
    try:
        nodes, labels, edges = body
        if len(nodes) != len(labels):
            raise WireFormatError("pattern nodes/labels disagree on length")
        graph = DiGraph._build_unchecked(
            zip(nodes, labels),
            [(nodes[a], nodes[b]) for a, b in edges],
        )
    except WireFormatError:
        raise
    except (ValueError, TypeError, IndexError, KeyError) as exc:
        raise WireFormatError(f"malformed pattern body: {exc}") from exc
    return Pattern(graph)


# ======================================================================
# GraphDelta streams
# ======================================================================
_NODE_KINDS = (ADD_NODE, REMOVE_NODE)
_EDGE_KINDS = (ADD_EDGE, REMOVE_EDGE)


def _delta_body(delta: GraphDelta) -> tuple:
    kind = delta.kind
    if kind in _EDGE_KINDS:
        return (kind, delta.source, delta.target)
    if kind in _NODE_KINDS:
        return (kind, delta.node, delta.label)
    if kind == RELABEL:
        return (kind, delta.node, delta.label, delta.old_label)
    raise WireFormatError(f"unknown graph delta kind {kind!r}")


def _delta_from_body(body: object) -> GraphDelta:
    if not isinstance(body, tuple) or not body:
        raise WireFormatError("malformed delta entry")
    kind = body[0]
    if kind in _EDGE_KINDS and len(body) == 3:
        return GraphDelta(kind, source=body[1], target=body[2])
    if kind in _NODE_KINDS and len(body) == 3:
        return GraphDelta(kind, node=body[1], label=body[2])
    if kind == RELABEL and len(body) == 4:
        return GraphDelta(kind, node=body[1], label=body[2], old_label=body[3])
    raise WireFormatError(f"malformed delta entry for kind {kind!r}")


def encode_deltas(deltas: Sequence[GraphDelta]) -> tuple:
    """A delta group (one mutation, or a whole ``batch()`` delivery)."""
    return _stamp(KIND_DELTAS, tuple(_delta_body(d) for d in deltas))


def decode_deltas(wire: object) -> Tuple[GraphDelta, ...]:
    """Rebuild a delta group in delivery order."""
    body = _unstamp(KIND_DELTAS, wire)
    return tuple(_delta_from_body(entry) for entry in body)


# ======================================================================
# Partial-result sets
# ======================================================================
def encode_partials(partial: Sequence[PerfectSubgraph]) -> tuple:
    """A site's partial Θ_i, in discovery (center) order.

    Each subgraph ships its node/label pairs, its edge list, the
    discovering center, and the restricted match relation as
    ``(pattern key, member tuple)`` pairs — the relation's own keys, so
    ``match_plus`` quotient-class keys ride through unchanged.
    """
    entries = []
    for subgraph in partial:
        graph = subgraph.graph
        entries.append(
            (
                tuple((node, graph.label(node)) for node in graph.nodes()),
                tuple(graph.edges()),
                subgraph.center,
                tuple(
                    (u, tuple(subgraph.relation.matches_of_raw(u)))
                    for u in subgraph.relation.pattern_nodes()
                ),
            )
        )
    return _stamp(KIND_PARTIALS, tuple(entries))


def decode_partials(wire: object) -> List[PerfectSubgraph]:
    """Rebuild a partial-result list in shipped order."""
    body = _unstamp(KIND_PARTIALS, wire)
    partial: List[PerfectSubgraph] = []
    try:
        for nodes, edges, center, relation in body:
            graph = DiGraph._build_unchecked(nodes, edges)
            sim = {u: set(members) for u, members in relation}
            partial.append(PerfectSubgraph(graph, MatchRelation(sim), center))
    except (ValueError, TypeError, KeyError) as exc:
        raise WireFormatError(f"malformed partial-result body: {exc}") from exc
    return partial


# ======================================================================
# Per-site bus accounting
# ======================================================================
def encode_bus_log(log: Sequence[Tuple[int, int, str, int]]) -> tuple:
    """The ``(sender, receiver, kind, units)`` charges a worker accrued."""
    return _stamp(KIND_BUS_LOG, tuple(tuple(entry) for entry in log))


def decode_bus_log(wire: object) -> List[Tuple[int, int, str, int]]:
    """Rebuild a bus log in charge order."""
    body = _unstamp(KIND_BUS_LOG, wire)
    log = []
    for entry in body:
        if not isinstance(entry, tuple) or len(entry) != 4:
            raise WireFormatError("malformed bus-log entry")
        log.append(entry)
    return log


# ======================================================================
# Trace span subtrees (the merged distributed trace)
# ======================================================================
def encode_span(span_obj: "Span | None") -> tuple:
    """A worker's traced ``site.evaluate`` subtree — or its absence.

    The body is a 0- or 1-entry tuple so "tracing was off for this
    query" ships as an explicit empty frame rather than an out-of-band
    ``None``; the entry is the subtree's plain-data form,
    :func:`~repro.obs.trace.span_to_dict`.  Timings stay in the worker's
    own monotonic clock (only durations are meaningful
    coordinator-side).
    """
    if span_obj is None:
        return _stamp(KIND_SPAN, ())
    return _stamp(KIND_SPAN, (span_to_dict(span_obj),))


def decode_span(wire: object) -> "Span | None":
    """Rebuild a shipped span subtree (``None`` for the empty frame)."""
    body = _unstamp(KIND_SPAN, wire)
    if not body:
        return None
    if len(body) != 1:
        raise WireFormatError("malformed span body: expected one root")
    try:
        return span_from_dict(body[0])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireFormatError(f"malformed span entry: {exc!r}") from exc


# ======================================================================
# Metrics snapshots
# ======================================================================
def encode_metrics(snapshot: Dict[str, object]) -> tuple:
    """A registry snapshot in wire form (sorted, all-tuple body)."""
    try:
        body = (
            snapshot.get("schema_version", METRICS_SCHEMA_VERSION),
            tuple(sorted(snapshot.get("counters", {}).items())),
            tuple(
                sorted(
                    (key, tuple(data["counts"]), data["sum"], data["count"])
                    for key, data in snapshot.get("histograms", {}).items()
                )
            ),
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise WireFormatError(f"malformed metrics snapshot: {exc}") from exc
    return _stamp(KIND_METRICS, body)


def decode_metrics(wire: object) -> Dict[str, object]:
    """Rebuild a snapshot dict (mergeable via ``merge_snapshots``)."""
    body = _unstamp(KIND_METRICS, wire)
    if len(body) != 3:
        raise WireFormatError("malformed metrics body")
    version, counters, histograms = body
    if version != METRICS_SCHEMA_VERSION:
        raise WireFormatError(
            f"metrics schema {version!r} is not the supported "
            f"{METRICS_SCHEMA_VERSION}"
        )
    try:
        return {
            "schema_version": version,
            "counters": dict(counters),
            "histograms": {
                key: {"counts": list(counts), "sum": total, "count": count}
                for key, counts, total, count in histograms
            },
        }
    except (ValueError, TypeError) as exc:
        raise WireFormatError(f"malformed metrics body: {exc}") from exc
