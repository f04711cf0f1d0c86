"""Canonical observation digests for scenario cases.

A scenario case's *observation digest* is a SHA-256 over the canonical
JSON form of every query result the case produced, in submission order.
Two runs of the same manifest — on any engine, any backend, any thread
schedule — must produce the same digest, which is what makes a digest
mismatch a first-class correctness failure rather than flake:

* Canonicalization never depends on ``repr`` of sets or on dict/set
  iteration order (``PYTHONHASHSEED`` moves those), only on sorted
  canonical JSON fragments.
* Only *results* enter the digest — never timings, cache statistics or
  anything else the thread scheduler can reorder.
* The engines' output-identity contract (the differential suites'
  invariant) makes the digest engine-independent; the distributed
  protocol's byte-identical observation contract makes it
  backend-independent.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

__all__ = ["canonical_observation", "digest_observations"]


def _dump(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _node(value: Any) -> Any:
    """A JSON-able stand-in for a node id or label.

    Generated graphs use int ids and string labels; anything else
    (tests with tuple ids, say) falls back to ``repr`` — stable for the
    scalar-ish ids the repo uses, and never applied to sets.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _relation_entries(relation) -> list:
    entries = [
        [_node(u), sorted((_node(v) for v in relation.matches_of_raw(u)),
                          key=_dump)]
        for u in relation.pattern_nodes()
    ]
    entries.sort(key=_dump)
    return entries


def _subgraph_entry(subgraph) -> dict:
    # NB: the recorded ``center`` is deliberately absent — only the
    # *first discovering* center is kept and center enumeration order is
    # an engine implementation detail (tests/engines.py excludes it from
    # the output-identity contract); the subgraph itself is
    # center-independent.
    graph = subgraph.graph
    return {
        "nodes": sorted(
            ([_node(n), _node(graph.label(n))] for n in graph.nodes()),
            key=_dump,
        ),
        "edges": sorted(
            ([_node(s), _node(t)] for s, t in graph.edges()), key=_dump
        ),
        "relation": _relation_entries(subgraph.relation),
    }


def canonical_observation(value: Any) -> Any:
    """``value`` as canonical JSON-able data (see module docstring).

    Understands the library's observation types — ``MatchRelation``
    (duck-typed via ``pattern_nodes``), ``MatchResult`` /
    ``PerfectSubgraph`` containers (via iteration), and
    ``DistributedRunReport`` (result + per-site counts + version vector
    + exact per-query bus log) — plus plain containers and scalars.
    """
    if hasattr(value, "query_log") and hasattr(value, "per_site_subgraphs"):
        # DistributedRunReport: the full protocol observation.
        return {
            "kind": "distributed",
            "result": canonical_observation(value.result),
            "per_site": sorted(
                ([int(site), int(count)]
                 for site, count in value.per_site_subgraphs.items()),
            ),
            "version_vector": [int(v) for v in value.version_vector],
            # The canonical form pins the *multiset* of bus charges
            # (sorted), not their interleaving: exact accounting (every
            # sender/receiver/kind/units charge) is retained, and the
            # digest does not depend on how a backend orders charges.
            "bus_log": sorted(
                ([int(s), int(r), k, int(u)]
                 for s, r, k, u in value.query_log),
            ),
        }
    if hasattr(value, "pattern_nodes") and hasattr(value, "matches_of_raw"):
        # MatchRelation (dual / sim / bounded observations).
        return {"kind": "relation", "pairs": _relation_entries(value)}
    if hasattr(value, "pattern") and hasattr(value, "add"):
        # MatchResult: sort the subgraph entries canonically — site
        # union order is deterministic anyway, but the digest should
        # not depend on it.
        entries = [_subgraph_entry(sg) for sg in value]
        entries.sort(key=_dump)
        return {"kind": "result", "subgraphs": entries}
    if isinstance(value, dict):
        return {
            str(k): canonical_observation(v)
            for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical_observation(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical_observation(v) for v in value), key=_dump)
    return _node(value)


def digest_observations(observations: Iterable[Any]) -> str:
    """The case digest: SHA-256 over the canonical observation stream.

    ``observations`` is consumed in order — submission order is part of
    the observation (the scenario replays a *stream*, and a mutation
    segment boundary changes what later queries should see).
    """
    hasher = hashlib.sha256()
    for observation in observations:
        hasher.update(_dump(canonical_observation(observation)).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()[:16]
