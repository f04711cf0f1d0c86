"""Canonical forms and fingerprints for pattern graphs.

The query service shares cached results between *structurally identical*
queries: two patterns that differ only in how their nodes are named (and
in what order they were inserted) must map to one cache entry.  That
requires a **canonical form** — a renaming-invariant description of the
pattern — with two properties:

soundness (exact)
    Equal canonical keys imply the patterns are isomorphic.  This holds
    *by construction*, independent of any heuristic: the key spells out
    the whole graph (label sequence + edge list over canonical
    positions), so key equality exhibits a label-preserving isomorphism
    — the map matching canonical positions.  A cache hit can therefore
    never serve a result computed for a structurally different pattern.

completeness (best effort, exact for the paper's patterns)
    Isomorphic patterns get equal keys.  This is the graph-isomorphism
    problem; the implementation runs color refinement (labels refined by
    in/out neighbor color multisets — the 1-WL invariant) followed by
    individualization-refinement search over the remaining symmetric
    cells, taking the lexicographically smallest complete ordering.
    Pattern graphs are tiny (the paper bounds them by readability, and
    minimization shrinks them further), so the search is exhaustive in
    practice; an orbit-skip heuristic keeps highly symmetric patterns
    (stars, cliques) polynomial, and a refinement budget bounds
    adversarial inputs — past the budget (or past
    :data:`MAX_CANONICAL_NODES` nodes) the ordering degrades to
    insertion order, which can only cost cache *misses*, never wrong
    hits.

:func:`canonical_form` returns a :class:`CanonicalPattern`; the result
is memoized on the :class:`~repro.core.pattern.Pattern` (patterns are
immutable after construction), so repeated submissions of one pattern
object fingerprint for free.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.core.digraph import Label, Node
from repro.core.pattern import Pattern

#: Above this node count the canonical ordering falls back to insertion
#: order (node identities enter the key, so sharing still cannot be
#: unsound — isomorphic-but-renamed patterns just stop sharing entries).
MAX_CANONICAL_NODES = 64

#: Budget of refinement passes for the individualization search; tiny
#: patterns finish in a handful, the cap only guards adversarial shapes.
_REFINEMENT_BUDGET = 10_000


class CanonicalPattern:
    """The canonical form of one pattern.

    Attributes
    ----------
    key:
        Hashable, renaming-invariant identity:
        ``(num_nodes, labels_by_position, edges_by_position)`` — equal
        keys exhibit an isomorphism via the position map.  This is what
        the result cache keys on.
    order:
        ``pattern node -> canonical position``; the bridge for replaying
        a cached (position-indexed) result under a different pattern's
        node names.
    fingerprint:
        SHA-256 hex digest of the key — a compact, loggable identity.
        Stable within a process (labels hash by ``repr``); the cache
        compares full keys, never digests.
    label_set:
        The pattern's label set, precomputed for delta invalidation.
    """

    __slots__ = ("key", "order", "fingerprint", "label_set")

    def __init__(self, key: tuple, order: Dict[Node, int]) -> None:
        self.key = key
        self.order = order
        self.label_set = frozenset(key[1])
        digest = hashlib.sha256()
        digest.update(repr(key).encode("utf-8", "backslashreplace"))
        self.fingerprint = digest.hexdigest()

    @property
    def num_nodes(self) -> int:
        return self.key[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CanonicalPattern):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return (
            f"CanonicalPattern(|Vq|={self.num_nodes}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


def _label_ranks(labels: List[Label]) -> List[int]:
    """Deterministic integer rank per label.

    Labels are arbitrary hashables, so they are ordered by
    ``(type name, repr)``.  Two distinct labels with colliding sort keys
    would merely make the rank assignment insertion-dependent —
    degrading completeness for such (pathological) label sets — while
    soundness is untouched: the canonical *key* carries the labels
    themselves, position by position.
    """
    distinct = sorted(set(labels), key=lambda l: (type(l).__name__, repr(l)))
    rank = {label: r for r, label in enumerate(distinct)}
    return [rank[label] for label in labels]


def _refine(
    colors: List[int], fwd: List[List[int]], rev: List[List[int]]
) -> List[int]:
    """Color refinement to a fixpoint (the 1-WL partition).

    Each round recolors node ``i`` by ``(color, sorted successor colors,
    sorted predecessor colors)`` and re-ranks the signatures; stable
    when a round splits no cell.
    """
    n = len(colors)
    while True:
        sigs = [
            (
                colors[i],
                tuple(sorted(colors[j] for j in fwd[i])),
                tuple(sorted(colors[j] for j in rev[i])),
            )
            for i in range(n)
        ]
        ranks = {sig: r for r, sig in enumerate(sorted(set(sigs)))}
        refined = [ranks[sigs[i]] for i in range(n)]
        if refined == colors:
            return refined
        colors = refined


def _canonical_order(
    n: int,
    fwd: List[List[int]],
    rev: List[List[int]],
    init_colors: List[int],
    edge_list: List[Tuple[int, int]],
) -> List[int]:
    """Individualization-refinement search for the canonical ordering.

    Returns ``order`` with ``order[position] = node index``, minimizing
    the comparable form ``(label ranks by position, edges by position)``
    over every discrete refinement reachable by individualizing cell
    members.  Members of one cell that root identical subtree keys are
    assumed interchangeable (same orbit) and the cell is not explored
    further — exact for automorphic cells, and a wrong guess on
    WL-ambiguous non-automorphic cells only costs completeness.
    """
    best: List[Optional[tuple]] = [None]
    best_order: List[Optional[List[int]]] = [None]
    budget = [_REFINEMENT_BUDGET]

    def comparable(order: List[int]) -> tuple:
        pos_of = [0] * n
        for position, node in enumerate(order):
            pos_of[node] = position
        edges = tuple(sorted((pos_of[a], pos_of[b]) for a, b in edge_list))
        return (tuple(init_colors[v] for v in order), edges)

    def explore(colors: List[int]) -> Optional[tuple]:
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        colors = _refine(colors, fwd, rev)
        cells: Dict[int, List[int]] = {}
        for i, color in enumerate(colors):
            cells.setdefault(color, []).append(i)
        target: Optional[List[int]] = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target = cells[color]
                break
        if target is None:  # discrete: one complete ordering
            order = sorted(range(n), key=colors.__getitem__)
            key = comparable(order)
            if best[0] is None or key < best[0]:
                best[0] = key
                best_order[0] = order
            return key
        subtree_key: Optional[tuple] = None
        previous: Optional[tuple] = None
        for member in target:
            forked = list(colors)
            forked[member] = -1  # individualize: a fresh minimal color
            key = explore(forked)
            if key is not None and (subtree_key is None or key < subtree_key):
                subtree_key = key
            if key is not None and key == previous:
                break  # two members rooted identical keys: orbit skip
            previous = key
        return subtree_key

    explore(list(init_colors))
    if best_order[0] is None:  # budget exhausted before any leaf
        return list(range(n))
    return best_order[0]


def canonical_form(pattern: Pattern) -> CanonicalPattern:
    """Compute (or recall) the canonical form of ``pattern``.

    The result is memoized on the pattern object — patterns are
    immutable after construction, exactly like the cached diameter.
    """
    cached = pattern._canonical_cache
    if cached is not None:
        return cached

    graph = pattern.graph
    nodes: List[Node] = list(graph.nodes())
    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    labels = [graph.label(node) for node in nodes]
    edge_list = [(index[a], index[b]) for a, b in graph.edges()]

    if n > MAX_CANONICAL_NODES:
        # Oversized pattern: skip the search and key on the nodes
        # themselves — never unsound, just not renaming-invariant.
        order = list(range(n))
        key = (
            n,
            tuple(labels),
            tuple(sorted(edge_list)),
            tuple(repr(node) for node in nodes),
        )
    else:
        init_colors = _label_ranks(labels)
        fwd: List[List[int]] = [[] for _ in range(n)]
        rev: List[List[int]] = [[] for _ in range(n)]
        for a, b in edge_list:
            fwd[a].append(b)
            rev[b].append(a)
        order = _canonical_order(n, fwd, rev, init_colors, edge_list)
        pos_of = [0] * n
        for position, node_id in enumerate(order):
            pos_of[node_id] = position
        key = (
            n,
            tuple(labels[node_id] for node_id in order),
            tuple(sorted((pos_of[a], pos_of[b]) for a, b in edge_list)),
        )
        order = pos_of  # reuse: order[i] is now node i's position

    canonical = CanonicalPattern(
        key, {nodes[i]: order[i] for i in range(n)}
    )
    pattern._canonical_cache = canonical
    return canonical


def pattern_fingerprint(pattern: Pattern) -> str:
    """The hex fingerprint of a pattern (see :class:`CanonicalPattern`)."""
    return canonical_form(pattern).fingerprint
