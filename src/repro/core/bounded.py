"""Bounded simulation — the prior notion the paper revises (Fan et al. 2010).

Bounded simulation [19] extends graph simulation by attaching to each
pattern edge ``(u, u′)`` a bound ``k``: a match ``(u, v)`` is witnessed
when some ``v′`` matching ``u′`` is reachable from ``v`` by a *directed*
path of length at most ``k`` (``k = None`` meaning unbounded
reachability).  With every bound equal to 1 it degenerates to plain graph
simulation.  The paper cites it as the cubic-time predecessor that — like
plain simulation — fails to preserve topology; the library includes it
both as a usable feature and so the test suite can demonstrate the
containment ``strong ⊆ dual ⊆ bounded(1) = simulation``.

Two-path architecture
---------------------
:func:`bounded_simulation` carries an ``engine`` seam.  The ``python``
reference path below answers every witness test with a memoized BFS per
``(node, bound)`` — simple, allocation-heavy, and kept verbatim as
ground truth.  The ``kernel`` path
(:func:`repro.core.reach.bounded_simulation_kernel`) runs the same
fixpoint over the CSR rows of the graph's
:class:`~repro.core.kernel.GraphIndex`: bound-1 edges are row tests,
and every other bound reads one multi-source BFS backwards from the
popped node's whole candidate set, run once per pop and bound, so a
witness test is a set membership instead of a BFS per candidate.  It
needs nothing beyond the CSR rows, which insertions patch in place.
``engine="auto"`` picks the kernel on every graph.  Both paths compute
the unique maximum bounded-simulation relation, so their outputs are
identical — enforced by the differential suite
(``tests/test_paths_equivalence.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.core.digraph import DiGraph, Node
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.reach import bounded_simulation_kernel, resolve_path_engine
from repro.exceptions import PatternError

Bound = Optional[int]  # None means "unbounded" (the * of Fan et al.)
EdgeBounds = Mapping[Tuple[Node, Node], Bound]


class BoundedPattern:
    """A pattern graph whose edges carry hop bounds.

    ``bounds`` maps pattern edges to a positive integer (maximum directed
    path length) or ``None`` for unbounded reachability.  Missing edges
    default to bound 1, i.e. ordinary simulation semantics on that edge.
    """

    __slots__ = ("pattern", "bounds")

    def __init__(self, pattern: Pattern, bounds: Optional[EdgeBounds] = None) -> None:
        self.pattern = pattern
        normalized: Dict[Tuple[Node, Node], Bound] = {}
        edges = set(pattern.edges())
        for edge, bound in (bounds or {}).items():
            if edge not in edges:
                raise PatternError(f"bound given for non-edge {edge!r}")
            if bound is not None and bound < 1:
                raise PatternError(f"bound for {edge!r} must be >= 1 or None")
            normalized[edge] = bound
        for edge in edges:
            normalized.setdefault(edge, 1)
        self.bounds = normalized

    def bound(self, edge: Tuple[Node, Node]) -> Bound:
        """The hop bound of a pattern edge."""
        return self.bounds[edge]

    def __repr__(self) -> str:
        return f"BoundedPattern({self.pattern!r}, {len(self.bounds)} bounds)"


class _ReachabilityOracle:
    """Memoized 'can v reach some node of T within k directed hops' tests."""

    def __init__(self, data: DiGraph) -> None:
        self._data = data
        self._cache: Dict[Tuple[Node, Bound], Set[Node]] = {}

    def reachable_set(self, source: Node, bound: Bound) -> Set[Node]:
        """Nodes reachable from ``source`` in 1..bound directed hops."""
        key = (source, bound)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        reached: Set[Node] = set()
        frontier = deque([(source, 0)])
        seen = {source}
        while frontier:
            node, depth = frontier.popleft()
            if bound is not None and depth >= bound:
                continue
            for child in self._data.successors_raw(node):
                if child not in seen:
                    seen.add(child)
                    reached.add(child)
                    frontier.append((child, depth + 1))
                elif child == source:
                    # Cycle back to the source, detected during the BFS
                    # itself: ``node`` sits at ``depth < bound``, so the
                    # cycle closes in ``depth + 1 <= bound`` hops.  (A
                    # self-loop is the ``depth == 0`` case.)
                    reached.add(source)
        self._cache[key] = reached
        return reached

    def witnesses(self, source: Node, bound: Bound, targets: Set[Node]) -> bool:
        """True iff some member of ``targets`` is reachable within the bound."""
        return not targets.isdisjoint(self.reachable_set(source, bound))


def bounded_simulation(
    bounded_pattern: BoundedPattern,
    data: DiGraph,
    engine: str = "auto",
) -> MatchRelation:
    """The maximum bounded-simulation relation (empty when no match).

    Fixpoint refinement identical in shape to plain simulation, with the
    edge-witness test replaced by bounded reachability.  Cubic-time, as in
    Fan et al. (2010).

    ``engine`` selects the evaluation path (``"auto"``, ``"python"``,
    ``"kernel"`` — see the module docstring); every engine returns the
    same relation.
    """
    if resolve_path_engine(engine, data) == "kernel":
        return bounded_simulation_kernel(bounded_pattern, data)
    pattern = bounded_pattern.pattern
    oracle = _ReachabilityOracle(data)
    sim: Dict[Node, Set[Node]] = {
        u: set(data.nodes_with_label(pattern.label(u))) for u in pattern.nodes()
    }
    queue = deque(pattern.nodes())
    queued: Set[Node] = set(queue)
    while queue:
        u_prime = queue.popleft()
        queued.discard(u_prime)
        targets = sim[u_prime]
        for u in pattern.predecessors(u_prime):
            bound = bounded_pattern.bound((u, u_prime))
            stale = [
                v for v in sim[u] if not oracle.witnesses(v, bound, targets)
            ]
            if not stale:
                continue
            sim[u].difference_update(stale)
            if not sim[u]:
                for candidates in sim.values():
                    candidates.clear()
                return MatchRelation(sim)
            if u not in queued:
                queue.append(u)
                queued.add(u)
    if any(not candidates for candidates in sim.values()):
        for candidates in sim.values():
            candidates.clear()
    return MatchRelation(sim)


def matches_via_bounded_simulation(
    bounded_pattern: BoundedPattern,
    data: DiGraph,
    engine: str = "auto",
) -> bool:
    """Decide bounded-simulation matching."""
    return bounded_simulation(bounded_pattern, data, engine=engine).is_total()
