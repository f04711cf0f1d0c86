"""Regular-expression pattern matching — the [18]-style extension.

The paper's Remark (Section 2.2) defers to the full report the extension
of strong simulation "by supporting bounds on the number of hops and
regular expressions as edge constraints"; reference [18] (Fan et al.,
ICDE 2011) defines the semantics this module follows, adapted to
node-labeled graphs:

* a :class:`RegularPattern` attaches to each pattern edge a regex over
  node labels constraining the *intermediate* nodes of the witnessing
  path (empty word = direct edge), plus an optional hop bound;
* :func:`regular_dual_simulation` computes the maximum relation
  preserving both directions (children *and* parents, the paper's
  duality) under those path semantics;
* :func:`regular_strong_match` adds the locality condition: matches are
  confined to balls of a caller-chosen radius (there is no single
  canonical radius once edges stretch into paths; the natural default —
  used here — is ``d_Q`` times the largest finite hop bound, falling
  back to ``d_Q`` when every bound is 1).

With every edge regex equal to the empty expression (direct edges only)
the functions coincide with :func:`~repro.core.dualsim.dual_simulation`
and strong simulation respectively — property-tested in the suite.

Two-path architecture
---------------------
Both matchers carry an ``engine`` seam.  The ``python`` reference path
in this module walks the product graph with fresh NFA state-sets per
query (kept verbatim as ground truth).  The ``kernel`` path
(:mod:`repro.core.reach`) compiles the pattern to the kernel's witness
checks — a child and a parent check per pattern edge, as for dual
simulation — and gives each check one witness test: direct edges are
CSR row tests; a wildcard ``.*`` reads one multi-source BFS per
fixpoint pop, direction and bound, the same witness sets bounded
simulation uses; general regexes walk a regex compiled once into an
interned lazy DFA (a parent check walks the reversed machine
backwards), memoized per node.  One fixpoint, shared with bounded
simulation, computes the global relation over integer candidate sets
of the graph's :class:`~repro.core.kernel.GraphIndex`.  Strong matching
then refines every ball with Match+'s ball step, the kernel's only one
(:func:`~repro.core.kernel._refine_ball`): it starts from the global
relation ∩ ball, tests in its first round only the candidates deeper
than the radius minus the edge's hop bound, reads the global walks
from every candidate whose walks cannot leave the ball, and walks
inside the ball from the rest.  Outputs are identical by the
uniqueness of the maximum relation, enforced differentially in
``tests/test_paths_equivalence.py``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.core.ball import extract_ball
from repro.core.digraph import DiGraph, Node
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.reach import (
    regular_dual_simulation_kernel,
    regular_strong_match_kernel,
    resolve_path_engine,
)
from repro.core.regex import LabelNfa, compile_regex, regex_successors
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.simulation import _collapse_if_failed, initial_candidates
from repro.core.traversal import undirected_distances
from repro.exceptions import PatternError

Edge = Tuple[Node, Node]


class RegularPattern:
    """A pattern whose edges carry label-regex constraints and hop bounds.

    ``constraints`` maps pattern edges to regex source strings (see
    :mod:`repro.core.regex` for the syntax); missing edges default to the
    empty regex (a direct edge).  ``bounds`` optionally caps the hop count
    per edge (``None`` = unbounded).
    """

    __slots__ = ("pattern", "nfas", "bounds", "sources")

    def __init__(
        self,
        pattern: Pattern,
        constraints: Optional[Mapping[Edge, str]] = None,
        bounds: Optional[Mapping[Edge, Optional[int]]] = None,
    ) -> None:
        self.pattern = pattern
        edges = set(pattern.edges())
        self.sources: Dict[Edge, str] = {}
        self.nfas: Dict[Edge, LabelNfa] = {}
        self.bounds: Dict[Edge, Optional[int]] = {}
        for edge, expression in (constraints or {}).items():
            if edge not in edges:
                raise PatternError(f"constraint given for non-edge {edge!r}")
            self.sources[edge] = expression
        for edge, bound in (bounds or {}).items():
            if edge not in edges:
                raise PatternError(f"bound given for non-edge {edge!r}")
            if bound is not None and bound < 1:
                raise PatternError(f"bound for {edge!r} must be >= 1 or None")
            self.bounds[edge] = bound
        for edge in edges:
            self.sources.setdefault(edge, "")
            self.nfas[edge] = compile_regex(self.sources[edge])
            # A plain (empty-regex) edge is a single hop by definition.
            self.bounds.setdefault(
                edge, 1 if self.sources[edge].strip() == "" else None
            )

    def default_radius(self) -> int:
        """``d_Q`` scaled by the largest finite hop bound (the natural
        locality radius once edges stretch into bounded paths)."""
        finite = [b for b in self.bounds.values() if b is not None]
        scale = max(finite) if finite else 1
        return self.pattern.diameter * scale

    def __repr__(self) -> str:
        constrained = sum(1 for s in self.sources.values() if s.strip())
        return (
            f"RegularPattern({self.pattern!r}, {constrained} regex edges)"
        )


def regular_dual_simulation(
    rpattern: RegularPattern,
    data: DiGraph,
    engine: str = "auto",
) -> MatchRelation:
    """The maximum dual-simulation relation under regex path semantics.

    Fixpoint refinement: ``v ∈ sim(u)`` needs, for each pattern edge
    ``(u, u′)``, some ``v′ ∈ sim(u′)`` with a regex-matching path
    ``v → v′`` (and symmetrically a regex-matching path into ``v`` for
    each pattern edge entering ``u``).  Regex reachability is memoized
    per (edge, node).

    ``engine`` selects the evaluation path (``"auto"``, ``"python"``,
    ``"kernel"`` — see the module docstring); every engine returns the
    same relation.
    """
    if resolve_path_engine(engine, data) == "kernel":
        return regular_dual_simulation_kernel(rpattern, data)
    pattern = rpattern.pattern
    sim = initial_candidates(pattern, data)
    # Per pattern edge, memoized regex-successor sets by source node.
    succ_cache: Dict[Edge, Dict[Node, Set[Node]]] = {
        edge: {} for edge in pattern.edges()
    }

    def reachable(edge: Edge, source: Node) -> Set[Node]:
        cache = succ_cache[edge]
        hit = cache.get(source)
        if hit is None:
            hit = regex_successors(
                data, source, rpattern.nfas[edge], rpattern.bounds[edge]
            )
            cache[source] = hit
        return hit

    queue = deque(pattern.nodes())
    queued: Set[Node] = set(queue)
    while queue:
        w = queue.popleft()
        queued.discard(w)
        w_candidates = sim[w]

        def requeue(u: Node) -> None:
            if u not in queued:
                queue.append(u)
                queued.add(u)

        # Parents u of w: v in sim(u) needs regex path into sim(w).
        for u in pattern.predecessors(w):
            edge = (u, w)
            stale = [
                v
                for v in sim[u]
                if not (reachable(edge, v) & w_candidates)
            ]
            if stale:
                sim[u].difference_update(stale)
                if not sim[u]:
                    _collapse_if_failed(sim)
                    return MatchRelation(sim)
                requeue(u)
        # Children u of w: v in sim(u) needs a regex path *from* sim(w).
        for u in pattern.successors(w):
            edge = (w, u)
            stale = [
                v
                for v in sim[u]
                if not any(
                    v in reachable(edge, v2) for v2 in w_candidates
                )
            ]
            if stale:
                sim[u].difference_update(stale)
                if not sim[u]:
                    _collapse_if_failed(sim)
                    return MatchRelation(sim)
                requeue(u)
    _collapse_if_failed(sim)
    return MatchRelation(sim)


def _regular_match_graph(
    rpattern: RegularPattern,
    data: DiGraph,
    relation: MatchRelation,
) -> DiGraph:
    """Match graph under path semantics: an edge per witnessed pattern
    edge, drawn between the endpoint matches (path interiors are not
    materialized — as in [18], the result graph is over matched nodes)."""
    result = DiGraph()
    for node in relation.data_nodes():
        result.add_node(node, data.label(node))
    for edge in rpattern.pattern.edges():
        u, u_prime = edge
        targets = relation.matches_of_raw(u_prime)
        for v in relation.matches_of_raw(u):
            witnesses = regex_successors(
                data, v, rpattern.nfas[edge], rpattern.bounds[edge]
            )
            for v_prime in witnesses & targets:
                result.add_edge(v, v_prime)
    return result


def hop_bounded_pattern(
    pattern: Pattern,
    bounds: Mapping[Edge, Optional[int]],
) -> RegularPattern:
    """The Remark's other extension: plain hop bounds on pattern edges.

    Equivalent to a :class:`RegularPattern` whose bounded edges carry the
    wildcard regex ``.*`` (any intermediate labels) with the given hop
    bound — i.e. bounded simulation semantics per edge, but with duality
    and locality still enforced by :func:`regular_strong_match`.
    """
    constraints = {
        edge: ".*" for edge, bound in bounds.items() if bound != 1
    }
    return RegularPattern(pattern, constraints, bounds)


def regular_strong_match(
    rpattern: RegularPattern,
    data: DiGraph,
    radius: Optional[int] = None,
    engine: str = "auto",
) -> MatchResult:
    """Strong simulation with regex edge constraints.

    Per ball: regular dual simulation, then the connected component of
    the (path-semantics) match graph containing the center.

    ``engine`` selects the evaluation path (``"auto"``, ``"python"``,
    ``"kernel"`` — see the module docstring); every engine returns the
    same result set.
    """
    if resolve_path_engine(engine, data) == "kernel":
        return regular_strong_match_kernel(rpattern, data, radius)
    pattern = rpattern.pattern
    if radius is None:
        radius = rpattern.default_radius()
    result = MatchResult(pattern)
    global_relation = regular_dual_simulation(rpattern, data, engine="python")
    if global_relation.is_empty():
        return result
    for center in sorted(global_relation.data_nodes(), key=repr):
        ball = extract_ball(data, center, radius)
        relation = regular_dual_simulation(
            rpattern, ball.graph, engine="python"
        )
        if relation.is_empty():
            continue
        center_matched = any(
            center in relation.matches_of_raw(u) for u in pattern.nodes()
        )
        if not center_matched:
            continue
        match_graph = _regular_match_graph(rpattern, ball.graph, relation)
        component = set(undirected_distances(match_graph, center))
        subgraph = match_graph.subgraph(component)
        restricted = relation.restricted_to(component)
        result.add(PerfectSubgraph(subgraph, restricted, center))
    return result
