"""Strong simulation ``Q ≺_LD G`` — algorithm ``Match`` (Fig. 3).

For every ball ``Ĝ[w, d_Q]`` of the data graph:

1. compute the maximum dual-simulation relation ``Sw`` of ``Q`` on the
   ball (procedure ``DualSim``);
2. extract the maximum perfect subgraph via ``ExtractMaxPG``: if the
   center ``w`` appears in ``Sw``, the perfect subgraph is the connected
   component of the match graph w.r.t. ``Sw`` that contains ``w``
   (Theorems 1 and 2 justify this);
3. collect the subgraphs into Θ, deduplicating exact duplicates found from
   different centers.

Complexity: O(|V| (|V| + (|Vq| + |Eq|)(|V| + |E|))) — cubic, as Theorem 5
states.  The optimized variant lives in :mod:`repro.core.matchplus`.

:func:`match` takes an ``engine`` argument and runs the ``match`` cell
of that engine's row in :data:`repro.core.engines.ENGINE_TABLE`.  The
``python`` row is the reference code below (:func:`match_reference`:
per-ball ``DiGraph`` construction + set-based fixpoints, kept as the
readable ground truth); ``kernel`` and ``numpy`` both run the compiled
CSR kernel.  ``"auto"`` (default) picks by graph size
(:func:`repro.core.kernel.resolve_engine`).  All engines are
output-identical.  :func:`matches_via_strong_simulation` decides
``Q ≺_LD G`` the way the paper defines it, "Θ is not empty", reading Θ
from ``Match+``, which computes exactly Θ.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.core.ball import Ball, extract_ball
from repro.core.digraph import DiGraph, Node
from repro.core.dualsim import dual_simulation
from repro.core.matchgraph import build_match_graph, relation_restricted_to_component
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.traversal import undirected_distances


def extract_max_perfect_subgraph(
    pattern: Pattern,
    ball: Ball,
    relation: MatchRelation,
) -> Optional[PerfectSubgraph]:
    """Procedure ``ExtractMaxPG`` (Fig. 3).

    Returns ``None`` when the ball center does not appear in the relation
    (line 1); otherwise builds the match graph w.r.t. the relation and
    returns its connected component containing the center, together with
    the relation restricted to that component.
    """
    center = ball.center
    center_matched = any(
        center in relation.matches_of_raw(u) for u in pattern.nodes()
    )
    if not center_matched:
        return None
    match_graph = build_match_graph(pattern, ball.graph, relation)
    component = set(undirected_distances(match_graph, center))
    component_graph = match_graph.subgraph(component)
    component_relation = relation_restricted_to_component(relation, component)
    return PerfectSubgraph(component_graph, component_relation, center)


def match(
    pattern: Pattern,
    data: DiGraph,
    centers: Optional[Iterable[Node]] = None,
    radius: Optional[int] = None,
    engine: str = "auto",
) -> MatchResult:
    """Algorithm ``Match``: strong simulation over every ball of ``G``.

    Parameters
    ----------
    pattern:
        The connected pattern graph ``Q``.
    data:
        The data graph ``G``.
    centers:
        Ball centers to inspect; defaults to every node of ``G`` (the
        unoptimized algorithm of Fig. 3).  Optimized callers pass a
        restricted candidate set.
    radius:
        Ball radius; defaults to the pattern diameter ``d_Q``.  Exposed
        because Lemma 3 fixes the radius when comparing pattern
        equivalence, and tests exercise non-default radii.
    engine:
        ``"auto"`` (default), ``"kernel"``, ``"numpy"`` or ``"python"``
        — see the module docstring.  All engines are output-identical;
        use ``"python"`` to force the reference path.

    Returns
    -------
    MatchResult
        The deduplicated set Θ of maximum perfect subgraphs.
    """
    from repro.core.engines import engine_for  # the table imports this module

    return engine_for(engine, data).match(
        pattern, data, centers=centers, radius=radius
    )


def match_reference(
    pattern: Pattern,
    data: DiGraph,
    centers: Optional[Iterable[Node]] = None,
    radius: Optional[int] = None,
) -> MatchResult:
    """The ``python`` engine's ``match`` cell: Fig. 3, ball by ball."""
    if radius is None:
        radius = pattern.diameter
    if centers is None:
        centers = list(data.nodes())
    result = MatchResult(pattern)
    for center in centers:
        ball = extract_ball(data, center, radius)
        relation = dual_simulation(pattern, ball.graph)
        if relation.is_empty():
            continue
        subgraph = extract_max_perfect_subgraph(pattern, ball, relation)
        if subgraph is not None:
            result.add(subgraph)
    return result


def matches_via_strong_simulation(
    pattern: Pattern, data: DiGraph, engine: str = "auto"
) -> bool:
    """Decide ``Q ≺_LD G`` — at least one perfect subgraph exists.

    Whether :func:`repro.core.matchplus.match_plus` on ``engine`` found
    one, as the other ``matches_via_*`` deciders read their relation.
    """
    from repro.core.matchplus import match_plus  # it imports this module

    return len(match_plus(pattern, data, engine=engine)) > 0


def candidate_centers(pattern: Pattern, data: DiGraph) -> Set[Node]:
    """Nodes of ``G`` whose label occurs in ``Q``.

    A sound restriction of the ball centers: a center that matches no
    pattern node can never appear in the maximum match relation of its own
    ball, so ``ExtractMaxPG`` would return ``nil`` for it (line 1 of
    Fig. 3).  Used by ``Match+`` and available as a standalone ablation.
    """
    centers: Set[Node] = set()
    for label in pattern.label_set():
        centers |= data.nodes_with_label(label)
    return centers
