"""Graph simulation ``Q ≺ G`` (Milner 1989; Henzinger et al. 1995).

A data graph ``G`` matches a pattern ``Q`` via graph simulation iff there
is a relation ``S ⊆ Vq × V`` such that matched nodes share labels and every
pattern edge ``(u, u′)`` is witnessed downward: for each ``(u, v) ∈ S``
there is an edge ``(v, v′)`` with ``(u′, v′) ∈ S``.  The *maximum* such
relation is unique and computable by fixpoint refinement; this module
provides both the naive fixpoint (a direct transcription of the pseudocode
in Fig. 3, restricted to the child direction) and an HHK-style worklist
algorithm that is the default because it avoids rescanning unchanged
pattern edges.

Both entry points return the maximum relation; if simulation fails (some
pattern node ends with no matches) the returned relation is empty, matching
line 10 of procedure ``DualSim`` in the paper.

Like the strong-simulation entry points, :func:`graph_simulation` takes an
``engine`` argument and runs the ``sim`` cell of that engine's row in
:data:`repro.core.engines.ENGINE_TABLE`: ``"python"`` is the reference
worklist fixpoint below (:func:`simulation_fixpoint`); ``"kernel"`` and
``"numpy"`` both run :func:`repro.core.kernel.graph_simulation_kernel`,
the kernel's witness-check counter fixpoint compiled with one child check
per pattern edge (dual simulation adds the parent checks), over the
compiled CSR index; ``"auto"`` (default) picks by graph size.  All
compute the same unique maximum relation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

from repro.core.digraph import DiGraph, Node
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern


def initial_candidates(pattern: Pattern, data: DiGraph) -> Dict[Node, Set[Node]]:
    """``sim(u) = { v | l(v) = l(u) }`` — the label-compatible seeds.

    Lines 1–2 of procedure ``DualSim``.  Uses the data graph's label index,
    so the cost is proportional to the output, not to |V|·|Vq| — and the
    raw (copy-free) buckets, since ``set(...)`` copies anyway.
    """
    return {
        u: set(data.nodes_with_label_raw(pattern.label(u)))
        for u in pattern.nodes()
    }


def _collapse_if_failed(sim: Dict[Node, Set[Node]]) -> None:
    """If any sim set is empty, empty them all (simulation failed)."""
    if any(not candidates for candidates in sim.values()):
        for candidates in sim.values():
            candidates.clear()


def simulation_fixpoint_naive(
    pattern: Pattern,
    data: DiGraph,
    seeds: Dict[Node, Set[Node]] = None,
) -> MatchRelation:
    """Naive fixpoint: rescan every pattern edge until nothing changes.

    This is the literal pseudocode of Fig. 3 with only the child-direction
    checks (lines 4–6).  O(|Vq|·|Eq|·|V|·|E|) worst case; kept as the
    ablation baseline for the worklist variant.
    """
    sim = seeds if seeds is not None else initial_candidates(pattern, data)
    changed = True
    while changed:
        changed = False
        for u, u_prime in pattern.edges():
            targets = sim[u_prime]
            stale = [
                v
                for v in sim[u]
                if not any(v2 in targets for v2 in data.successors_raw(v))
            ]
            if stale:
                sim[u].difference_update(stale)
                changed = True
    _collapse_if_failed(sim)
    return MatchRelation(sim)


def simulation_fixpoint(
    pattern: Pattern,
    data: DiGraph,
    seeds: Dict[Node, Set[Node]] = None,
) -> MatchRelation:
    """Worklist refinement of graph simulation (the default algorithm).

    Each pattern node whose sim set shrank is queued; only the pattern
    edges incident to queued nodes are rescanned.  Equivalent output to
    :func:`simulation_fixpoint_naive`, with much better behavior on large
    patterns and data graphs — this matches the quadratic-time bound of
    Henzinger, Henzinger & Kopke (1995) up to the set-scan constant.
    """
    sim = seeds if seeds is not None else initial_candidates(pattern, data)
    queue = deque(pattern.nodes())
    queued: Set[Node] = set(queue)

    while queue:
        u_prime = queue.popleft()
        queued.discard(u_prime)
        targets = sim[u_prime]
        # Any parent u of u_prime in the pattern may now have stale matches.
        for u in pattern.predecessors(u_prime):
            candidates = sim[u]
            stale = [
                v
                for v in candidates
                if not any(v2 in targets for v2 in data.successors_raw(v))
            ]
            if not stale:
                continue
            candidates.difference_update(stale)
            if not candidates:
                _collapse_if_failed(sim)
                return MatchRelation(sim)
            if u not in queued:
                queue.append(u)
                queued.add(u)
    _collapse_if_failed(sim)
    return MatchRelation(sim)


def graph_simulation(
    pattern: Pattern, data: DiGraph, engine: str = "auto"
) -> MatchRelation:
    """The maximum match relation of ``Q ≺ G`` (empty if no match).

    ``engine`` selects the execution backend (``"auto"`` | ``"kernel"`` |
    ``"numpy"`` | ``"python"``); the relation is identical either way.
    """
    from repro.core.engines import engine_for  # the table imports this module

    return engine_for(engine, data).sim(pattern, data)


def matches_via_simulation(
    pattern: Pattern, data: DiGraph, engine: str = "auto"
) -> bool:
    """Decide ``Q ≺ G``."""
    return graph_simulation(pattern, data, engine=engine).is_total()


def is_simulation_relation(
    pattern: Pattern,
    data: DiGraph,
    relation: MatchRelation,
) -> bool:
    """Verify the simulation conditions for an arbitrary relation.

    A checker, independent of the fixpoint code, used by tests and by the
    bisimulation utilities: labels must agree on every pair, every pattern
    node must have a match, and every pattern edge must be witnessed
    downward from every pair.
    """
    for u in pattern.nodes():
        if not relation.matches_of_raw(u):
            return False
    for u, v in relation.pairs():
        if v not in data or pattern.label(u) != data.label(v):
            return False
        for u_prime in pattern.successors(u):
            targets = relation.matches_of_raw(u_prime)
            if not any(v2 in targets for v2 in data.successors_raw(v)):
                return False
    return True
