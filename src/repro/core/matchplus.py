"""``Match+`` — algorithm ``Match`` with all optimizations of Section 4.2.

The three optimizations compose as follows:

1. **Query minimization** (``minQ``, Fig. 4): replace ``Q`` with its
   minimum dual-equivalent quotient ``Qm``, keeping the original diameter
   ``d_Q`` as the ball radius (Lemma 3).
2. **Dual-simulation filtering** (``dualFilter``, Fig. 5): compute the
   maximum dual-simulation relation once over the whole graph; only nodes
   it matches can be ball centers, only matched nodes enter the per-ball
   refinement, and refinement starts from border nodes (Proposition 5).
3. **Connectivity pruning** (Example 6): within each ball, candidates not
   undirected-connected to the center through other candidates are
   removed, with the removals propagated through the same deletion
   cascade as the border-induced ones.

Each optimization can be toggled independently through
:class:`MatchPlusOptions` for the ablation benchmarks; the default enables
all three.  The result is always identical to plain ``Match`` (asserted in
the integration tests); only the running time differs.

Like :func:`repro.core.strong.match`, ``match_plus`` takes an ``engine``
argument and runs the ``match_plus`` cell of that engine's row in
:data:`repro.core.engines.ENGINE_TABLE`: ``"python"`` is the reference
path below (:func:`match_plus_reference`), ``"kernel"`` the same
algorithm over the compiled CSR kernel of :mod:`repro.core.kernel`, and
``"numpy"`` refines all balls of the scan in one batched array fixpoint
(:mod:`repro.core.npkernel`).  The default ``"auto"`` picks by graph
size.  Query minimization always happens here (pattern-side work is
engine-independent), so ``use_minimization`` works on every engine.
The other three toggles are a feature of the reference cell alone: the
compiled cells run only the composition with every optimization on, so
turning one off runs the reference cell under ``"auto"`` and raises
:class:`~repro.exceptions.MatchingError` for an explicit ``"kernel"`` or
``"numpy"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from repro.core.ball import Ball, extract_ball, extract_ball_restricted
from repro.core.digraph import DiGraph, Node
from repro.core.dualfilter import dual_filter
from repro.core.dualsim import dual_simulation
from repro.core.kernel import resolve_engine
from repro.core.matchrel import MatchRelation
from repro.core.minimize import minimize_pattern
from repro.core.pattern import Pattern
from repro.core.pruning import prune_candidates_by_connectivity
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.strong import candidate_centers, extract_max_perfect_subgraph
from repro.exceptions import MatchingError


@dataclass(frozen=True)
class MatchPlusOptions:
    """Toggles for the optimizations composed by :func:`match_plus`.

    Attributes
    ----------
    use_minimization:
        Run ``minQ`` first and match with the quotient pattern.
    use_dual_filter:
        Compute the global dual-simulation relation once; restrict ball
        centers to matched nodes and refine per ball by deletion
        propagation from border nodes.
    use_pruning:
        Apply connectivity pruning inside each ball.
    restrict_centers_by_label:
        When the dual filter is off, still skip ball centers whose label
        does not occur in the pattern (a cheap, always-sound restriction).

    Turning off any of the last three runs on the reference engine only
    (see :func:`match_plus`); minimization runs on every engine.
    """

    use_minimization: bool = True
    use_dual_filter: bool = True
    use_pruning: bool = True
    restrict_centers_by_label: bool = True


def match_plus(
    pattern: Pattern,
    data: DiGraph,
    options: Optional[MatchPlusOptions] = None,
    engine: str = "auto",
) -> MatchResult:
    """Optimized strong simulation; output-identical to ``Match``.

    Returns the same deduplicated set Θ of maximum perfect subgraphs as
    :func:`repro.core.strong.match`.  ``engine`` selects the execution
    backend (``"auto"`` | ``"kernel"`` | ``"numpy"`` | ``"python"``, see
    module docstring); the result set is identical either way.

    Options that turn off the dual filter, pruning or the label
    restriction of centers run the reference cell,
    ``ENGINE_TABLE["python"].match_plus``, under ``"auto"`` and
    ``"python"``; with ``"kernel"`` or ``"numpy"`` they raise
    :class:`~repro.exceptions.MatchingError`.
    """
    if options is None:
        options = MatchPlusOptions()

    if options.use_minimization:
        minimized = minimize_pattern(pattern)
        working_pattern = minimized.pattern
        radius = minimized.radius
    else:
        working_pattern = pattern
        radius = pattern.diameter

    # The table imports this module.
    from repro.core.engines import ENGINE_TABLE, engine_for

    if (
        options.use_dual_filter
        and options.use_pruning
        and options.restrict_centers_by_label
    ):
        return engine_for(engine, data).match_plus(
            working_pattern, data, radius
        )
    if engine != "auto" and resolve_engine(engine) != "python":
        raise MatchingError(
            f"engine={engine!r} runs Match+ with every optimization on; "
            "the dual-filter, pruning and center toggles of "
            "MatchPlusOptions run on engine='python' or 'auto'"
        )
    return ENGINE_TABLE["python"].match_plus(
        working_pattern,
        data,
        radius,
        use_dual_filter=options.use_dual_filter,
        use_pruning=options.use_pruning,
        restrict_centers_by_label=options.restrict_centers_by_label,
    )


def match_plus_reference(
    pattern: Pattern,
    data: DiGraph,
    radius: int,
    use_dual_filter: bool = True,
    use_pruning: bool = True,
    restrict_centers_by_label: bool = True,
) -> MatchResult:
    """The ``python`` engine's ``match_plus`` cell.

    ``pattern`` is the (possibly minimized) working pattern and
    ``radius`` the original diameter; :func:`match_plus` owns the option
    handling and minimization.  The only ``match_plus`` cell that takes
    the optimization toggles.
    """
    result = MatchResult(pattern)

    if use_dual_filter:
        global_relation = dual_simulation(pattern, data)
        if global_relation.is_empty():
            return result
        matched_nodes = global_relation.data_nodes()
        for center in matched_nodes:
            ball = extract_ball_restricted(data, center, radius, matched_nodes)
            subgraph = _refine_ball(pattern, global_relation, ball, use_pruning)
            if subgraph is not None:
                result.add(subgraph)
        return result

    # Dual filter off: fall back to per-ball dual simulation, optionally
    # with label-restricted centers and connectivity pruning.
    if restrict_centers_by_label:
        centers = candidate_centers(pattern, data)
    else:
        centers = set(data.nodes())
    for center in centers:
        ball = extract_ball(data, center, radius)
        seeds = {
            u: set(ball.graph.nodes_with_label(pattern.label(u)))
            for u in pattern.nodes()
        }
        if use_pruning:
            pruned = prune_candidates_by_connectivity(pattern, ball, seeds)
            if pruned is None:
                continue
            seeds = pruned
        relation = dual_simulation(pattern, ball.graph, seeds=seeds)
        if relation.is_empty():
            continue
        subgraph = extract_max_perfect_subgraph(pattern, ball, relation)
        if subgraph is not None:
            result.add(subgraph)
    return result


def _refine_ball(
    pattern: Pattern,
    global_relation: MatchRelation,
    ball: Ball,
    use_pruning: bool,
) -> Optional[PerfectSubgraph]:
    """Per-ball refinement: projection + pruning + border-seeded deletion."""
    extra_removals: Optional[Set[Tuple[Node, Node]]] = None
    if use_pruning:
        ball_nodes = set(ball.graph.nodes())
        projected = {
            u: global_relation.matches_of_raw(u) & ball_nodes
            for u in pattern.nodes()
        }
        pruned = prune_candidates_by_connectivity(pattern, ball, projected)
        if pruned is None:
            return None
        extra_removals = {
            (u, v)
            for u in pattern.nodes()
            for v in projected[u] - pruned[u]
        }
    return dual_filter(pattern, global_relation, ball, extra_removals)
