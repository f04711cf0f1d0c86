"""Incremental strong simulation under graph updates (the paper's future work).

Section 6 lists "incremental methods for strong simulation, minimizing
unnecessary recomputation in response to (frequent) changes to real-life
graphs" as future work; Section 4.2 already observes that "it is much
easier to deal with node or edge deletions than insertions".  This module
implements both observations:

* :class:`IncrementalDualSimulation` maintains the maximum dual-simulation
  relation of a fixed pattern over a mutable data graph.  **Deletions**
  are handled exactly and incrementally by the same deletion-propagation
  cascade as ``dualFilter``: removing an edge can only *shrink* the
  maximum relation (the gfp is monotone in the data graph), so the pairs
  that lost their witness are removed and the removal cascades.
  **Insertions** can only *grow* the relation, arbitrarily far from the
  new edge, so they recompute it with the fixpoint.

* :class:`IncrementalMatcher` maintains the full strong-simulation result
  Θ as incremental ``Match+`` (Sec. 4.2), composed of the class above and
  ``Match+``'s per-ball step.  It holds an
  :class:`IncrementalDualSimulation` for the global relation ``S_G`` and
  caches one perfect subgraph per ball center.  After an update it
  refines only the affected balls whose center lies inside ``S_G``,
  exactly as :func:`~repro.core.matchplus.match_plus` does: the ball
  keeps only ``S_G``'s nodes (:func:`~repro.core.ball.extract_ball_restricted`)
  and is refined from ``S_G`` by projection, connectivity pruning and
  border-seeded deletion (``matchplus._refine_ball``).  Two facts make
  this exact:

  - *Locality.*  An update can only change the balls whose center lies
    within ``d_Q`` undirected hops of an endpoint, measured in the graph
    where the edge is present: any ball further away contains neither
    endpoint, and a shortest path of length ≤ d_Q through the edge would
    put an endpoint within d_Q.
  - *The filter is sound.*  A ball's maximum dual relation is a dual
    simulation of G, so it lies inside ``S_G``.  A center outside
    ``S_G`` therefore yields no perfect subgraph, and restricting a ball
    to ``S_G``'s nodes changes no result (``match_plus`` and
    ``Cluster.run``'s site filter rely on the same fact).  When an
    update moves ``S_G`` far from the edge, the balls there are
    unchanged, and so are their results.

Both classes take an ``engine`` argument (``"auto"`` | ``"kernel"`` |
``"numpy"`` | ``"python"``), resolved once at construction by
:func:`~repro.core.kernel.resolve_engine`, and keep one substrate, the
reference dicts.  The engine picks only the row's ``dual`` cell of
:data:`repro.core.engines.ENGINE_TABLE`, which computes ``S_G`` at
construction and after insertions — on ``kernel`` and ``numpy`` the
counter fixpoint over the graph's incrementally maintained
:class:`~repro.core.kernel.GraphIndex` (no recompiles under insertions).
Deletions are repaired by the reference cascade, and balls refined by
the reference per-ball step, on every engine.

Output-identical to a from-scratch computation after every update.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.ball import extract_ball_restricted
from repro.core.digraph import DiGraph, Node
from repro.core.engines import ENGINE_TABLE
from repro.core.kernel import resolve_engine
from repro.core.matchplus import _refine_ball
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.traversal import undirected_distances
from repro.exceptions import MatchingError


class IncrementalDualSimulation:
    """Maintains the maximum dual-simulation relation under edge updates.

    The wrapped graph must be mutated *through this object* (``add_edge``
    / ``remove_edge`` / ``add_node`` / ``remove_node``) so the relation
    stays synchronized.

    Example
    -------
    >>> from repro.core.pattern import Pattern
    >>> from repro.core.digraph import DiGraph
    >>> g = DiGraph.from_parts({"a": "A", "b": "B"}, [("a", "b")])
    >>> q = Pattern.build({"x": "A", "y": "B"}, [("x", "y")])
    >>> inc = IncrementalDualSimulation(q, g)
    >>> sorted(inc.relation.matches_of("x"))
    ['a']
    >>> inc.remove_edge("a", "b")
    >>> inc.relation.is_empty()
    True
    """

    def __init__(
        self, pattern: Pattern, data: DiGraph, engine: str = "auto"
    ) -> None:
        self.pattern = pattern
        self.data = data
        self.engine = resolve_engine(engine, data)
        self._dual = ENGINE_TABLE[self.engine].dual
        self.recomputations = 0  # full fixpoints run (observability)
        self.cascade_removals = 0  # pairs removed incrementally
        self._sim: Dict[Node, Set[Node]] = self._dual(
            pattern, data
        ).to_sim_dict()

    # ------------------------------------------------------------------
    @property
    def relation(self) -> MatchRelation:
        """The current maximum dual-simulation relation."""
        return MatchRelation(self._sim)

    def _pair_valid(self, u: Node, v: Node) -> bool:
        """Check both dual-simulation conditions for one pair."""
        for u1 in self.pattern.successors(u):
            targets = self._sim[u1]
            if not any(x in targets for x in self.data.successors_raw(v)):
                return False
        for u2 in self.pattern.predecessors(u):
            sources = self._sim[u2]
            if not any(x in sources for x in self.data.predecessors_raw(v)):
                return False
        return True

    def _cascade_remove(self, seeds: Iterable[Tuple[Node, Node]]) -> None:
        """Deletion propagation from invalid seed pairs (exact)."""
        queue = list(seeds)
        while queue:
            u, v = queue.pop()
            if v not in self._sim[u]:
                continue
            if self._pair_valid(u, v):
                continue
            self._sim[u].discard(v)
            self.cascade_removals += 1
            if not self._sim[u]:
                for candidates in self._sim.values():
                    candidates.clear()
                return
            # Neighbors of (u, v) in pattern x data may have lost their
            # witness: re-examine them.
            for u2 in self.pattern.predecessors(u):
                for v2 in self.data.predecessors_raw(v):
                    if v2 in self._sim[u2]:
                        queue.append((u2, v2))
            for u1 in self.pattern.successors(u):
                for v1 in self.data.successors_raw(v):
                    if v1 in self._sim[u1]:
                        queue.append((u1, v1))

    # ------------------------------------------------------------------
    def remove_edge(self, source: Node, target: Node) -> None:
        """Delete a data edge and repair the relation incrementally.

        Only pairs whose witness used the deleted edge can become
        invalid; they are exactly the pairs over the two endpoints, so
        the cascade is seeded there.
        """
        self.data.remove_edge(source, target)
        seeds = [
            (u, source) for u in self.pattern.nodes() if source in self._sim[u]
        ] + [
            (u, target) for u in self.pattern.nodes() if target in self._sim[u]
        ]
        self._cascade_remove(seeds)

    def remove_node(self, node: Node) -> None:
        """Delete a data node (and incident edges), repairing incrementally."""
        if node not in self.data:
            raise MatchingError(f"node {node!r} is not in the data graph")
        neighbors = set(self.data.successors_raw(node)) | set(
            self.data.predecessors_raw(node)
        )
        self.data.remove_node(node)
        for candidates in self._sim.values():
            candidates.discard(node)
        seeds = [
            (u, v)
            for u in self.pattern.nodes()
            for v in neighbors
            if v in self._sim[u]
        ]
        self._cascade_remove(seeds)

    def add_edge(self, source: Node, target: Node) -> None:
        """Insert a data edge and grow the relation.

        Insertion can re-admit pairs arbitrarily far away (a chain
        pattern can transmit eligibility along a chain graph), so the
        exact maximum is re-established by re-running the fixpoint from
        the label candidates with the engine's ``dual`` cell.  The
        paper's observation that insertions are the hard direction is
        thus made concrete: deletions are O(affected), insertions a full
        fixpoint — on the compiled engines a counter fixpoint over the
        incrementally maintained CSR arrays, with zero index
        recompilation.
        """
        self.data.add_edge(source, target)
        self.recomputations += 1
        self._sim = self._dual(self.pattern, self.data).to_sim_dict()

    def add_node(self, node: Node, label) -> None:
        """Insert an isolated data node.

        An isolated node matches a pattern node only if that pattern node
        has no edges at all; with a connected pattern of ≥ 2 nodes the
        relation is unchanged, so no fixpoint is needed.
        """
        self.data.add_node(node, label)
        if self.pattern.num_nodes == 1:
            u = next(iter(self.pattern.nodes()))
            if self.pattern.label(u) == label and not list(self.pattern.edges()):
                self._sim[u].add(node)


class IncrementalMatcher:
    """Maintains the strong-simulation result Θ under graph updates.

    Incremental ``Match+`` (see the module docstring): an
    :class:`IncrementalDualSimulation` keeps the global relation
    ``S_G``, one perfect subgraph is cached per ball center, and an
    update re-runs ``Match+``'s per-ball step only for the centers within
    ``d_Q`` undirected hops of an endpoint (before a deletion, after an
    insertion) that lie inside ``S_G``.  ``balls_recomputed`` counts the
    balls refined.
    """

    def __init__(
        self, pattern: Pattern, data: DiGraph, engine: str = "auto"
    ) -> None:
        self.pattern = pattern
        self.data = data
        self._dualsim = IncrementalDualSimulation(pattern, data, engine)
        self.engine = self._dualsim.engine
        self.radius = pattern.diameter
        #: Center -> its ball's perfect subgraph (centers with one only).
        self._cache: Dict[Node, PerfectSubgraph] = {}
        self.balls_recomputed = 0  # balls refined (observability)
        self._update(self.data.nodes())

    def _update(self, centers: Iterable[Node]) -> None:
        """Refine the balls of ``centers`` that lie inside ``S_G``."""
        relation = self._dualsim.relation
        matched = relation.data_nodes()
        for center in centers:
            self._cache.pop(center, None)
            if center in matched:
                subgraph = self._refine(center, relation, matched)
                if subgraph is not None:
                    self._cache[center] = subgraph

    def _refine(
        self, center: Node, relation: MatchRelation, matched: Set[Node]
    ) -> Optional[PerfectSubgraph]:
        """``Match+``'s per-ball step: the ball keeps only ``S_G``'s nodes
        and is refined from ``S_G`` by border-seeded deletion."""
        self.balls_recomputed += 1
        ball = extract_ball_restricted(self.data, center, self.radius, matched)
        return _refine_ball(self.pattern, relation, ball, use_pruning=True)

    def _around(self, *endpoints: Node) -> Set[Node]:
        """Nodes within ``d_Q`` undirected hops of any present endpoint."""
        nearby: Set[Node] = set()
        for endpoint in endpoints:
            if endpoint in self.data:
                nearby.update(
                    undirected_distances(self.data, endpoint, self.radius)
                )
        return nearby

    # ------------------------------------------------------------------
    def result(self) -> MatchResult:
        """The current deduplicated Θ (assembled from the ball cache)."""
        result = MatchResult(self.pattern)
        for subgraph in self._cache.values():
            result.add(subgraph)
        return result

    def add_edge(self, source: Node, target: Node) -> None:
        """Insert an edge; refine only the affected balls."""
        self._dualsim.add_edge(source, target)
        self._update(self._around(source, target))

    def remove_edge(self, source: Node, target: Node) -> None:
        """Delete an edge; refine only the affected balls."""
        affected = self._around(source, target)
        self._dualsim.remove_edge(source, target)
        self._update(affected)

    def add_node(self, node: Node, label) -> None:
        """Insert an isolated node (its own new ball; others untouched)."""
        self._dualsim.add_node(node, label)
        self._update((node,))

    def remove_node(self, node: Node) -> None:
        """Delete a node with its edges; refine the affected balls."""
        affected = self._around(node)
        self._dualsim.remove_node(node)
        self._update(affected)
