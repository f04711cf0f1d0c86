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
  Θ.  The locality of strong simulation makes this precise: an edge
  change can only affect balls whose center lies within ``d_Q`` hops of
  either endpoint (any ball further away contains neither endpoint, and
  a shortest path of length ≤ d_Q through the edge would put an endpoint
  within d_Q).  Only those balls are re-evaluated.

Both classes take an ``engine`` argument (``"auto"`` | ``"kernel"`` |
``"numpy"`` | ``"python"``), resolved once at construction by
:func:`~repro.core.kernel.resolve_engine`, and read the engine's row of
:data:`repro.core.engines.ENGINE_TABLE`:

* :class:`IncrementalDualSimulation` keeps one substrate, the reference
  ``sim`` dicts.  Its deletion cascade revalidates pairs with set scans
  over ``DiGraph`` adjacency on every engine; construction and
  insertions run the row's ``dual`` cell, which on ``kernel`` and
  ``numpy`` is the counter fixpoint over the graph's incrementally
  maintained :class:`~repro.core.kernel.GraphIndex` (no recompiles
  under insertions).
* :class:`IncrementalMatcher` keeps two substrates, and the row's
  ``compiled`` flag picks one.  The reference substrate rebuilds balls
  as per-ball ``DiGraph`` objects; the compiled one (``kernel`` and
  ``numpy``) finds the affected region and re-evaluates its balls with
  kernel ball extraction over the maintained index.

Output-identical to a from-scratch computation after every update.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.core.ball import extract_ball
from repro.core.digraph import DiGraph, Node
from repro.core.dualsim import dual_simulation
from repro.core.engines import ENGINE_TABLE
from repro.core.kernel import (
    _ball_bfs,
    _CompiledPattern,
    _match_ball,
    get_index,
    resolve_engine,
)
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.strong import extract_max_perfect_subgraph
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
    """Maintains the strong-simulation result Θ under edge updates.

    Per-ball results are cached by center; an update invalidates exactly
    the balls whose center lies within ``d_Q`` undirected hops of either
    endpoint of the changed edge (measured in the graph where the edge is
    present — before a deletion, after an insertion).  Everything else is
    provably untouched by the update (locality).  Only centers whose
    label occurs in the pattern are ever evaluated: any other center
    matches no pattern node, so ``ExtractMaxPG`` returns nothing for its
    ball (line 1; see :func:`repro.core.strong.candidate_centers`).

    On the compiled substrate (``kernel`` and ``numpy``), affected-region
    discovery and ball re-evaluation both run over the incrementally
    maintained :class:`~repro.core.kernel.GraphIndex` — epoch-stamped CSR
    ball BFS plus the counter fixpoint — so an update costs O(affected
    balls) with no index recompilation.
    """

    def __init__(
        self, pattern: Pattern, data: DiGraph, engine: str = "auto"
    ) -> None:
        self.pattern = pattern
        self.data = data
        self.engine = resolve_engine(engine, data)
        self._compiled = ENGINE_TABLE[self.engine].compiled
        self.radius = pattern.diameter
        self._labels = pattern.label_set()
        self._cp = _CompiledPattern(pattern) if self._compiled else None
        #: Candidate center -> its ball's perfect subgraph (or ``None``).
        self._cache: Dict[Node, Optional[PerfectSubgraph]] = {}
        self.balls_recomputed = 0
        self._evaluate_all()

    def _evaluate_ball(self, center: Node) -> Optional[PerfectSubgraph]:
        self.balls_recomputed += 1
        if self._compiled:
            gi = get_index(self.data)
            return _match_ball(
                self._cp, gi, gi.index_of[center], self.radius
            )
        ball = extract_ball(self.data, center, self.radius)
        relation = dual_simulation(self.pattern, ball.graph)
        if relation.is_empty():
            return None
        return extract_max_perfect_subgraph(self.pattern, ball, relation)

    def _evaluate_all(self) -> None:
        label_of = self.data.labels_raw()
        for center in self.data.nodes():
            if label_of[center] in self._labels:
                self._cache[center] = self._evaluate_ball(center)

    # ------------------------------------------------------------------
    def result(self) -> MatchResult:
        """The current deduplicated Θ (assembled from the ball cache)."""
        result = MatchResult(self.pattern)
        for subgraph in self._cache.values():
            if subgraph is not None:
                result.add(subgraph)
        return result

    def _affected_centers(self, source: Node, target: Node) -> Set[Node]:
        """Candidate centers within d_Q of either endpoint (edge
        currently present)."""
        affected: Set[Node] = set()
        endpoints = (source,) if source == target else (source, target)
        if self._compiled:
            gi = get_index(self.data)
            for endpoint in endpoints:
                endpoint_id = gi.index_of.get(endpoint)
                if endpoint_id is not None:
                    order, _, _, _ = _ball_bfs(gi, endpoint_id, self.radius)
                    nodes = gi.nodes
                    affected.update(nodes[v] for v in order)
        else:
            for endpoint in endpoints:
                if endpoint in self.data:
                    affected |= set(
                        undirected_distances(self.data, endpoint, self.radius)
                    )
        label_of = self.data.labels_raw()
        return {v for v in affected if label_of[v] in self._labels}

    def add_edge(self, source: Node, target: Node) -> None:
        """Insert an edge; re-evaluate only the affected balls."""
        self.data.add_edge(source, target)
        for center in self._affected_centers(source, target):
            self._cache[center] = self._evaluate_ball(center)

    def remove_edge(self, source: Node, target: Node) -> None:
        """Delete an edge; re-evaluate only the affected balls."""
        affected = self._affected_centers(source, target)
        self.data.remove_edge(source, target)
        for center in affected:
            self._cache[center] = self._evaluate_ball(center)

    def add_node(self, node: Node, label) -> None:
        """Insert an isolated node (its own new ball; others untouched)."""
        self.data.add_node(node, label)
        if label in self._labels:
            self._cache[node] = self._evaluate_ball(node)

    def remove_node(self, node: Node) -> None:
        """Delete a node with its edges; re-evaluate the affected balls."""
        if node not in self.data:
            raise MatchingError(f"node {node!r} is not in the data graph")
        affected = self._affected_centers(node, node)
        affected.discard(node)
        self.data.remove_node(node)
        self._cache.pop(node, None)
        for center in affected:
            self._cache[center] = self._evaluate_ball(center)
