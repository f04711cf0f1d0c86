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
  **Insertions** can only *grow* the relation; growth is computed by a
  bounded re-expansion: label-compatible pairs in the affected region are
  re-admitted optimistically and the ordinary fixpoint re-refines them.

* :class:`IncrementalMatcher` maintains the full strong-simulation result
  Θ.  The locality of strong simulation makes this precise: an edge
  change can only affect balls whose center lies within ``d_Q`` hops of
  either endpoint (any ball further away contains neither endpoint, and
  a shortest path of length ≤ d_Q through the edge would put an endpoint
  within d_Q).  Only those balls are re-evaluated.

Both classes take an ``engine`` argument (``"auto"`` | ``"kernel"`` |
``"numpy"`` | ``"python"``), resolved once at construction by
:func:`~repro.core.kernel.resolve_engine`.  Each keeps two substrates,
and the ``compiled`` flag of the engine's row in
:data:`repro.core.engines.ENGINE_TABLE` picks one:

* reference (``python``) — the cascade revalidates pairs with set scans
  over ``DiGraph`` adjacency, insertions re-run the set-based fixpoint,
  and balls are rebuilt as per-ball ``DiGraph`` objects.
* compiled (``kernel`` and ``numpy``) — the update path runs on the same
  compiled substrate as the query path.  Graph mutations flow through
  the :class:`~repro.core.digraph.GraphDelta` pipeline into an
  incrementally maintained :class:`~repro.core.kernel.GraphIndex` (no
  recompiles under insertions); the deletion cascade decrements the
  kernel's persistent *witness counters* directly (O(1) per surviving
  witness instead of a revalidation scan); insertion re-expansion
  re-runs the counter fixpoint over the CSR arrays; and
  :class:`IncrementalMatcher` re-evaluates affected balls via kernel
  ball extraction.  Output-identical to the reference path after every
  update.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.ball import extract_ball
from repro.core.digraph import DiGraph, Node
from repro.core.dualsim import dual_simulation
from repro.core.engines import ENGINE_TABLE
from repro.core.kernel import (
    GraphIndex,
    Pair,
    _ball_bfs,
    _CompiledPattern,
    _dual_sim_eager,
    _match_ball,
    _run_fixpoint,
    _seed_by_label_full,
    get_index,
    resolve_engine,
)
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.simulation import initial_candidates
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
        self._compiled = ENGINE_TABLE[self.engine].compiled
        self.recomputations = 0  # full fixpoints run (observability)
        self.cascade_removals = 0  # pairs removed incrementally
        if self._compiled:
            self._cp = _CompiledPattern(pattern)
            self._gi: GraphIndex  # set (with _compiles_seen) by the call:
            self._kernel_refixpoint()
        else:
            self._sim: Dict[Node, Set[Node]] = dual_simulation(
                pattern, data
            ).to_sim_dict()

    # ------------------------------------------------------------------
    @property
    def relation(self) -> MatchRelation:
        """The current maximum dual-simulation relation."""
        if self._compiled:
            nodes = self._gi.nodes
            cp = self._cp
            return MatchRelation(
                {
                    cp.nodes[u]: {nodes[v] for v in self._sim_ids[u]}
                    for u in range(cp.size)
                }
            )
        return MatchRelation(self._sim)

    # ------------------------------------------------------------------
    # Kernel substrate: persistent counters over the maintained index
    # ------------------------------------------------------------------
    def _sync_index(self) -> GraphIndex:
        """The synced index, remapping ids if a recompile compacted them.

        Incremental maintenance keeps ids stable, but a deletion-heavy
        history triggers a compacting recompile (and disabled maintenance
        replaces the index object outright).  Either way the surviving
        candidates are translated object-wise and the witness counters
        dropped — the fixpoint's lazy-recount path rebuilds any counter
        it touches, so dropping them costs a recount, never correctness.
        """
        # Capture the node list our ids index BEFORE get_index: a
        # threshold-triggered recompile rebuilds the SAME index object in
        # place, replacing its .nodes with the compacted list (the old
        # list object survives only through this reference).
        old_nodes = self._gi.nodes
        gi = get_index(self.data)
        if gi is self._gi and gi.stats.full_compiles == self._compiles_seen:
            return gi
        index_of = gi.index_of
        self._sim_ids = [
            {
                index_of[old_nodes[v]]
                for v in s
                if old_nodes[v] in index_of
            }
            for s in self._sim_ids
        ]
        self._cnt_down = [{} for _ in self._cp.edges]
        self._cnt_up = [{} for _ in self._cp.edges]
        self._gi = gi
        self._compiles_seen = gi.stats.full_compiles
        return gi

    def _kernel_refixpoint(self) -> None:
        """(Re)establish the gfp from label seeds; keeps the counters."""
        gi = get_index(self.data)
        cp = self._cp
        sim = _seed_by_label_full(cp, gi)
        cnt_down: List[Dict[int, int]] = [{} for _ in cp.edges]
        cnt_up: List[Dict[int, int]] = [{} for _ in cp.edges]
        if not (all(sim) and _dual_sim_eager(cp, gi, sim, cnt_down, cnt_up)):
            for s in sim:
                s.clear()
        self._sim_ids = sim
        self._cnt_down = cnt_down
        self._cnt_up = cnt_up
        self._gi = gi
        self._compiles_seen = gi.stats.full_compiles

    def _kernel_seed_removed_edge(
        self, v: int, w: int, pending: Deque[Pair]
    ) -> None:
        """Decrement the witness counters that counted data edge (v, w).

        For every pattern edge ``e = (a, b)`` with ``v ∈ sim(a)`` and
        ``w ∈ sim(b)``, the removed data edge was one surviving witness:
        ``cnt_down[e][v]`` and ``cnt_up[e][w]`` each drop by one, and a
        count reaching zero enqueues its pair for the ordinary cascade.
        Missing counter entries are recomputed by one post-removal scan
        (the kernel's lazy-count invariant).
        """
        gi = self._gi
        fwd = gi.fwd_rows
        rev = gi.rev_rows
        sim = self._sim_ids
        push = pending.append
        for e, (a, b) in enumerate(self._cp.edges):
            sim_a = sim[a]
            sim_b = sim[b]
            if v not in sim_a or w not in sim_b:
                continue
            cd = self._cnt_down[e]
            c = cd.get(v)
            if c is None:
                c = 0
                for x in fwd[v]:
                    if x in sim_b:
                        c += 1
            else:
                c -= 1
            cd[v] = c
            if not c:
                push((a, v))
            cu = self._cnt_up[e]
            c = cu.get(w)
            if c is None:
                c = 0
                for x in rev[w]:
                    if x in sim_a:
                        c += 1
            else:
                c -= 1
            cu[w] = c
            if not c:
                push((b, w))

    def _kernel_cascade(self, pending: Deque[Pair]) -> None:
        """Drain a deletion worklist on the persistent counters."""
        if not pending:
            return
        before = sum(len(s) for s in self._sim_ids)
        if not _run_fixpoint(
            self._cp,
            self._gi,
            self._sim_ids,
            self._cnt_down,
            self._cnt_up,
            pending,
        ):
            for s in self._sim_ids:
                s.clear()
        self.cascade_removals += before - sum(len(s) for s in self._sim_ids)

    def _kernel_remove_edge(self, source: Node, target: Node) -> None:
        self.data.remove_edge(source, target)
        gi = self._sync_index()
        pending: Deque[Pair] = deque()
        self._kernel_seed_removed_edge(
            gi.index_of[source], gi.index_of[target], pending
        )
        self._kernel_cascade(pending)

    # ------------------------------------------------------------------
    # Reference substrate (the paper-shaped path)
    # ------------------------------------------------------------------
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
        the cascade is seeded there.  On the kernel engine the seeding is
        a counter decrement per surviving witness pair, not a scan.
        """
        if self._compiled:
            self._kernel_remove_edge(source, target)
            return
        self.data.remove_edge(source, target)
        seeds = [
            (u, source) for u in self.pattern.nodes() if source in self._sim[u]
        ] + [
            (u, target) for u in self.pattern.nodes() if target in self._sim[u]
        ]
        self._cascade_remove(seeds)

    def remove_node(self, node: Node) -> None:
        """Delete a data node (and incident edges), repairing incrementally."""
        if self._compiled:
            # Exact decomposition: cascade each incident edge deletion on
            # the counters, then drop the (now isolated) node's own pairs
            # — an isolated node witnesses nothing, so no further cascade.
            for target in list(self.data.successors_raw(node)):
                self._kernel_remove_edge(node, target)
            for source in list(self.data.predecessors_raw(node)):
                self._kernel_remove_edge(source, node)
            gi = self._sync_index()
            node_id = gi.index_of[node]
            for s in self._sim_ids:
                s.discard(node_id)
            self.data.remove_node(node)
            self._sync_index()
            return
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
        exact maximum is re-established by re-running the fixpoint —
        but seeded with the *union* of the current relation and all
        label candidates, which converges to the same gfp as a fresh
        run while reusing no stale exclusions.  The paper's observation
        that insertions are the hard direction is thus made concrete:
        deletions are O(affected), insertions are a full (warm) fixpoint
        — on the kernel engine a counter fixpoint over the incrementally
        maintained CSR arrays, with zero index recompilation.
        """
        self.data.add_edge(source, target)
        self.recomputations += 1
        if self._compiled:
            self._kernel_refixpoint()
            return
        seeds = initial_candidates(self.pattern, self.data)
        self._sim = dual_simulation(
            self.pattern, self.data, seeds=seeds
        ).to_sim_dict()

    def add_node(self, node: Node, label) -> None:
        """Insert an isolated data node.

        An isolated node matches a pattern node only if that pattern node
        has no edges at all; with a connected pattern of ≥ 2 nodes the
        relation is unchanged, so no fixpoint is needed.
        """
        self.data.add_node(node, label)
        if self._compiled:
            gi = self._sync_index()
            cp = self._cp
            if cp.size == 1 and not cp.edges and cp.labels[0] == label:
                self._sim_ids[0].add(gi.index_of[node])
            return
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
    provably untouched by the update (locality).

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
        self._cp = _CompiledPattern(pattern) if self._compiled else None
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
        for center in self.data.nodes():
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
        """Centers within d_Q of either endpoint (edge currently present)."""
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
            return affected
        for endpoint in endpoints:
            if endpoint in self.data:
                affected |= set(
                    undirected_distances(self.data, endpoint, self.radius)
                )
        return affected

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
