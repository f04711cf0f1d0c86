"""Path witnesses over the CSR substrate, plus the 2-hop distance labels.

The bounded and regular matchers (:mod:`repro.core.bounded`,
:mod:`repro.core.regular`) spend almost all of their time answering two
kinds of question about the *data* graph:

* ``dist(v, T) <= k`` — is some member of a target set within ``k``
  directed hops of ``v``? (the bounded-edge witness test, and the
  global ``.*`` edges of regular matching in either direction), and
* regex-constrained successor sets (the ``[18]``-style path semantics).

The reference implementations answer both with a fresh BFS per
``(node, edge)`` pair.  The kernel path answers them over the integer
rows of a :class:`~repro.core.kernel.GraphIndex`:

``_within``
    One multi-source BFS from a whole target (source) set along the
    reverse (forward) rows returns every slot with a path of
    ``1..bound`` hops into (out of) the set.  A fixpoint pop runs it
    once per distinct bound, and every pattern edge of that pop reads
    the one result, so a witness test is a set membership.  Bound-1
    and empty-regex edges stay CSR row tests; general regexes and
    in-ball walks stay memoized lazy-DFA product walks.

``ReachIndex``
    A pruned landmark-ordered 2-hop labeling (Akiba-style pruned
    landmark labeling adapted to digraphs): every live slot ``v``
    carries ``out_labels[v]`` (hub -> ``dist(v, hub)``) and
    ``in_labels[v]`` (hub -> ``dist(hub, v)``), and
    ``dist(u, w) = min over common hubs h of out[u][h] + in[w][h]`` is
    exact.  No matcher reads it: warm probes lost to the multi-source
    BFS at every bound measured (hop bound 2 at |V|=1000, bounds 1/2/3
    and unbounded at |V|=600 and 2500), and patching it cost more per
    write than the queries it served.  It stays as an exact pairwise
    distance oracle (:meth:`ReachIndex.dist`) because ``perfbench``
    builds it at paths-mixed set-up and ``perfbench/sizing.py`` times
    its build.  Built only by
    :func:`get_reach_index` / :func:`reach_index_for` and cached on the
    owning ``GraphIndex``; every mutation drops it for a lazy rebuild
    on the next request.  ``IndexStats`` counts builds, drops and
    pairwise probes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from repro.core.digraph import DiGraph, Node
from repro.core.kernel import (
    _DEAD,
    GraphIndex,
    _ball_bfs,
    get_index,
)
from repro.core.matchrel import MatchRelation
from repro.core.regex import LazyDfa, reversed_nfa
from repro.core.result import MatchResult, PerfectSubgraph
from repro.obs.trace import span as _obs_span

Bound = Optional[int]

_INF = float("inf")

#: Engines understood by the path-matching entry points.  There is no
#: vectorized path kernel, so ``auto`` collapses the numpy tier onto the
#: CSR kernel; explicit ``engine="numpy"`` is a caller error.
PATH_ENGINES = ("auto", "python", "kernel")


def resolve_path_engine(engine: str, data: Optional[DiGraph] = None) -> str:
    """Resolve the engine seam for bounded/regular path matching.

    Same contract as :func:`repro.core.kernel.resolve_engine` restricted
    to the engines that exist for path workloads: ``"python"``, and the
    CSR ``"kernel"``, which ``"auto"`` picks on every graph (there is no
    numpy tier).  ``data`` keeps the call shape of ``resolve_engine``;
    the answer does not depend on it.
    """
    if engine not in PATH_ENGINES:
        raise ValueError(
            f"unknown path engine {engine!r}; expected one of {PATH_ENGINES}"
        )
    return "python" if engine == "python" else "kernel"


def _label_dist(out_d: Dict[int, int], in_d: Dict[int, int]) -> float:
    """``min over common hubs h of out_d[h] + in_d[h]`` (inf when disjoint)."""
    best = _INF
    if len(out_d) <= len(in_d):
        get = in_d.get
        for h, d1 in out_d.items():
            d2 = get(h)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
    else:
        get = out_d.get
        for h, d2 in in_d.items():
            d1 = get(h)
            if d1 is not None and d1 + d2 < best:
                best = d1 + d2
    return best


class ReachIndex:
    """Pruned 2-hop distance labels over a :class:`GraphIndex`'s slots.

    Built from (and indexed by) the integer slots of a
    :class:`~repro.core.kernel.GraphIndex`; :meth:`dist` takes slot ids.
    Construction and probing must happen under the owner's read guard
    (:func:`get_reach_index` arranges this).
    """

    __slots__ = ("gi", "out_labels", "in_labels")

    def __init__(self, gi: GraphIndex) -> None:
        self.gi = gi
        with _obs_span("reach.build") as _sp:
            self._build()
            if _sp.enabled:
                _sp.set(nodes=gi.num_live, edges=gi.num_edges)
        gi.stats.reach_builds += 1

    def _build(self) -> None:
        gi = self.gi
        fwd, rev, labels = gi.fwd_rows, gi.rev_rows, gi.labels
        n = len(labels)
        live = [v for v in range(n) if labels[v] is not _DEAD]
        # Landmark order: descending total degree, slot id as tie-break.
        order = sorted(live, key=lambda v: (-(len(fwd[v]) + len(rev[v])), v))
        # Every live node is its own hub at distance 0 (makes queries
        # touching a node well-defined and strengthens pruning).
        self.out_labels = [
            {v: 0} if labels[v] is not _DEAD else {} for v in range(n)
        ]
        self.in_labels = [
            {v: 0} if labels[v] is not _DEAD else {} for v in range(n)
        ]
        for h in order:
            self._root_bfs(h, forward=True)
            self._root_bfs(h, forward=False)

    def _root_bfs(self, h: int, forward: bool) -> None:
        """One pruned label BFS from hub ``h`` (forward or backward)."""
        out_l, in_l = self.out_labels, self.in_labels
        if forward:
            rows, hub_side, assign = self.gi.fwd_rows, out_l[h], in_l
        else:
            rows, hub_side, assign = self.gi.rev_rows, in_l[h], out_l
        dist: Dict[int, int] = {h: 0}
        queue = deque((h,))
        while queue:
            v = queue.popleft()
            nd = dist[v] + 1
            for w in rows[v]:
                if w in dist:
                    continue
                dist[w] = nd
                if forward:
                    covered = _label_dist(hub_side, in_l[w]) <= nd
                else:
                    covered = _label_dist(out_l[w], hub_side) <= nd
                if covered:
                    continue  # pruned: pair (h, w) already certified
                assign[w][h] = nd
                queue.append(w)

    def dist(self, u: int, w: int) -> Optional[int]:
        """Exact directed distance ``u -> w`` in hops, or None."""
        self.gi.stats.reach_probes += 1
        if u == w:
            return 0
        d = _label_dist(self.out_labels[u], self.in_labels[w])
        return None if d == _INF else int(d)


# ----------------------------------------------------------------------
# lifecycle
def reach_index_for(gi: GraphIndex) -> ReachIndex:
    """The cached ReachIndex of ``gi``, building it on first use.

    Must be called under ``gi.reading()``.  Concurrent first calls may
    race to build; both results are equivalent (built from the same
    guarded rows) and the attribute store is atomic, so the loser's work
    is merely wasted.
    """
    ri = gi._reach
    if ri is None:
        ri = ReachIndex(gi)
        gi._reach = ri
    return ri


def get_reach_index(data: DiGraph) -> ReachIndex:
    """Sync ``data``'s kernel index and return its ReachIndex."""
    gi = get_index(data)
    with gi.reading():
        return reach_index_for(gi)


# ----------------------------------------------------------------------
# Path witnesses: one multi-source BFS per fixpoint pop
# ----------------------------------------------------------------------
def _within(rows: List[List[int]], seeds: Set[int], bound: Bound) -> Set[int]:
    """Slots reached from ``seeds`` in ``1..bound`` hops along ``rows``.

    Along ``rev_rows`` that is every slot with a directed path of
    ``1..bound`` hops *into* ``seeds``; along ``fwd_rows``, every slot
    with one *out of* them (``bound=None``: any length).  Seeds are not
    pre-marked, so a seed is in the result exactly when a cycle or
    another seed reaches it within the bound — the successor-shift
    semantics of the reference oracle.  Layer ``d`` holds the slots
    whose shortest such path has ``d`` hops, so every slot is expanded
    at most once after the seeds' own layer.
    """
    reached: Set[int] = set()
    frontier = seeds
    hops = 0
    while frontier and (bound is None or hops < bound):
        hops += 1
        layer: Set[int] = set()
        for v in frontier:
            layer.update(rows[v])
        layer -= reached
        reached |= layer
        frontier = layer
    return reached


def _memo_within(
    memo: Dict[Bound, Set[int]],
    rows: List[List[int]],
    seeds: Set[int],
    bound: Bound,
) -> Set[int]:
    """:func:`_within`, run at most once per bound for one ``memo``."""
    hit = memo.get(bound)
    if hit is None:
        hit = memo[bound] = _within(rows, seeds, bound)
    return hit


# ----------------------------------------------------------------------
# Kernel engine: bounded simulation
# ----------------------------------------------------------------------
def _to_relation(gi: GraphIndex, sim: Dict[Node, Set[int]]) -> MatchRelation:
    nodes = gi.nodes
    return MatchRelation(
        {u: {nodes[v] for v in vs} for u, vs in sim.items()}
    )


def bounded_simulation_kernel(bounded_pattern, data: DiGraph) -> MatchRelation:
    """CSR bounded simulation, output-identical to the reference.

    Same fixpoint shape as :func:`repro.core.bounded.bounded_simulation`
    (whose result — the unique maximum bounded-simulation relation — it
    must and does reproduce).  Bound-1 edges are plain CSR row tests;
    every other bound (unbounded included) reads one :func:`_within`
    BFS per pop and bound from the popped node's candidates, shared by
    every predecessor edge of that pop.
    """
    pattern = bounded_pattern.pattern
    gi = get_index(data)
    with gi.reading():
        groups = gi.label_groups
        fwd, rev = gi.fwd_rows, gi.rev_rows
        sim: Dict[Node, Set[int]] = {
            u: set(groups.get(pattern.label(u), ())) for u in pattern.nodes()
        }
        queue = deque(pattern.nodes())
        queued: Set[Node] = set(queue)
        while queue:
            u_prime = queue.popleft()
            queued.discard(u_prime)
            targets = sim[u_prime]
            within: Dict[Bound, Set[int]] = {}
            for u in pattern.predecessors(u_prime):
                bound = bounded_pattern.bound((u, u_prime))
                if bound == 1:
                    stale = [
                        v for v in sim[u] if targets.isdisjoint(fwd[v])
                    ]
                else:
                    stale = sim[u] - _memo_within(within, rev, targets, bound)
                if not stale:
                    continue
                sim[u].difference_update(stale)
                if not sim[u]:
                    for candidates in sim.values():
                        candidates.clear()
                    return _to_relation(gi, sim)
                if u not in queued:
                    queue.append(u)
                    queued.add(u)
        if any(not candidates for candidates in sim.values()):
            for candidates in sim.values():
                candidates.clear()
        return _to_relation(gi, sim)


# ----------------------------------------------------------------------
# Kernel engine: regular (regex-constrained) matching
# ----------------------------------------------------------------------
_DIRECT, _WILDCARD, _REGEX = 0, 1, 2


class _RegularProgram:
    """A :class:`RegularPattern` compiled for the int kernel.

    Classifies each pattern edge: empty regex -> direct CSR row test,
    the wildcard ``.*`` -> a :func:`_within` BFS (in global scope),
    anything else -> memoized :class:`LazyDfa` product walks (a reversed
    machine serves the child direction).
    """

    __slots__ = ("pattern", "edges", "kinds", "bounds", "dfas", "rdfas")

    def __init__(self, rpattern) -> None:
        self.pattern = rpattern.pattern
        self.edges = list(self.pattern.edges())
        self.kinds: Dict[Tuple[Node, Node], int] = {}
        self.bounds: Dict[Tuple[Node, Node], Bound] = {}
        self.dfas: Dict[Tuple[Node, Node], LazyDfa] = {}
        self.rdfas: Dict[Tuple[Node, Node], LazyDfa] = {}
        for edge in self.edges:
            source = rpattern.sources[edge].strip()
            self.bounds[edge] = rpattern.bounds[edge]
            if source == "":
                # Empty regex = direct edge regardless of any hop bound
                # (the only path with no intermediates is one hop).
                self.kinds[edge] = _DIRECT
            else:
                self.kinds[edge] = (
                    _WILDCARD if source == ".*" else _REGEX
                )
                nfa = rpattern.nfas[edge]
                self.dfas[edge] = LazyDfa(nfa)
                self.rdfas[edge] = LazyDfa(reversed_nfa(nfa))


def _dfa_successors(
    gi: GraphIndex,
    source: int,
    dfa: LazyDfa,
    bound: Bound,
    members: Optional[Set[int]],
) -> Set[int]:
    """Int mirror of :func:`repro.core.regex.regex_successors`.

    Identical product-graph walk with DFA state ids standing in for the
    reference's frozensets of NFA states (the interning bijection makes
    the visited sets equivalent, and the pruning is depth-aware for the
    same completeness reason); ``members`` restricts the walk to a ball.
    """
    results: Set[int] = set()
    seen: Dict[int, Dict[int, int]] = {source: {dfa.start: 0}}
    stack = [(source, dfa.start, 0)]
    fwd = gi.fwd_rows
    labels = gi.labels
    while stack:
        node, state, depth = stack.pop()
        if bound is not None and depth >= bound:
            continue
        accepting = dfa.accepting(state)
        next_depth = depth + 1
        for child in fwd[node]:
            if members is not None and child not in members:
                continue
            if accepting:
                results.add(child)
            nxt = dfa.step(state, labels[child])
            if nxt < 0:
                continue
            visited = seen.setdefault(child, {})
            prev = visited.get(nxt)
            if prev is not None and prev <= next_depth:
                continue
            visited[nxt] = next_depth
            stack.append((child, nxt, next_depth))
    return results


def _dfa_predecessors(
    gi: GraphIndex,
    target: int,
    rdfa: LazyDfa,
    bound: Bound,
    members: Optional[Set[int]],
) -> Set[int]:
    """Nodes with a regex path into ``target`` (reversed-machine walk)."""
    results: Set[int] = set()
    seen: Dict[int, Dict[int, int]] = {target: {rdfa.start: 0}}
    stack = [(target, rdfa.start, 0)]
    rev = gi.rev_rows
    labels = gi.labels
    while stack:
        node, state, depth = stack.pop()
        if bound is not None and depth >= bound:
            continue
        accepting = rdfa.accepting(state)
        next_depth = depth + 1
        for parent in rev[node]:
            if members is not None and parent not in members:
                continue
            if accepting:
                results.add(parent)
            nxt = rdfa.step(state, labels[parent])
            if nxt < 0:
                continue
            visited = seen.setdefault(parent, {})
            prev = visited.get(nxt)
            if prev is not None and prev <= next_depth:
                continue
            visited[nxt] = next_depth
            stack.append((parent, nxt, next_depth))
    return results


def _regular_fixpoint(
    prog: _RegularProgram,
    gi: GraphIndex,
    members: Optional[Set[int]],
):
    """The regular dual-simulation fixpoint over integer candidate sets.

    ``members=None`` runs globally (wildcard edges read one
    :func:`_within` BFS per pop, direction and bound); a member set runs
    ball-restricted (wildcard edges fall back to DFA walks, which stay
    inside the ball).

    Returns ``(sim, successors)``: the converged candidate sets (all
    cleared on collapse, like the reference) plus the memoized
    per-(edge, node) successor closure, which the strong matcher reuses
    to build match graphs without re-walking.
    """
    pattern = prog.pattern
    groups = gi.label_groups
    if members is None:
        sim: Dict[Node, Set[int]] = {
            u: set(groups.get(pattern.label(u), ())) for u in pattern.nodes()
        }
    else:
        sim = {
            u: set(groups.get(pattern.label(u), ())) & members
            for u in pattern.nodes()
        }
    fwd = gi.fwd_rows
    rev = gi.rev_rows
    succ_cache: Dict[Tuple[Node, Node], Dict[int, Set[int]]] = {
        edge: {} for edge in prog.edges
    }
    pred_cache: Dict[Tuple[Node, Node], Dict[int, Set[int]]] = {
        edge: {} for edge in prog.edges
    }

    def successors(edge: Tuple[Node, Node], v: int) -> Set[int]:
        cache = succ_cache[edge]
        hit = cache.get(v)
        if hit is None:
            hit = _dfa_successors(
                gi, v, prog.dfas[edge], prog.bounds[edge], members
            )
            cache[v] = hit
        return hit

    def predecessors(edge: Tuple[Node, Node], v: int) -> Set[int]:
        cache = pred_cache[edge]
        hit = cache.get(v)
        if hit is None:
            hit = _dfa_predecessors(
                gi, v, prog.rdfas[edge], prog.bounds[edge], members
            )
            cache[v] = hit
        return hit

    def collapse():
        for candidates in sim.values():
            candidates.clear()
        return sim, successors

    queue = deque(pattern.nodes())
    queued: Set[Node] = set(queue)
    while queue:
        w = queue.popleft()
        queued.discard(w)
        w_candidates = sim[w]
        into: Dict[Bound, Set[int]] = {}  # paths into sim(w), by bound
        out_of: Dict[Bound, Set[int]] = {}  # paths out of sim(w), by bound
        # Parents u of w: v in sim(u) needs a regex path into sim(w).
        for u in pattern.predecessors(w):
            edge = (u, w)
            kind = prog.kinds[edge]
            if kind == _DIRECT:
                stale = [
                    v for v in sim[u] if w_candidates.isdisjoint(fwd[v])
                ]
            elif kind == _WILDCARD and members is None:
                stale = sim[u] - _memo_within(
                    into, rev, w_candidates, prog.bounds[edge]
                )
            else:
                stale = [
                    v
                    for v in sim[u]
                    if w_candidates.isdisjoint(successors(edge, v))
                ]
            if stale:
                sim[u].difference_update(stale)
                if not sim[u]:
                    return collapse()
                if u not in queued:
                    queue.append(u)
                    queued.add(u)
        # Children u of w: v in sim(u) needs a regex path *from* sim(w).
        for u in pattern.successors(w):
            edge = (w, u)
            kind = prog.kinds[edge]
            if kind == _DIRECT:
                stale = [
                    v for v in sim[u] if w_candidates.isdisjoint(rev[v])
                ]
            elif kind == _WILDCARD and members is None:
                stale = sim[u] - _memo_within(
                    out_of, fwd, w_candidates, prog.bounds[edge]
                )
            else:
                stale = [
                    v
                    for v in sim[u]
                    if w_candidates.isdisjoint(predecessors(edge, v))
                ]
            if stale:
                sim[u].difference_update(stale)
                if not sim[u]:
                    return collapse()
                if u not in queued:
                    queue.append(u)
                    queued.add(u)
    if any(not candidates for candidates in sim.values()):
        return collapse()
    return sim, successors


def regular_dual_simulation_kernel(rpattern, data: DiGraph) -> MatchRelation:
    """CSR regular dual simulation (reference-identical)."""
    gi = get_index(data)
    prog = _RegularProgram(rpattern)
    with gi.reading():
        sim, _ = _regular_fixpoint(prog, gi, None)
        return _to_relation(gi, sim)


def regular_strong_match_kernel(
    rpattern, data: DiGraph, radius: Optional[int] = None
) -> MatchResult:
    """CSR regular strong matching (reference-identical).

    Global regular dual simulation, then the reference's
    per-ball pipeline — ball-restricted fixpoint, path-semantics match
    graph, undirected component of the center — over integer ids,
    materializing object graphs only for successful balls.
    """
    pattern = rpattern.pattern
    if radius is None:
        radius = rpattern.default_radius()
    result = MatchResult(pattern)
    gi = get_index(data)
    prog = _RegularProgram(rpattern)
    with gi.reading():
        global_sim, _ = _regular_fixpoint(prog, gi, None)
        matched: Set[int] = set()
        for candidates in global_sim.values():
            matched |= candidates
        if not matched:
            return result
        nodes = gi.nodes
        labels = gi.labels
        fwd = gi.fwd_rows
        for center in sorted(matched, key=lambda i: repr(nodes[i])):
            order, _, _, _ = _ball_bfs(gi, center, radius)
            members = set(order)
            sim, successors = _regular_fixpoint(prog, gi, members)
            if not any(sim.values()):
                continue
            if not any(center in candidates for candidates in sim.values()):
                continue
            # Path-semantics match graph: one edge per witnessed pattern
            # edge between endpoint matches (interiors not materialized).
            match_edges: Set[Tuple[int, int]] = set()
            madj: Dict[int, List[int]] = {}
            for edge in prog.edges:
                u, u_prime = edge
                targets = sim[u_prime]
                direct = prog.kinds[edge] == _DIRECT
                for v in sim[u]:
                    if direct:
                        witnesses = targets.intersection(fwd[v])
                    else:
                        witnesses = successors(edge, v) & targets
                    for v_prime in witnesses:
                        if (v, v_prime) in match_edges:
                            continue
                        match_edges.add((v, v_prime))
                        madj.setdefault(v, []).append(v_prime)
                        if v_prime != v:
                            madj.setdefault(v_prime, []).append(v)
            component = {center}
            stack = [center]
            while stack:
                x = stack.pop()
                for y in madj.get(x, ()):
                    if y not in component:
                        component.add(y)
                        stack.append(y)
            subgraph = DiGraph._build_unchecked(
                ((nodes[i], labels[i]) for i in component),
                (
                    (nodes[a], nodes[b])
                    for a, b in match_edges
                    if a in component
                ),
            )
            restricted = MatchRelation(
                {
                    u: {nodes[v] for v in candidates & component}
                    for u, candidates in sim.items()
                }
            )
            result.add(PerfectSubgraph(subgraph, restricted, nodes[center]))
    return result
