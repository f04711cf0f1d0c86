"""Path witnesses over the CSR substrate, plus the 2-hop distance labels.

The bounded and regular matchers (:mod:`repro.core.bounded`,
:mod:`repro.core.regular`) refine a relation whose witnesses are
directed *paths* of the data graph rather than edges.  The reference
implementations answer each witness test with a fresh BFS or NFA walk
per ``(node, edge)`` pair.  The kernel path runs them over the integer
rows of a :class:`~repro.core.kernel.GraphIndex`:

The check program
    A pattern compiles to the kernel's witness checks
    (:class:`~repro.core.kernel._CompiledPattern`): child checks only
    for bounded simulation, child and parent checks for regular dual
    simulation.  Each check gets one witness test and a hop reach: a
    CSR row test for bound 1 and the empty regex (a direct edge, reach
    1); one :func:`_within` BFS per fixpoint pop for any other hop bound
    and for the wildcard ``.*``; a memoized lazy-DFA product walk
    (:func:`_dfa_walk`, held by :class:`_Walks`) for every other regex,
    where a parent check walks the reverse rows with the reversed
    machine.  A path check's reach is its hop bound (None when
    unbounded).

The fixpoint
    One worklist loop, :func:`_path_fixpoint`, computes the global
    relation for all three entry points: each pop of a pattern node
    ``y`` re-tests the checks in ``watch[y]`` against ``sim(y)`` and
    requeues every pattern node that lost candidates.  :func:`_within`
    runs once per pop, direction and bound, from the popped node's
    whole candidate set, so every check of that pop reads one set and a
    witness test is a set membership.  It returns its walk memo.

The ball step
    Regular strong matching refines each ball with the kernel's one
    ball step, :func:`~repro.core.kernel._refine_ball`, as ``Match+``
    does: the global relation ∩ ball, the first round seeded by hop
    reach, the counter cascade and the match-graph component.
    :func:`_ball_views` gives it each check's witnesses in the ball: a
    walk from depth ``≤ r − b + 1`` stays inside the ball, so it reads
    the global memo; deeper candidates, and every candidate of an
    unbounded check, walk inside the ball, memoized per ball.  The
    cascade reads a check's sources as its partner check's walks.

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
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.digraph import DiGraph
from repro.core.kernel import (
    _DEAD,
    GraphIndex,
    Rows,
    _CompiledPattern,
    _deeper,
    _refine_ball,
    _row_views,
    _seed_by_label_full,
    get_index,
)
from repro.core.matchrel import MatchRelation
from repro.core.regex import LazyDfa, reversed_nfa
from repro.core.result import MatchResult
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
# Witness tests: one multi-source BFS per fixpoint pop, DFA walks
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


def _dfa_walk(
    rows: List[List[int]],
    labels: List,
    start: int,
    dfa: LazyDfa,
    bound: Bound,
    members: Optional[Set[int]],
) -> Set[int]:
    """Slots at the end of a regex path of ``1..bound`` hops from ``start``.

    Int mirror of :func:`repro.core.regex.regex_successors` along
    ``fwd_rows`` with an edge's machine, and of
    :func:`~repro.core.regex.regex_predecessors` along ``rev_rows`` with
    its reversed machine: the same product-graph walk, with DFA state
    ids standing in for the reference's frozensets of NFA states (the
    interning bijection makes the visited sets equivalent) and the same
    depth-aware pruning.  A slot qualifies when it is entered from an
    accepting state (its own label is not consumed); ``members``
    confines the walk to a ball.
    """
    results: Set[int] = set()
    seen: Dict[int, Dict[int, int]] = {start: {dfa.start: 0}}
    stack = [(start, dfa.start, 0)]
    while stack:
        node, state, depth = stack.pop()
        if bound is not None and depth >= bound:
            continue
        accepting = dfa.accepting(state)
        next_depth = depth + 1
        for nxt_node in rows[node]:
            if members is not None and nxt_node not in members:
                continue
            if accepting:
                results.add(nxt_node)
            nxt = dfa.step(state, labels[nxt_node])
            if nxt < 0:
                continue
            visited = seen.setdefault(nxt_node, {})
            prev = visited.get(nxt)
            if prev is not None and prev <= next_depth:
                continue
            visited[nxt] = next_depth
            stack.append((nxt_node, nxt, next_depth))
    return results


class _Walks(dict):
    """One check's memoized DFA walks: ``walks[v]`` runs
    :func:`_dfa_walk` from ``v`` on its first read.  A ball's memo
    (:meth:`in_ball`) walks only from the nodes in ``deep``, confined
    to the ball's ``members``; every other node reads the global memo
    ``glob`` (see :func:`_ball_views`)."""

    __slots__ = ("rows", "labels", "dfa", "bound", "members", "deep", "glob")

    def __init__(
        self,
        rows: List[List[int]],
        labels: List,
        dfa: LazyDfa,
        bound: Bound,
        members: Optional[Set[int]] = None,
        deep: Optional[Set[int]] = None,
        glob: Optional["_Walks"] = None,
    ) -> None:
        super().__init__()
        self.rows = rows
        self.labels = labels
        self.dfa = dfa
        self.bound = bound
        self.members = members
        self.deep = deep
        self.glob = glob

    def in_ball(self, members: Set[int], deep: Set[int]) -> "_Walks":
        """This global memo's view of one ball."""
        return _Walks(
            self.rows, self.labels, self.dfa, self.bound, members, deep, self
        )

    def __missing__(self, v: int) -> Set[int]:
        if self.members is None or v in self.deep:
            hit = _dfa_walk(
                self.rows, self.labels, v, self.dfa, self.bound, self.members
            )
        else:
            hit = self.glob[v]
        self[v] = hit
        return hit


# ----------------------------------------------------------------------
# The check program and its fixpoint
# ----------------------------------------------------------------------
#: Witness test kinds: a CSR row test, a :func:`_within` BFS, a DFA walk.
_ROW, _WITHIN, _WALK = 0, 1, 2

#: One check's witness test ``(kind, dfa)``; ``dfa`` is the machine a
#: walk runs (None where the check never walks).  The hop bound is the
#: check's reach, ``_CompiledPattern.reach``.
Test = Tuple[int, Optional[LazyDfa]]

#: A compiled path pattern: its witness checks and one test per check.
Program = Tuple[_CompiledPattern, List[Test]]


def _bounded_program(bounded_pattern) -> Program:
    """Child checks; bound 1 is a row test, any other a :func:`_within`."""
    cp = _CompiledPattern(
        bounded_pattern.pattern, False, bounded_pattern.bounds
    )
    return cp, [(_ROW if bound == 1 else _WITHIN, None) for bound in cp.reach]


def _regular_program(rpattern) -> Program:
    """Child and parent checks of every edge, tested by its regex.

    The empty regex is a row test whatever the hop bound (the only path
    with no intermediates is one hop), so its reach is 1; ``.*`` reads
    a :func:`_within` BFS; every other regex walks a :class:`LazyDfa`,
    the reversed machine for a parent check.  Inside a ball, ``.*``
    walks too (see :func:`_ball_views`).
    """
    sources = {edge: text.strip() for edge, text in rpattern.sources.items()}
    cp = _CompiledPattern(rpattern.pattern, True, {
        edge: 1 if source == "" else rpattern.bounds[edge]
        for edge, source in sources.items()
    })
    nodes = cp.nodes
    tests: List[Test] = []
    for x, y, forward in cp.checks:
        edge = (nodes[x], nodes[y]) if forward else (nodes[y], nodes[x])
        source = sources[edge]
        if source == "":
            tests.append((_ROW, None))
            continue
        nfa = rpattern.nfas[edge]
        tests.append((
            _WITHIN if source == ".*" else _WALK,
            LazyDfa(nfa if forward else reversed_nfa(nfa)),
        ))
    return cp, tests


def _path_fixpoint(
    prog: Program, gi: GraphIndex, sim: List[Set[int]]
) -> Optional[List[Optional[_Walks]]]:
    """Refine the seeds ``sim`` in place to the greatest fixpoint.

    ``sim[u]`` holds pattern node ``u``'s candidates as slots.  Each pop
    of ``y`` runs the witness test of every check ``(x, y, forward)`` in
    ``watch[y]`` on ``sim(x)`` and requeues ``x`` when it lost
    candidates; the maximum relation is unique, so the order of pops
    does not change it.

    Returns the walk memo, one :class:`_Walks` per check that has a
    machine (None for a row test), or None when some ``sim(x)`` empties
    (the caller treats the whole relation as collapsed, like the
    reference).  The memo holds every walk this fixpoint ran; the ball
    step of strong matching reads it and adds the walks it lacks.
    """
    cp, tests = prog
    checks = cp.checks
    watch = cp.watch
    rows, back = _row_views(cp, gi)
    walks = [
        None if dfa is None else _Walks(rows[c], gi.labels, dfa, cp.reach[c])
        for c, (_, dfa) in enumerate(tests)
    ]
    witnesses = [
        walks[c] if kind == _WALK else rows[c]
        for c, (kind, _) in enumerate(tests)
    ]
    queue = deque(range(cp.size))
    queued = [True] * cp.size
    while queue:
        y = queue.popleft()
        queued[y] = False
        sim_y = sim[y]
        within: Dict[Tuple[bool, Bound], Set[int]] = {}
        for c in watch[y]:
            x, _, forward = checks[c]
            sim_x = sim[x]
            if tests[c][0] == _WITHIN:
                # Paths into sim(y) for a child check, out of it for a
                # parent check: the BFS runs against the check's rows.
                bound = cp.reach[c]
                reached = within.get((forward, bound))
                if reached is None:
                    reached = within[forward, bound] = _within(
                        back[c], sim_y, bound
                    )
                stale = sim_x - reached
            else:
                out = witnesses[c]
                stale = [v for v in sim_x if sim_y.isdisjoint(out[v])]
            if stale:
                if len(stale) == len(sim_x):
                    return None
                sim_x.difference_update(stale)
                if not queued[x]:
                    queue.append(x)
                    queued[x] = True
    return walks


def _global_relation(
    prog: Program, gi: GraphIndex
) -> Tuple[List[Set[int]], Optional[List[Optional[_Walks]]]]:
    """The maximum relation over the whole graph, refined from the label
    seeds (lines 1–2 of Fig. 3), and its walk memo; every set empty and
    no memo on collapse."""
    sim = _seed_by_label_full(prog[0], gi)
    walks = _path_fixpoint(prog, gi, sim) if all(sim) else None
    if walks is None:
        return [set() for _ in sim], None
    return sim, walks


def _ball_views(
    prog: Program,
    gi: GraphIndex,
    walks: List[Optional[_Walks]],
    radius: int,
) -> Callable[[List[List[int]]], Tuple[Rows, Rows]]:
    """The ``views`` of :func:`~repro.core.kernel._refine_ball` for a
    path program: per ball, each check's ``(rows, back)``.

    A row test reads the CSR rows.  A path check of hop reach ``b``
    reads, from a candidate at depth ``d ≤ r − b + 1``, the global walk
    in ``walks``: its paths pass through nodes at depth ``≤ d + b − 1 ≤
    r``, all in the ball, so it equals the ball's walk on every node of
    the ball, and every reader intersects it with candidate sets that
    lie in the ball.  Deeper candidates, and every candidate of an
    unbounded check, walk inside the ball.  ``back[c]`` is the partner
    check's view, ``c ^ 1``: its reversed walk from ``w`` reaches ``v``
    exactly when the walk from ``v`` reaches ``w``.
    """
    cp = prog[0]
    base, _ = _row_views(cp, gi)

    def views(layers: List[List[int]]) -> Tuple[Rows, Rows]:
        members = set().union(*layers)
        deep = {
            b: members if b is None else _deeper(layers, radius - b + 1)
            for b in set(cp.reach)
        }
        rows = list(base)
        for c, glob in enumerate(walks):
            if glob is not None:
                walk_from = deep[cp.reach[c]]
                if walk_from:
                    glob = glob.in_ball(members, walk_from)
                rows[c] = glob
        return rows, [rows[c ^ 1] for c in range(len(rows))]

    return views


def _to_relation(
    cp: _CompiledPattern, gi: GraphIndex, sim: List[Set[int]]
) -> MatchRelation:
    nodes = gi.nodes
    return MatchRelation(
        {cp.nodes[u]: {nodes[v] for v in sim[u]} for u in range(cp.size)}
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def bounded_simulation_kernel(bounded_pattern, data: DiGraph) -> MatchRelation:
    """CSR bounded simulation, output-identical to the reference.

    The unique maximum bounded-simulation relation of
    :func:`repro.core.bounded.bounded_simulation`, refined by
    :func:`_path_fixpoint` over child checks: bound-1 edges are CSR row
    tests, and every other bound (unbounded included) reads one
    :func:`_within` BFS per pop and bound from the popped node's
    candidates.
    """
    gi = get_index(data)
    prog = _bounded_program(bounded_pattern)
    with gi.reading():
        return _to_relation(prog[0], gi, _global_relation(prog, gi)[0])


def regular_dual_simulation_kernel(rpattern, data: DiGraph) -> MatchRelation:
    """CSR regular dual simulation (reference-identical)."""
    gi = get_index(data)
    prog = _regular_program(rpattern)
    with gi.reading():
        return _to_relation(prog[0], gi, _global_relation(prog, gi)[0])


def regular_strong_match_kernel(
    rpattern, data: DiGraph, radius: Optional[int] = None
) -> MatchResult:
    """CSR regular strong matching (reference-identical).

    Global regular dual simulation, then Match+'s ball step
    (:func:`~repro.core.kernel._refine_ball`) around each matched node,
    with the checks' witnesses read through :func:`_ball_views`: the
    ball's relation is refined from the global relation ∩ ball by
    deletion only, seeded at the candidates whose witnesses may leave
    the ball, and its match graph draws one edge per witnessed path.

    Starting from the global relation, not from the label groups ∩
    ball, is sound by Match+'s argument: every witness path of a ball's
    maximum relation lies inside the ball, so that relation is a
    regular dual simulation of G and lies inside the global maximum.
    Both seeds therefore refine to the same relation.
    """
    pattern = rpattern.pattern
    if radius is None:
        radius = rpattern.default_radius()
    result = MatchResult(pattern)
    gi = get_index(data)
    prog = _regular_program(rpattern)
    with gi.reading():
        global_sim, walks = _global_relation(prog, gi)
        if walks is None:
            return result
        views = _ball_views(prog, gi, walks, radius)
        nodes = gi.nodes
        seen: Set[Tuple[FrozenSet[int], FrozenSet[Tuple[int, int]]]] = set()
        for center in sorted(
            set().union(*global_sim), key=lambda i: repr(nodes[i])
        ):
            subgraph = _refine_ball(
                prog[0], gi, center, radius, global_sim, seen, views
            )
            if subgraph is not None:
                result.add(subgraph)
    return result
