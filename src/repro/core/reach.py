"""Reachability/distance index over the CSR substrate — 2-hop labeling.

The bounded and regular matchers (:mod:`repro.core.bounded`,
:mod:`repro.core.regular`) spend almost all of their time answering two
kinds of question about the *data* graph:

* ``dist(v, T) <= k`` — is some member of a target set within ``k``
  directed hops of ``v``? (the bounded-edge witness test), and
* regex-constrained successor sets (the ``[18]``-style path semantics).

The reference implementations answer both with a fresh BFS per
``(node, edge)`` pair.  This module compiles the answers into an index:

``ReachIndex``
    A pruned landmark-ordered 2-hop labeling (Akiba-style pruned
    landmark labeling adapted to digraphs) over the CSR forward/reverse
    rows of a :class:`~repro.core.kernel.GraphIndex`.  Every live slot
    ``v`` carries two small hub dictionaries, ``out_labels[v]`` (hub ->
    ``dist(v, hub)``) and ``in_labels[v]`` (hub -> ``dist(hub, v)``);
    the cover property of pruned labeling makes

        ``dist(u, w) = min over common hubs h of out[u][h] + in[w][h]``

    *exact*.  Hubs are processed in descending total-degree order, which
    keeps the labels near-minimal on the scale-free synthetic graphs.

    A DFS spanning forest over the forward rows is kept alongside the
    labels: each live slot has a pre/post interval, so "some target is
    a forest descendant of ``u``" (a *sufficient* reachability
    certificate) is one bisect — the fast path of unbounded
    :class:`TargetProbe` witnesses, consulted before any hub
    intersection.

``TargetProbe`` / ``SourceProbe``
    One-pass set probes built per fixpoint round: they collapse a whole
    target (source) set into a single hub->min-distance map so the
    witness test for every candidate ``v`` is one scan of ``v``'s
    adjacency row plus one scan of each neighbor's label dictionary —
    no BFS, no per-pair set materialization.  The one-hop shift through
    the adjacency row makes the "path of length >= 1" semantics (cycles
    back into the target set included) fall out without special cases.

Lifecycle: the index is compiled lazily on first use and cached on the
owning ``GraphIndex`` (the ``_np_view`` pattern), then maintained off
the ``GraphDelta`` stream — edge insertions are patched in place by
resuming the pruned label BFSs through the new edge (sound: entries are
always true path lengths; the resumed sweeps restore the cover
property), while any deletion drops the index for a versioned lazy
rebuild on the next probe (distances can only grow under deletion, and
stale-small labels would over-approximate).  ``IndexStats`` counts
builds, in-place patches, drops and probes.
"""

from __future__ import annotations

from bisect import bisect_left
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
#: index-backed kernel; explicit ``engine="numpy"`` is a caller error.
PATH_ENGINES = ("auto", "python", "kernel")


def resolve_path_engine(engine: str, data: Optional[DiGraph] = None) -> str:
    """Resolve the engine seam for bounded/regular path matching.

    Same contract as :func:`repro.core.kernel.resolve_engine` restricted
    to the engines that exist for path workloads: ``"python"``, and the
    index-backed ``"kernel"``, which ``"auto"`` picks on every graph
    (there is no numpy tier — probe batching is future work, see
    ROADMAP).  ``data`` keeps the call shape of ``resolve_engine``; the
    answer does not depend on it.
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
    """Pruned 2-hop distance labels + spanning-forest intervals.

    Built from (and indexed by) the integer slots of a
    :class:`~repro.core.kernel.GraphIndex`; all public methods take slot
    ids.  Construction, patching and probing must happen under the
    owner's read guard (the kernel entry points arrange this).
    """

    __slots__ = (
        "gi",
        "rank",
        "out_labels",
        "in_labels",
        "tree_pre",
        "tree_post",
        "_tree_counter",
        "_next_rank",
    )

    def __init__(self, gi: GraphIndex) -> None:
        self.gi = gi
        with _obs_span("reach.build") as _sp:
            self._build()
            if _sp.enabled:
                _sp.set(nodes=gi.num_live, edges=gi.num_edges)
        gi.stats.reach_builds += 1

    # ------------------------------------------------------------------
    # construction
    def _build(self) -> None:
        gi = self.gi
        fwd, rev, labels = gi.fwd_rows, gi.rev_rows, gi.labels
        n = len(labels)
        live = [v for v in range(n) if labels[v] is not _DEAD]
        # Landmark order: descending total degree, slot id as tie-break.
        order = sorted(live, key=lambda v: (-(len(fwd[v]) + len(rev[v])), v))
        rank = [n] * n
        for r, v in enumerate(order):
            rank[v] = r
        self.rank = rank
        self._next_rank = len(order)
        # Every live node is its own hub at distance 0 (makes queries
        # touching a node well-defined and strengthens pruning).
        self.out_labels = [
            {v: 0} if labels[v] is not _DEAD else {} for v in range(n)
        ]
        self.in_labels = [
            {v: 0} if labels[v] is not _DEAD else {} for v in range(n)
        ]
        self._build_forest(live, fwd, labels)
        for h in order:
            self._root_bfs(h, forward=True)
            self._root_bfs(h, forward=False)

    def _build_forest(self, live: List[int], fwd, labels) -> None:
        """DFS spanning forest over the forward rows (roots in id order)."""
        n = len(labels)
        pre = [-1] * n
        post = [-1] * n
        counter = 0
        for root in live:
            if pre[root] >= 0:
                continue
            pre[root] = counter
            counter += 1
            stack: List[Tuple[int, object]] = [(root, iter(fwd[root]))]
            while stack:
                v, children = stack[-1]
                advanced = False
                for w in children:
                    if pre[w] < 0 and labels[w] is not _DEAD:
                        pre[w] = counter
                        counter += 1
                        stack.append((w, iter(fwd[w])))
                        advanced = True
                        break
                if not advanced:
                    post[v] = counter
                    stack.pop()
        self.tree_pre = pre
        self.tree_post = post
        self._tree_counter = counter

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

    # ------------------------------------------------------------------
    # maintenance (driven by GraphIndex._apply_delta)
    def add_slot(self) -> None:
        """Mirror a freshly appended live slot (ADD_NODE)."""
        v = len(self.out_labels)
        self.out_labels.append({v: 0})
        self.in_labels.append({v: 0})
        self.rank.append(self._next_rank)
        self._next_rank += 1
        pre = self._tree_counter
        self.tree_pre.append(pre)
        self.tree_post.append(pre + 1)
        self._tree_counter = pre + 1

    def apply_add_edge(self, a: int, b: int) -> None:
        """Patch the labels in place for a new edge ``a -> b``.

        Resumes the pruned BFS of every hub that reaches ``a`` through
        the new edge (and symmetrically every hub reachable from ``b``,
        backwards through ``a``).  Entries only ever shrink toward the
        true distance, and the exactness argument of pruned labeling
        carries over: for any pair whose distance drops, the certificate
        hub of its old prefix is resumed with an exact seed.  The forest
        is untouched — tree edges persist, the new edge is a non-tree
        edge, so the interval fast path stays sound.
        """
        rank = self.rank
        for h, d in sorted(
            self.in_labels[a].items(), key=lambda kv: rank[kv[0]]
        ):
            self._resume(h, b, d + 1, forward=True)
        for h, d in sorted(
            self.out_labels[b].items(), key=lambda kv: rank[kv[0]]
        ):
            self._resume(h, a, d + 1, forward=False)
        self.gi.stats.reach_patches += 1

    def _resume(self, h: int, start: int, d0: int, forward: bool) -> None:
        out_l, in_l = self.out_labels, self.in_labels
        if forward:
            rows, hub_side, assign = self.gi.fwd_rows, out_l[h], in_l
        else:
            rows, hub_side, assign = self.gi.rev_rows, in_l[h], out_l
        queue = deque(((start, d0),))
        while queue:
            w, nd = queue.popleft()
            cur = assign[w].get(h)
            if cur is not None and cur <= nd:
                continue
            if forward:
                covered = _label_dist(hub_side, in_l[w]) <= nd
            else:
                covered = _label_dist(out_l[w], hub_side) <= nd
            if covered:
                continue
            assign[w][h] = nd
            nd += 1
            for x in rows[w]:
                queue.append((x, nd))
        return None

    # ------------------------------------------------------------------
    # queries (slot ids)
    def dist(self, u: int, w: int) -> Optional[int]:
        """Exact directed distance ``u -> w`` in hops, or None."""
        self.gi.stats.reach_probes += 1
        if u == w:
            return 0
        d = _label_dist(self.out_labels[u], self.in_labels[w])
        return None if d == _INF else int(d)


class TargetProbe:
    """``dist(v, T) <= k`` witness tests against a fixed target set.

    Collapses ``T`` into one hub -> min-inbound-distance map (and a
    sorted list of forest pre-numbers for the unbounded interval fast
    path); :meth:`witness_from` then answers "is there a directed path
    of length 1..bound from ``v`` into ``T``" by shifting one hop
    through ``v``'s forward row — which also makes cycles back into the
    target set come out right with no self-distance special case.
    """

    __slots__ = ("ri", "targets", "hub_dist", "target_pres")

    def __init__(self, ri: ReachIndex, targets: Set[int]) -> None:
        self.ri = ri
        self.targets = targets
        hub: Dict[int, int] = {}
        in_labels = ri.in_labels
        for t in targets:
            for h, d in in_labels[t].items():
                cur = hub.get(h)
                if cur is None or d < cur:
                    hub[h] = d
        self.hub_dist = hub
        tree_pre = ri.tree_pre
        self.target_pres = sorted(tree_pre[t] for t in targets)

    def witness_from(self, v: int, bound: Bound) -> bool:
        ri = self.ri
        ri.gi.stats.reach_probes += 1
        targets = self.targets
        residual = None if bound is None else bound - 1
        hub = self.hub_dist
        out_labels = ri.out_labels
        pres = self.target_pres
        tree_pre, tree_post = ri.tree_pre, ri.tree_post
        for s in ri.gi.fwd_rows[v]:
            if s in targets:
                return True
            if residual == 0:
                continue
            if residual is None:
                pre_s = tree_pre[s]
                if pre_s >= 0:
                    lo = bisect_left(pres, pre_s)
                    if lo < len(pres) and pres[lo] < tree_post[s]:
                        return True  # some target in s's forest subtree
                for h in out_labels[s]:
                    if h in hub:
                        return True
            else:
                for h, d in out_labels[s].items():
                    r = hub.get(h)
                    if r is not None and d + r <= residual:
                        return True
        return False


class SourceProbe:
    """``dist(S, v) <= k`` witness tests against a fixed source set.

    The mirror image of :class:`TargetProbe` for the child direction of
    dual fixpoints: "is there a directed path of length 1..bound from
    some member of ``S`` into ``v``", answered by shifting one hop back
    through ``v``'s reverse row.  (No interval fast path here — "is this
    point covered by any source interval" has no single-bisect answer.)
    """

    __slots__ = ("ri", "sources", "hub_dist")

    def __init__(self, ri: ReachIndex, sources: Set[int]) -> None:
        self.ri = ri
        self.sources = sources
        hub: Dict[int, int] = {}
        out_labels = ri.out_labels
        for s in sources:
            for h, d in out_labels[s].items():
                cur = hub.get(h)
                if cur is None or d < cur:
                    hub[h] = d
        self.hub_dist = hub

    def witness_into(self, v: int, bound: Bound) -> bool:
        ri = self.ri
        ri.gi.stats.reach_probes += 1
        sources = self.sources
        residual = None if bound is None else bound - 1
        hub = self.hub_dist
        in_labels = ri.in_labels
        for p in ri.gi.rev_rows[v]:
            if p in sources:
                return True
            if residual == 0:
                continue
            if residual is None:
                for h in in_labels[p]:
                    if h in hub:
                        return True
            else:
                for h, d in in_labels[p].items():
                    r = hub.get(h)
                    if r is not None and r + d <= residual:
                        return True
        return False


# ----------------------------------------------------------------------
# lifecycle
def reach_index_for(gi: GraphIndex) -> ReachIndex:
    """The cached ReachIndex of ``gi``, building it on first use.

    Must be called under ``gi.reading()``.  Concurrent first probes may
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
# Kernel engine: bounded simulation
# ----------------------------------------------------------------------
def _to_relation(gi: GraphIndex, sim: Dict[Node, Set[int]]) -> MatchRelation:
    nodes = gi.nodes
    return MatchRelation(
        {u: {nodes[v] for v in vs} for u, vs in sim.items()}
    )


def bounded_simulation_kernel(bounded_pattern, data: DiGraph) -> MatchRelation:
    """Index-backed bounded simulation, output-identical to the reference.

    Same fixpoint shape as :func:`repro.core.bounded.bounded_simulation`
    (whose result — the unique maximum bounded-simulation relation — it
    must and does reproduce), but every bounded-edge witness test is a
    :class:`TargetProbe` label probe instead of a cached BFS, and
    bound-1 edges are plain CSR row tests — so a pattern whose bounds
    are all 1 never builds the labels.
    """
    pattern = bounded_pattern.pattern
    gi = get_index(data)
    with gi.reading():
        ri = (
            reach_index_for(gi)
            if any(bounded_pattern.bound(e) != 1 for e in pattern.edges())
            else None
        )
        groups = gi.label_groups
        fwd = gi.fwd_rows
        sim: Dict[Node, Set[int]] = {
            u: set(groups.get(pattern.label(u), ())) for u in pattern.nodes()
        }
        queue = deque(pattern.nodes())
        queued: Set[Node] = set(queue)
        while queue:
            u_prime = queue.popleft()
            queued.discard(u_prime)
            targets = sim[u_prime]
            probe = None  # one bound-agnostic probe per pop, built lazily
            for u in pattern.predecessors(u_prime):
                bound = bounded_pattern.bound((u, u_prime))
                if bound == 1:
                    stale = [
                        v for v in sim[u] if targets.isdisjoint(fwd[v])
                    ]
                else:
                    if probe is None:
                        probe = TargetProbe(ri, targets)
                    stale = [
                        v
                        for v in sim[u]
                        if not probe.witness_from(v, bound)
                    ]
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
    the wildcard ``.*`` -> distance probes against the ReachIndex (in
    global scope), anything else -> memoized :class:`LazyDfa` product
    walks (a reversed machine serves the child direction).
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
    ri: Optional[ReachIndex],
    members: Optional[Set[int]],
):
    """The regular dual-simulation fixpoint over integer candidate sets.

    ``members=None`` runs globally (wildcard edges answered by ``ri``
    probes); a member set runs ball-restricted (wildcard edges fall back
    to DFA walks — global distances cannot certify in-ball paths).

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
    use_probes = members is None and ri is not None
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
        t_probe = None  # shared per pop: probes are bound-agnostic
        s_probe = None
        # Parents u of w: v in sim(u) needs a regex path into sim(w).
        for u in pattern.predecessors(w):
            edge = (u, w)
            kind = prog.kinds[edge]
            if kind == _DIRECT:
                stale = [
                    v for v in sim[u] if w_candidates.isdisjoint(fwd[v])
                ]
            elif kind == _WILDCARD and use_probes:
                if t_probe is None:
                    t_probe = TargetProbe(ri, w_candidates)
                bound = prog.bounds[edge]
                stale = [
                    v
                    for v in sim[u]
                    if not t_probe.witness_from(v, bound)
                ]
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
            elif kind == _WILDCARD and use_probes:
                if s_probe is None:
                    s_probe = SourceProbe(ri, w_candidates)
                bound = prog.bounds[edge]
                stale = [
                    v
                    for v in sim[u]
                    if not s_probe.witness_into(v, bound)
                ]
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
    """Index-backed regular dual simulation (reference-identical)."""
    gi = get_index(data)
    prog = _RegularProgram(rpattern)
    with gi.reading():
        # Only global ``.*`` edges probe the labels: build them for those.
        wildcard = _WILDCARD in prog.kinds.values()
        ri = reach_index_for(gi) if wildcard else None
        sim, _ = _regular_fixpoint(prog, gi, ri, None)
        return _to_relation(gi, sim)


def regular_strong_match_kernel(
    rpattern, data: DiGraph, radius: Optional[int] = None
) -> MatchResult:
    """Index-backed regular strong matching (reference-identical).

    Global regular dual simulation via probes, then the reference's
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
        wildcard = _WILDCARD in prog.kinds.values()
        ri = reach_index_for(gi) if wildcard else None
        global_sim, _ = _regular_fixpoint(prog, gi, ri, None)
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
            sim, successors = _regular_fixpoint(prog, gi, None, members)
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
