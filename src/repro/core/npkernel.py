"""The ``numpy`` engine's cells: batched ball refinement over flat arrays.

In the engine table (:mod:`repro.core.engines`) the ``numpy`` row is the
kernel row with one cell replaced by this module: ``match_plus``
(:func:`np_match_plus`) refines *every* ball of a scan in one array
program instead of one ball at a time, over the kernel's compiled
:class:`~repro.core.kernel.GraphIndex`:

* the CSR rows are materialized as flat int64 arrays
  (:func:`get_array_view`), built lazily and cached on the index itself
  (``index._np_view``); every row mutation drops the cache, so a stale
  view can never be served;
* label seeding is a label-partition mask intersection, one vectorized
  pass per pattern node;
* a multi-ball BFS over flat ``ball * n + node`` keys grows all balls of
  a chunk at once, and one block-diagonal union CSR holds every ball
  subgraph;
* the HHK witness-counter fixpoint runs once over that union as
  ``np.add.at`` scatter decrements against per-edge count arrays, with
  boolean pending masks as the worklist.

Output identity with the other two engines is by construction: the
maximum dual-simulation relation is the unique greatest fixpoint below
the seeds (Lemma 1), so the round-based simultaneous removal performed
here converges to exactly the relation the kernel's one-at-a-time
worklist computes; pruning and result extraction reuse the kernel's own
primitives and dedup keys.

This module imports cleanly *without* numpy installed (``np`` is then
``None``); :func:`repro.core.kernel.resolve_engine` refuses
``engine="numpy"`` up front in that case, and every entry point here
fails loud as a backstop.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via a subprocess test
    np = None

from repro.core.digraph import DiGraph, Label
from repro.core.kernel import (
    _DEAD,
    GraphIndex,
    Pair,
    _CompiledPattern,
    _extract_perfect_subgraph,
    get_index,
)
from repro.core.pattern import Pattern
from repro.core.result import MatchResult
from repro.exceptions import MatchingError
from repro.obs.trace import span as _obs_span

__all__ = ["np_match_plus", "get_array_view"]


def _require_numpy() -> None:
    if np is None:  # pragma: no cover - resolve_engine blocks earlier
        raise MatchingError(
            "engine='numpy' requires numpy, which is not installed; "
            "use engine='kernel' or engine='python' instead"
        )


# ======================================================================
# Array view of a GraphIndex
# ======================================================================
class _ArrayView:
    """Immutable flat-array snapshot of an index's CSR rows.

    Three classic CSR pairs (forward, reverse, undirected) as int64
    arrays, plus a lazy cache of per-label boolean membership masks.
    The view is valid exactly as long as the owning index's rows are
    unmutated — the index drops its cached view on every mutation.
    """

    __slots__ = (
        "n",
        "fwd_indptr",
        "fwd_indices",
        "rev_indptr",
        "rev_indices",
        "und_indptr",
        "und_indices",
        "label_masks",
    )

    def __init__(self, index: GraphIndex) -> None:
        n = len(index.labels)
        self.n = n
        self.fwd_indptr, self.fwd_indices = _pack_rows(index.fwd_rows, n)
        self.rev_indptr, self.rev_indices = _pack_rows(index.rev_rows, n)
        self.und_indptr, self.und_indices = _pack_rows(index.und_rows, n)
        self.label_masks: Dict[Label, "np.ndarray"] = {}


def _pack_rows(
    rows: List[List[int]], n: int
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Flatten list-of-lists adjacency into a CSR (indptr, indices) pair."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.fromiter(
        (w for row in rows for w in row), dtype=np.int64, count=total
    )
    return indptr, indices


def get_array_view(index: GraphIndex) -> _ArrayView:
    """The cached array view of ``index``, rebuilt after any mutation."""
    _require_numpy()
    view = index._np_view
    if view is None:
        view = _ArrayView(index)
        index._np_view = view
    return view


def _label_mask(
    view: _ArrayView, index: GraphIndex, label: Label
) -> "np.ndarray":
    """Boolean mask of the data nodes carrying ``label`` (cached)."""
    mask = view.label_masks.get(label)
    if mask is None:
        mask = np.zeros(view.n, dtype=bool)
        ids = list(index.label_groups.get(label, ()))
        if ids:
            mask[np.asarray(ids, dtype=np.int64)] = True
        view.label_masks[label] = mask
    return mask


# ======================================================================
# Gather primitives
# ======================================================================
def _gather_rows(
    indptr: "np.ndarray", indices: "np.ndarray", ids: "np.ndarray"
) -> "np.ndarray":
    """Concatenate the CSR rows of ``ids`` — one vectorized gather.

    Equivalent to ``np.concatenate([indices[indptr[i]:indptr[i+1]] for i
    in ids])`` without the per-row Python loop: positions are produced by
    a repeat-plus-arange offset trick over the row lengths.
    """
    starts = indptr[ids]
    lens = indptr[ids + 1] - starts
    total = int(lens.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ends_cum = np.cumsum(lens)
    pos = np.repeat(starts + lens - ends_cum, lens) + np.arange(
        total, dtype=np.int64
    )
    return indices[pos]


def _masked_row_sums(
    indptr: "np.ndarray",
    indices: "np.ndarray",
    ids: "np.ndarray",
    mask: "np.ndarray",
) -> "np.ndarray":
    """Per-id count of row neighbors selected by ``mask``.

    The vectorized form of ``[sum(mask[w] for w in row(i)) for i in
    ids]``: gather all rows at once, prefix-sum the mask hits, and
    difference the prefix at each row boundary.
    """
    starts = indptr[ids]
    lens = indptr[ids + 1] - starts
    total = int(lens.sum())
    if not total:
        return np.zeros(len(ids), dtype=np.int64)
    ends_cum = np.cumsum(lens)
    pos = np.repeat(starts + lens - ends_cum, lens) + np.arange(
        total, dtype=np.int64
    )
    flags = mask[indices[pos]]
    prefix = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(flags, dtype=np.int64))
    )
    return prefix[ends_cum] - prefix[ends_cum - lens]


# ======================================================================
# Vectorized fixpoints
# ======================================================================
def _np_dual_fixpoint(
    view: _ArrayView, cp: _CompiledPattern, cand: "np.ndarray"
) -> bool:
    """Dual-simulation greatest fixpoint by simultaneous array rounds.

    ``cand`` is the ``(pattern size, n)`` boolean candidate matrix,
    refined in place.  Witness counts per pattern edge are initialized
    with one masked row-sum pass, then maintained by ``np.add.at``
    scatter decrements as candidates drop; a decrement is applied at
    *every* row neighbor (candidate or not), which leaves garbage counts
    only at non-candidates — harmless, because zero-count detection
    always re-filters through the current candidate mask.  Each round
    removes all currently-pending candidates of one pattern node at
    once; simultaneous removal deletes only invalid pairs, so the
    greatest fixpoint (Lemma 1) — and hence the output — is identical to
    the kernel's one-at-a-time cascade.

    Returns ``False`` on collapse (some candidate row emptied).  Note
    that the batched multi-ball caller runs this over a *disjoint union*
    of ball blocks, where a row going empty means every ball died on
    that pattern node — so the early exit stays correct there too.
    """
    edges = cp.edges
    if not edges:
        return True
    p = cp.size
    num_edges = len(edges)
    in_edges = cp.in_edges
    out_edges = cp.out_edges
    n = view.n
    fwd_indptr, fwd_indices = view.fwd_indptr, view.fwd_indices
    rev_indptr, rev_indices = view.rev_indptr, view.rev_indices

    cnt_down: List["np.ndarray"] = [None] * num_edges  # type: ignore
    cnt_up: List["np.ndarray"] = [None] * num_edges  # type: ignore
    pending = np.zeros((p, n), dtype=bool)

    for e in range(num_edges):
        a, b = edges[e]
        down = np.zeros(n, dtype=np.int64)
        ids = np.nonzero(cand[a])[0]
        if ids.size:
            vals = _masked_row_sums(fwd_indptr, fwd_indices, ids, cand[b])
            down[ids] = vals
            pending[a][ids[vals == 0]] = True
        cnt_down[e] = down
        up = np.zeros(n, dtype=np.int64)
        ids = np.nonzero(cand[b])[0]
        if ids.size:
            vals = _masked_row_sums(rev_indptr, rev_indices, ids, cand[a])
            up[ids] = vals
            pending[b][ids[vals == 0]] = True
        cnt_up[e] = up

    progressed = True
    while progressed:
        progressed = False
        for u in range(p):
            rem = np.nonzero(pending[u] & cand[u])[0]
            pending[u][:] = False
            if not rem.size:
                continue
            progressed = True
            cand[u][rem] = False
            if not cand[u].any():
                return False
            preds = _gather_rows(rev_indptr, rev_indices, rem)
            succs = _gather_rows(fwd_indptr, fwd_indices, rem)
            # Pattern edges (a, u): predecessors lose a child witness.
            for e in in_edges[u]:
                a = edges[e][0]
                down = cnt_down[e]
                if preds.size:
                    np.add.at(down, preds, -1)
                    touched = np.unique(preds)
                    newly = touched[(down[touched] == 0) & cand[a][touched]]
                    pending[a][newly] = True
            # Pattern edges (u, b): successors lose a parent witness.
            for e in out_edges[u]:
                b = edges[e][1]
                up = cnt_up[e]
                if succs.size:
                    np.add.at(up, succs, -1)
                    touched = np.unique(succs)
                    newly = touched[(up[touched] == 0) & cand[b][touched]]
                    pending[b][newly] = True
    return True


# ======================================================================
# Seeding
# ======================================================================
def _seed_masks(
    view: _ArrayView, index: GraphIndex, cp: _CompiledPattern
) -> Optional["np.ndarray"]:
    """Label-compatible candidate matrix; ``None`` when any row is empty.

    The label-partition masks perform the seed-stage mass extinction in
    one vectorized intersection per pattern node.
    """
    cand = np.zeros((cp.size, view.n), dtype=bool)
    for u in range(cp.size):
        mask = _label_mask(view, index, cp.labels[u])
        if not mask.any():
            return None
        cand[u] = mask
    return cand


# ======================================================================
# Batched ball refinement
# ======================================================================
_MAX_PAIR_KEYS = 8_000_000


class _UnionView:
    """CSR adjacency of the disjoint union of many ball subgraphs.

    Block-diagonal by construction — no edge crosses two balls — so one
    fixpoint run over this view refines every ball simultaneously and
    independently, and a globally-empty candidate row means the row is
    empty in *every* block.
    """

    __slots__ = (
        "n",
        "fwd_indptr",
        "fwd_indices",
        "rev_indptr",
        "rev_indices",
        "und_indptr",
        "und_indices",
    )


def _union_block_csr(
    indptr: "np.ndarray",
    indices: "np.ndarray",
    member_keys: "np.ndarray",
    member_node: "np.ndarray",
    visited: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Restrict a global CSR to every ball's members, block-diagonally.

    ``member_keys`` are sorted flat ``ball * n + node`` keys; row ``j``
    of the result is the global row of ``member_node[j]`` filtered to
    targets inside the *same* ball and remapped to member positions.
    Also returns the per-edge source positions (for transposing).
    """
    m = member_keys.size
    lens = indptr[member_node + 1] - indptr[member_node]
    tgts = _gather_rows(indptr, indices, member_node)
    keys = np.repeat(member_keys - member_node, lens) + tgts
    keep = visited[keys]
    src = np.repeat(np.arange(m, dtype=np.int64), lens)[keep]
    dst = np.searchsorted(member_keys, keys[keep])
    l_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=m), out=l_indptr[1:])
    return l_indptr, dst, src


def _np_refine_all_balls(
    cp: _CompiledPattern,
    gi: GraphIndex,
    view: _ArrayView,
    centers: "np.ndarray",
    radius: int,
    cand_global: "np.ndarray",
    use_pruning: bool,
    seen: Set[Tuple[FrozenSet[int], FrozenSet[Pair]]],
    result: MatchResult,
) -> None:
    """Project a global candidate relation onto every ball and re-refine.

    ``cand_global`` is either the global dual-filter fixpoint (the
    ``Match+`` fast path) or the plain label seeds (``Match`` and the
    filterless option combinations) — in both cases the per-ball
    greatest fixpoint below the ball-restricted projection is exactly
    what the kernel's per-center loop computes.  The batched mirror of
    that loop:
    instead of touching one ball at a time, whole chunks of balls are
    processed as a single array program —

    * a multi-ball BFS over flat ``ball * n + node`` keys grows every
      ball of the chunk at once (one boolean stamp of ``b * n`` pairs);
    * one block-diagonal *union* CSR holds all ball subgraphs, so a
      single fixpoint run refines every ball simultaneously;
    * per-ball validity (all pattern rows non-empty) is a segmented
      reduction, and extraction runs only for surviving balls.

    Blocks are disjoint, so the union fixpoint computes each ball's
    greatest fixpoint independently — identical, by uniqueness
    (Lemma 1), to the kernel's per-ball cascade; its collapse early-exit
    fires only when some pattern row empties in *every* ball, which
    correctly kills the whole chunk.  Centers are visited in ascending
    id order within and across chunks, so the cross-ball ``seen`` dedup
    observes the kernel's exact sequence.  Chunking bounds the stamp at
    ``_MAX_PAIR_KEYS`` pair keys.
    """
    if not centers.size:
        return
    matched = cand_global.any(axis=0)
    chunk = max(1, _MAX_PAIR_KEYS // max(view.n, 1))
    for lo in range(0, centers.size, chunk):
        _np_refine_chunk(
            cp,
            gi,
            view,
            centers[lo : lo + chunk],
            radius,
            cand_global,
            matched,
            use_pruning,
            seen,
            result,
        )


def _np_refine_chunk(
    cp: _CompiledPattern,
    gi: GraphIndex,
    view: _ArrayView,
    cc: "np.ndarray",
    radius: int,
    cand_global: "np.ndarray",
    matched: "np.ndarray",
    use_pruning: bool,
    seen: Set[Tuple[FrozenSet[int], FrozenSet[Pair]]],
    result: MatchResult,
) -> None:
    n = view.n
    b = cc.size
    center_keys = np.arange(b, dtype=np.int64) * n + cc

    # Multi-ball BFS: one undirected layer step grows every ball of the
    # chunk at once; ``visited`` stamps (ball, node) pair keys.
    visited = np.zeros(b * n, dtype=bool)
    visited[center_keys] = True
    frontier = center_keys
    und_indptr, und_indices = view.und_indptr, view.und_indices
    for _ in range(radius):
        if not frontier.size:
            break
        nodes = frontier % n
        lens = und_indptr[nodes + 1] - und_indptr[nodes]
        tgts = _gather_rows(und_indptr, und_indices, nodes)
        keys = np.repeat(frontier - nodes, lens) + tgts
        keys = keys[~visited[keys]]
        visited[keys] = True
        frontier = np.unique(keys)

    # Only candidate-bearing members matter downstream: a non-candidate
    # can never be a witness, never survives into a sim set, and the
    # kernel's own projection (which iterates the global candidate sets)
    # never sees it either.  Dropping them here shrinks the union CSR to
    # the candidate part of each ball — the dominant cost at density.
    # ``visited`` keeps the *full* ball stamp: ball membership is a
    # distance property of the whole graph, so the BFS above walks
    # non-candidates, and the filter below must not affect it.
    visited.reshape(b, n)[:] &= matched
    member_keys = np.nonzero(visited)[0]  # sorted: grouped by ball
    member_node = member_keys % n
    m = member_keys.size
    if not m:
        return  # no candidate-bearing member in any ball of the chunk
    seg_ptr = np.searchsorted(
        member_keys, np.arange(b + 1, dtype=np.int64) * n
    )
    cand = cand_global[:, member_node]  # advanced indexing copies

    union = _UnionView()
    union.n = m
    union.fwd_indptr, union.fwd_indices, fwd_src = _union_block_csr(
        view.fwd_indptr, view.fwd_indices, member_keys, member_node, visited
    )
    # Reverse union CSR = transpose of the forward one.
    order = np.argsort(union.fwd_indices, kind="stable")
    union.rev_indices = fwd_src[order]
    union.rev_indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(union.fwd_indices, minlength=m),
        out=union.rev_indptr[1:],
    )

    if use_pruning:
        # Batched ``_center_component``: one BFS seeded at every live
        # center, restricted to candidate-bearing members.  Blocks are
        # disjoint, so each ball gets exactly its own center component;
        # a ball whose center has no candidate contributes no seed and
        # its whole block prunes to empty.
        union.und_indptr, union.und_indices, _ = _union_block_csr(
            view.und_indptr, view.und_indices, member_keys, member_node,
            visited,
        )
        # A center that is not itself a candidate was dropped from the
        # members; its ball seeds nothing and prunes to empty, exactly
        # like the kernel's ``_center_component`` returning ``None``.
        center_pos = np.minimum(
            np.searchsorted(member_keys, center_keys), m - 1
        )
        present = member_keys[center_pos] == center_keys
        allowed = cand.any(axis=0)
        comp = np.zeros(m, dtype=bool)
        frontier = center_pos[present]
        frontier = frontier[allowed[frontier]]
        comp[frontier] = True
        while frontier.size:
            neigh = _gather_rows(
                union.und_indptr, union.und_indices, frontier
            )
            neigh = neigh[allowed[neigh] & ~comp[neigh]]
            frontier = np.unique(neigh)
            comp[frontier] = True
        cand &= comp

    if not _np_dual_fixpoint(union, cp, cand):
        return
    # Per-ball validity: every pattern row non-empty within the ball's
    # segment.  Empty segments (a ball with no candidate-bearing member
    # at all) are invalid outright and excluded from the reduceat — the
    # surviving starts are strictly increasing, so each reduction spans
    # exactly its own segment (an empty ball between two non-empty ones
    # has equal boundary offsets and contributes nothing in between; a
    # clamp-style workaround would instead truncate the last non-empty
    # segment whenever trailing balls are empty).
    seg_len = np.diff(seg_ptr)
    valid = seg_len > 0
    starts = seg_ptr[:-1][valid]
    if starts.size:
        ok = np.ones(starts.size, dtype=bool)
        for u in range(cp.size):
            ok &= np.maximum.reduceat(cand[u], starts)
        valid[valid] = ok
    for i in np.nonzero(valid)[0].tolist():
        s, e = int(seg_ptr[i]), int(seg_ptr[i + 1])
        nodes_seg = member_node[s:e]
        sub = cand[:, s:e]
        sim = [
            set(nodes_seg[np.nonzero(sub[u])[0]].tolist())
            for u in range(cp.size)
        ]
        subgraph = _extract_perfect_subgraph(cp, gi, int(cc[i]), sim, seen)
        if subgraph is not None:
            result.add(subgraph)


# ======================================================================
# Public entry point — mirrors the kernel signature exactly
# ======================================================================
def np_match_plus(
    pattern: Pattern,
    data: DiGraph,
    radius: int,
    use_dual_filter: bool = True,
    use_pruning: bool = True,
    restrict_centers_by_label: bool = True,
) -> MatchResult:
    """The matching core of ``Match+`` on the numpy engine.

    Same contract as :func:`repro.core.kernel.kernel_match_plus`:
    output-identical for every option combination, with the centers on
    the dual-filter path visited in ascending id order (the kernel's
    order, so even the incidental center attribution matches it).
    """
    _require_numpy()
    with _obs_span("numpy.match_plus") as _sp:
        gi = get_index(data)
        if _sp.enabled:
            _sp.set(
                engine="numpy",
                pattern=pattern.size,
                radius=radius,
                nodes=gi.num_live,
            )
        cp = _CompiledPattern(pattern)
        result = MatchResult(pattern)

        with gi.reading():
            view = get_array_view(gi)
            if use_dual_filter:
                with _obs_span("numpy.global_dual_filter"):
                    cand_global = _seed_masks(view, gi, cp)
                    filtered = cand_global is not None and _np_dual_fixpoint(
                        view, cp, cand_global
                    )
                if not filtered:
                    _sp.set(**{"balls.scanned": 0, "balls.matched": 0})
                    return result
                matched = cand_global.any(axis=0)
                seen: Set[Tuple[FrozenSet[int], FrozenSet[Pair]]] = set()
                with _obs_span("numpy.ball_scan"):
                    _np_refine_all_balls(
                        cp, gi, view, np.nonzero(matched)[0], radius,
                        cand_global, use_pruning, seen, result,
                    )
                if _sp.enabled:
                    _sp.set(
                        **{
                            "balls.scanned": int(matched.sum()),
                            "balls.matched": len(result),
                        }
                    )
                return result

            # Dual filter off: per-ball dual simulation from label seeds,
            # still batched — the projected relation is just the seeds.
            labels = gi.labels
            if restrict_centers_by_label:
                pattern_labels = set(cp.labels)
                center_ids = (
                    i for i in range(gi.n) if labels[i] in pattern_labels
                )
            else:
                center_ids = (
                    i for i in range(gi.n) if labels[i] is not _DEAD
                )
            centers_arr = np.fromiter(center_ids, dtype=np.int64)
            seen = set()
            cand_global = _seed_masks(view, gi, cp)
            with _obs_span("numpy.ball_scan"):
                if cand_global is not None and centers_arr.size:
                    _np_refine_all_balls(
                        cp, gi, view, centers_arr, radius, cand_global,
                        use_pruning, seen, result,
                    )
            if _sp.enabled:
                _sp.set(
                    **{
                        "balls.scanned": int(centers_arr.size),
                        "balls.matched": len(result),
                    }
                )
            return result
