"""Integer-indexed CSR execution kernel for the matching hot path.

The reference implementations (:mod:`repro.core.strong`,
:mod:`repro.core.matchplus`, :mod:`repro.core.dualsim`) operate directly on
:class:`~repro.core.digraph.DiGraph` — hash-set adjacency, object node ids,
a fresh ``DiGraph`` rebuilt for every ball.  That is the right shape for
reading the paper, but the constant factor dominates at scale: the cubic
bound of Theorem 5 turns into hours of dict churn.

This module compiles a data graph *once* into a compact form and
re-implements the two inner engines on top of it:

``GraphIndex``
    Integer node ids plus growable CSR adjacency rows (forward, reverse
    and undirected views; shared substrate :class:`GrowableCSRIndex`)
    and a label-partitioned node table.  Compilation is O(|V| + |E|),
    cached per data graph — and *maintained* rather than recompiled: the
    index subscribes to the graph's
    :class:`~repro.core.digraph.GraphDelta` stream and :func:`get_index`
    syncs pending events in place (O(1) per node event, O(degree) per
    edge event; a full recompile only once deletions pass a density
    threshold, observable via :attr:`GraphIndex.stats`).  Repeated
    queries against the same graph — even a mutating one — amortize one
    compilation.

Ball extraction
    Bounded undirected layered BFS over the flat arrays with a reusable
    epoch-stamped ``visited`` buffer — no per-ball ``DiGraph``
    reconstruction, no per-ball O(|V|) allocation.  Candidate sets carry
    ball membership implicitly from the seeding step onward, so the
    fixpoint, pruning and extraction all run over global CSR rows.

Dual simulation
    A counter-based deletion-propagation fixpoint in the style of
    Henzinger, Henzinger & Kopke (1995): for every (pattern edge, data
    node) pair the kernel maintains the number of surviving witnesses and
    cascades a removal only when a count reaches zero, replacing the
    repeated ``any(v2 in targets ...)`` scans of the reference fixpoints.
    Counters live in sparse dicts; on the ``dualFilter`` path they are
    computed *lazily* on first touch, so a ball whose projection needs few
    deletions pays only for the border pairs it actually inspects
    (Proposition 5), never for a full re-initialization.

Graph simulation
    The same counter machinery restricted to the *child* direction only:
    plain graph simulation (Milner-style, no duality) maintains one
    witness count per (pattern edge, parent candidate) and cascades
    removals when a candidate's last child witness disappears.  This is
    the counter fixpoint the ROADMAP asked to reuse for
    ``graph_simulation``.

Entry points — all *output-identical* to the reference Python path:

* :func:`kernel_match_plus` — the optimized ``Match+`` core (global dual
  simulation + restricted balls + connectivity pruning + deletion-only
  per-ball refinement); the compiled rows answer plain ``match`` with it
  too (see :mod:`repro.core.strong`);
* :func:`dual_simulation_kernel` — the maximum dual-simulation relation
  over the full data graph;
* :func:`graph_simulation_kernel` — the maximum (child-direction-only)
  graph-simulation relation over the full data graph.

Callers normally do not import this module directly: ``match`` and
``match_plus`` take an ``engine`` argument (``"auto"`` | ``"kernel"`` |
``"numpy"`` | ``"python"``) and route through the engine table of
:mod:`repro.core.engines`, as does the CLI via ``--engine``.  The
``kernel`` row is this module; the ``numpy`` row is this module too,
except that ``match_plus`` refines all balls at once over array views
of the same compiled index (:mod:`repro.core.npkernel`).
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.digraph import (
    ADD_EDGE,
    ADD_NODE,
    REMOVE_EDGE,
    REMOVE_NODE,
    RELABEL,
    DiGraph,
    GraphDelta,
    Label,
    Node,
)
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern
from repro.core.result import MatchResult, PerfectSubgraph
from repro.exceptions import MatchingError
from repro.obs.metrics import get_registry as _obs_registry
from repro.obs.trace import span as _obs_span

try:  # The numpy engine is optional; probe availability once at import.
    import numpy as _numpy_probe  # noqa: F401
    NUMPY_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via a subprocess test
    NUMPY_AVAILABLE = False

ENGINES = ("auto", "kernel", "numpy", "python")

#: ``"auto"`` prefers the vectorized numpy engine at or above this
#: ``|V| + |E|`` (when numpy is installed): the per-call dispatch
#: overhead of array operations amortizes once the CSR rows are a few
#: thousand entries, and below it the per-node kernel loops win.
NUMPY_AUTO_THRESHOLD = 2048

#: A pending removal: (pattern node id, data node id).
Pair = Tuple[int, int]

#: Sentinel stored in ``labels[i]`` for tombstoned (removed) node slots.
#: A fresh object, so it can never collide with a user label (including
#: ``None``, which is a legal label).
_DEAD = object()


def resolve_engine(engine: str, data: Optional[DiGraph] = None) -> str:
    """Validate ``engine`` and collapse ``"auto"`` to a concrete choice.

    The answer names a row of :data:`repro.core.engines.ENGINE_TABLE`.
    ``"auto"`` picks by size alone: the ``numpy`` row when numpy is
    installed and ``data`` has ``|V| + |E| >=``
    :data:`NUMPY_AUTO_THRESHOLD` (it shares the same cached
    :class:`GraphIndex` and differs from the kernel only in its batched
    ``match_plus``), the kernel otherwise — also without ``data``.
    Size does not predict the faster row on every workload.  Even a
    one-shot query on a tiny graph runs on the kernel: there, compiling
    the index cost less than the reference engine's per-ball graphs on
    ``match`` and ``match_plus``, and lost only tenths of a millisecond
    on ``dual``.

    ``"numpy"`` requested explicitly without numpy installed raises
    :class:`~repro.exceptions.MatchingError` — the ``python`` and
    ``kernel`` engines stay fully functional, and ``"auto"`` never
    selects numpy in that case.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "numpy" and not NUMPY_AVAILABLE:
        raise MatchingError(
            "engine='numpy' requires numpy, which is not installed; "
            "the 'kernel' and 'python' engines remain fully functional"
        )
    if engine != "auto":
        return engine
    if (
        NUMPY_AVAILABLE
        and data is not None
        and data.size >= NUMPY_AUTO_THRESHOLD
    ):
        return "numpy"
    return "kernel"


# ======================================================================
# Graph compilation
# ======================================================================
class _VisitState:
    """One thread's epoch-stamped visited buffer for ball BFS.

    ``stamp[v] == epoch`` marks node ``v`` visited in the current epoch;
    bumping the epoch invalidates the whole buffer in O(1).  Each thread
    querying an index gets its *own* state (see
    :meth:`GrowableCSRIndex.visit_state`), which is what makes the kernel
    read path safe under concurrent queries: the CSR rows and label
    groups are read-only during a query, so the visited buffer was the
    only shared mutable state on the path.
    """

    __slots__ = ("stamp", "epoch")

    def __init__(self) -> None:
        self.stamp: List[int] = []
        self.epoch = 0

    def new_epoch(self) -> int:
        """Invalidate this thread's stamp buffer in O(1)."""
        self.epoch += 1
        return self.epoch


class GrowableCSRIndex:
    """Shared growable-CSR substrate for compiled graph indexes.

    Holds the row layout every kernel loop iterates — ``nodes`` /
    ``index_of`` / ``labels`` plus the three adjacency views (forward,
    reverse, and the undirected union used by ball BFS) as per-node
    integer lists — and the epoch-stamped visited buffer.  Rows are
    *growable*: new node slots append in O(1) and edges patch the
    affected rows in O(degree), with ids stable across every extension,
    which is what lets :class:`GraphIndex` stay warm under delta
    maintenance instead of recompiling.  The distributed
    ``SiteGraphIndex`` builds on it too; no site uses that index.

    Visited marking for ball BFS lives in per-thread :class:`_VisitState`
    buffers (:meth:`visit_state`): bumping an epoch invalidates a whole
    buffer in O(1), so per-ball BFS allocates nothing proportional to
    |V|, and concurrent queries on different threads never share a
    buffer — the read path (CSR rows, label groups) is immutable during
    a query, so queries are thread-safe.
    """

    __slots__ = (
        "nodes",
        "index_of",
        "labels",
        "fwd_rows",
        "rev_rows",
        "und_rows",
        "_visit_tls",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.nodes: List[Node] = []
        self.index_of: Dict[Node, int] = {}
        self.labels: List[Label] = []
        self.fwd_rows: List[List[int]] = []
        self.rev_rows: List[List[int]] = []
        self.und_rows: List[List[int]] = []
        self._visit_tls = threading.local()

    def _new_slot(self, node: Node) -> int:
        """Append an empty slot for ``node``; returns its (stable) id."""
        i = len(self.nodes)
        self.index_of[node] = i
        self.nodes.append(node)
        self.labels.append(None)
        self.fwd_rows.append([])
        self.rev_rows.append([])
        self.und_rows.append([])
        return i

    def _csr_add_edge(self, s: int, t: int) -> None:
        """Patch all three views for a new edge ``s -> t`` (both rows).

        The undirected rows hold each neighbor once, so the append is
        guarded by membership — already present exactly when the reverse
        edge existed (or for the second half of a self-loop).
        """
        self.fwd_rows[s].append(t)
        self.rev_rows[t].append(s)
        und_s = self.und_rows[s]
        if t not in und_s:
            und_s.append(t)
        if s != t:
            und_t = self.und_rows[t]
            if s not in und_t:
                und_t.append(s)

    def _csr_remove_edge(self, s: int, t: int) -> None:
        """Patch all three views for a removed edge ``s -> t`` (both rows)."""
        self.fwd_rows[s].remove(t)
        self.rev_rows[t].remove(s)
        # The undirected link survives iff the reverse edge t -> s still
        # exists (never the case after removing a self-loop).
        if s == t or s not in self.fwd_rows[t]:
            self.und_rows[s].remove(t)
            if s != t:
                self.und_rows[t].remove(s)

    def visit_state(self) -> _VisitState:
        """This thread's visited buffer, grown to cover every slot.

        Buffers are thread-local, so concurrent queries never race on
        visited marks; a buffer only ever grows (a recompile that shrinks
        the slot count leaves the tail unused, which is harmless — epochs
        make stale entries invisible).
        """
        state = getattr(self._visit_tls, "state", None)
        if state is None:
            state = _VisitState()
            self._visit_tls.state = state
        shortfall = len(self.nodes) - len(state.stamp)
        if shortfall > 0:
            state.stamp.extend([0] * shortfall)
        return state

    def new_epoch(self) -> int:
        """Invalidate this thread's stamp buffer in O(1)."""
        return self.visit_state().new_epoch()


@dataclass
class IndexStats:
    """Observability counters for one :class:`GraphIndex`.

    Attributes
    ----------
    full_compiles:
        From-scratch compilations, including the initial one.  A warm
        update workload holds this at 1; it grows only when deletions
        pass the density threshold (or maintenance is disabled and a new
        index replaces this one — a new index starts a new counter).
    incremental_syncs:
        ``sync`` calls that applied pending deltas in place.
    deltas_applied:
        Total mutation events applied incrementally.
    label_moves:
        Label-group entries actually moved by relabel maintenance.
        Relabels are coalesced per sync group — a node relabeled k times
        in one :meth:`~repro.core.digraph.DiGraph.batch` costs at most
        one move (zero when it returns to its initial label) — so this
        can be far below the number of ``relabel`` deltas applied.
    reach_builds:
        From-scratch compilations of the :class:`ReachIndex` 2-hop
        labels (see :mod:`repro.core.reach`).  Only
        ``get_reach_index`` / ``reach_index_for`` build them; no path
        matcher does, so a path workload holds this at 0.
    reach_patches:
        Always 0: the labels are no longer patched in place (every
        mutation drops them).  Kept because ``perfbench/layers.py``
        reads each ``reach_*`` field by name.
    reach_drops:
        Times built labels were discarded on a mutation.  Any graph
        mutation drops them; a rebuild is paid only when
        ``get_reach_index`` is called again.
    reach_probes:
        Pairwise distance questions answered from the labels
        (:meth:`ReachIndex.dist`).
    """

    full_compiles: int = 0
    incremental_syncs: int = 0
    deltas_applied: int = 0
    label_moves: int = 0
    reach_builds: int = 0
    reach_patches: int = 0
    reach_drops: int = 0
    reach_probes: int = 0


#: Every live :class:`GraphIndex` in this process, for metric
#: aggregation.  Weak: an index dies with its graph, exactly as the
#: ``_INDEX_CACHE`` entry does.
_ALL_INDEXES: "weakref.WeakSet" = weakref.WeakSet()

#: Maps :class:`IndexStats` fields to the registry's unified namespace.
_STATS_METRIC_NAMES = (
    ("full_compiles", "index.full_compiles"),
    ("incremental_syncs", "index.incremental_syncs"),
    ("deltas_applied", "index.deltas_applied"),
    ("label_moves", "index.label_moves"),
    ("reach_builds", "reach.builds"),
    ("reach_patches", "reach.patches"),
    ("reach_drops", "reach.drops"),
    ("reach_probes", "reach.probes"),
)


def aggregate_index_stats() -> IndexStats:
    """Sum the :class:`IndexStats` of every live index in this process.

    The process-wide view of the hot-path counters: the kernel loops
    keep their plain-int increments (zero observability overhead), and
    this aggregation runs only when someone asks (the metrics
    registry's collector).
    """
    total = IndexStats()
    for index in list(_ALL_INDEXES):
        stats = index.stats
        for field_name, _ in _STATS_METRIC_NAMES:
            setattr(
                total,
                field_name,
                getattr(total, field_name) + getattr(stats, field_name),
            )
    return total


def _sample_index_metrics():
    """Registry collector: absorb ``IndexStats`` into ``index.*``/``reach.*``."""
    total = aggregate_index_stats()
    return [
        (metric_name, {}, getattr(total, field_name))
        for field_name, metric_name in _STATS_METRIC_NAMES
    ]


_obs_registry().register_collector(_sample_index_metrics, _sample_index_metrics)


class GraphIndex(GrowableCSRIndex):
    """A ``DiGraph`` compiled to integer ids + growable CSR rows.

    Compilation is O(|V| + |E|); afterwards the index *maintains itself*:
    it subscribes to the graph's :class:`~repro.core.digraph.GraphDelta`
    stream, buffers events, and :meth:`sync` (called by
    :func:`get_index`) patches the rows in place — O(1) per node event,
    O(degree) per edge event — so ids stay stable and a warm index never
    recompiles under insertions.  Node removals tombstone their slot
    (label → sentinel, rows already emptied by the preceding edge
    deltas); when accumulated deletions pass the density threshold
    (:meth:`_deletions_over_threshold`) the next sync recompiles from
    scratch instead, compacting the tombstones away.

    :attr:`stats` (an :class:`IndexStats`) makes the maintenance
    observable: a pure-insertion workload keeps ``full_compiles`` at 1.

    ``n`` counts *slots* (including tombstones) — it is the bound for
    id-space iteration; :attr:`num_live` is the live ``|V|``.

    Using an index that has *unapplied* deltas (the graph mutated after
    the index was obtained, e.g. mid-query) raises
    :class:`~repro.exceptions.MatchingError` instead of silently serving
    rows from a mix of epochs — re-acquire via :func:`get_index`, which
    syncs first.
    """

    __slots__ = (
        "graph_version",
        "n",
        "label_groups",
        "num_edges",
        "stats",
        "_pending",
        "_overflowed",
        "_removed_weight",
        "_read_guard",
        "_np_view",
        "_reach",
    )

    def __init__(self, graph: DiGraph) -> None:
        super().__init__()
        self.stats = IndexStats()
        self._pending: List[GraphDelta] = []
        self._overflowed = False
        self._read_guard = _ReadGuard()
        # Cached numpy array view of the rows (built lazily by
        # repro.core.npkernel); every mutation drops it, so a stale view
        # can never be served.  None also when numpy is not installed.
        self._np_view = None
        # Lazily built 2-hop distance labels (repro.core.reach); cached
        # like _np_view and dropped by every mutation.
        self._reach = None
        _ALL_INDEXES.add(self)
        self._compile(graph)
        graph.subscribe(self)

    def reading(self):
        """Context manager marking this thread as querying the index.

        While any thread is inside :meth:`reading`, :func:`get_index`
        defers incremental syncs (the writer blocks until the readers
        drain) instead of patching rows under an in-flight query.
        Re-entrant per thread; a thread that tries to *sync* while it is
        itself reading gets a fail-loud :class:`MatchingError` instead
        of a self-deadlock.
        """
        return self._read_guard.reading()

    def _write_access(self):
        """Context manager serializing a sync against in-flight readers."""
        return self._read_guard.writing()

    @property
    def num_live(self) -> int:
        """``|V|`` excluding tombstoned slots (``n`` counts all slots)."""
        return len(self.index_of)

    def _compile(self, graph: DiGraph) -> None:
        """(Re)build every array from scratch; resets deletion debt.

        ``graph_version`` is stamped *last*: the lock-free fast path of
        :func:`get_index` treats a current version with no pending
        deltas as "safe to use without the lock", so the stamp must not
        become visible to other threads until every array is rebuilt.
        """
        with _obs_span("index.compile") as _sp:
            self._compile_impl(graph)
            if _sp.enabled:
                _sp.set(nodes=self.n, edges=self.num_edges)

    def _compile_impl(self, graph: DiGraph) -> None:
        nodes: List[Node] = list(graph.nodes())
        self.nodes = nodes
        n = len(nodes)
        self.n = n
        index_of: Dict[Node, int] = {node: i for i, node in enumerate(nodes)}
        self.index_of = index_of
        labels_map = graph.labels_raw()
        labels: List[Label] = [labels_map[node] for node in nodes]
        self.labels = labels
        label_groups: Dict[Label, Set[int]] = {}
        for i, lab in enumerate(labels):
            label_groups.setdefault(lab, set()).add(i)
        self.label_groups = label_groups

        fwd_rows: List[List[int]] = []
        rev_rows: List[List[int]] = []
        und_rows: List[List[int]] = []
        for node in nodes:
            succ = graph.successors_raw(node)
            pred = graph.predecessors_raw(node)
            fwd = [index_of[target] for target in succ]
            fwd_rows.append(fwd)
            rev_rows.append([index_of[source] for source in pred])
            row = fwd.copy()
            row.extend(
                index_of[source] for source in pred if source not in succ
            )
            und_rows.append(row)
        self.num_edges = graph.num_edges
        self.fwd_rows = fwd_rows
        self.rev_rows = rev_rows
        self.und_rows = und_rows

        self._removed_weight = 0
        self._np_view = None
        self._drop_reach()
        self.stats.full_compiles += 1
        self.graph_version = graph.version

    # ------------------------------------------------------------------
    # Delta maintenance
    # ------------------------------------------------------------------
    def on_graph_deltas(self, deltas: Tuple[GraphDelta, ...]) -> None:
        """Change-log subscriber: buffer events until the next sync.

        The buffer is bounded: once replaying it would cost more than a
        fresh compile (more pending events than the index is large), the
        events are dropped and the index just marks itself for a full
        recompile — a graph mutated heavily between queries then costs
        one compile, not unbounded delta retention.
        """
        if self._overflowed:
            return
        self._pending.extend(deltas)
        if len(self._pending) > max(4096, self.n + self.num_edges):
            self._pending.clear()
            self._overflowed = True

    def _deletions_over_threshold(self, pending_deletions: int) -> bool:
        """The density threshold for falling back to a full recompile.

        Tombstoned slots and removed row entries make the arrays sparser
        than a fresh compile; once the accumulated deletion debt exceeds
        a quarter of the live size (with a floor of 64 so small graphs
        never thrash), rebuilding is cheaper than further patching.
        """
        debt = self._removed_weight + pending_deletions
        return debt > max(64, (self.n + self.num_edges) >> 2)

    def sync(self, graph: DiGraph) -> None:
        """Bring the index up to date with ``graph``'s pending deltas.

        Applies the buffered events in place (insertions never trigger a
        recompile); falls back to :meth:`_compile` when deletions exceed
        the density threshold or the delta stream cannot explain the
        version gap (defensive — cannot happen through ``DiGraph``'s own
        mutators).
        """
        deltas, self._pending = self._pending, []
        if self._overflowed:
            self._overflowed = False
            with _obs_span("index.sync") as _sp:
                _sp.set(outcome="recompile-overflow")
                self._compile(graph)
            return
        if not deltas and self.graph_version == graph.version:
            return
        with _obs_span("index.sync") as _sp:
            if _sp.enabled:
                _sp.set(deltas=len(deltas))
            pending_deletions = sum(
                1 for d in deltas if d.kind in (REMOVE_EDGE, REMOVE_NODE)
            )
            if (
                self.graph_version + len(deltas) != graph.version
                or self._deletions_over_threshold(pending_deletions)
            ):
                _sp.set(outcome="recompile-deletions")
                self._compile(graph)
                return
            _sp.set(outcome="incremental")
            self._apply_delta_group(deltas)
            self.graph_version = graph.version
            self.stats.incremental_syncs += 1
            self.stats.deltas_applied += len(deltas)

    def _apply_delta_group(self, deltas: Iterable[GraphDelta]) -> None:
        """Apply one synced delta group with coalesced label-group moves.

        Edge and node-lifecycle events apply in stream order — CSR row
        patches are inherently per-edge, and order matters (an edge delta
        may reference a node added earlier in the same group).  Relabels
        are *batched* instead: each slot's net first-old -> latest-new
        transition is collected while streaming, and the group ends with
        one label-group pass — ``difference_update`` per vacated label,
        ``update`` per gained label — so a node relabeled k times inside
        one :meth:`~repro.core.digraph.DiGraph.batch` moves at most one
        label-group entry (zero when the labels round-trip).
        """
        pending_relabel: Dict[int, Tuple[Label, Label]] = {}
        for delta in deltas:
            kind = delta.kind
            if kind == RELABEL:
                i = self.index_of[delta.node]
                first = pending_relabel.get(i)
                old = delta.old_label if first is None else first[0]
                pending_relabel[i] = (old, delta.label)
                continue
            if kind == REMOVE_NODE:
                # The removal delta carries the node's *latest* label; a
                # deferred relabel would leave the group lookup pointing
                # at the stale one, so settle this slot first.
                i = self.index_of[delta.node]
                net = pending_relabel.pop(i, None)
                if net is not None:
                    self._move_label_groups({i: net})
            self._apply_delta(delta)
        if pending_relabel:
            self._move_label_groups(pending_relabel)

    def _move_label_groups(
        self, transitions: Dict[int, Tuple[Label, Label]]
    ) -> None:
        """One label-group pass applying net ``old -> new`` transitions."""
        by_old: Dict[Label, List[int]] = {}
        by_new: Dict[Label, List[int]] = {}
        labels = self.labels
        for i, (old, new) in transitions.items():
            if old == new:
                continue  # round-tripped inside the group: net no-op
            labels[i] = new
            by_old.setdefault(old, []).append(i)
            by_new.setdefault(new, []).append(i)
        moved = 0
        for old, ids in by_old.items():
            group = self.label_groups[old]
            group.difference_update(ids)
            if not group:
                del self.label_groups[old]
            moved += len(ids)
        for new, ids in by_new.items():
            self.label_groups.setdefault(new, set()).update(ids)
        self.stats.label_moves += moved
        if moved:
            self._np_view = None

    def _drop_reach(self) -> None:
        """Discard the reach labels for a lazy rebuild on next request."""
        if self._reach is not None:
            self._reach = None
            self.stats.reach_drops += 1

    def _apply_delta(self, delta: GraphDelta) -> None:
        kind = delta.kind
        if kind != RELABEL:
            # Every row or slot change drops the array view and the
            # reach labels; relabels move no distance, and drop the view
            # in _move_label_groups when a label actually moves.
            self._np_view = None
            self._drop_reach()
        if kind == ADD_EDGE:
            self._csr_add_edge(
                self.index_of[delta.source], self.index_of[delta.target]
            )
            self.num_edges += 1
        elif kind == REMOVE_EDGE:
            self._csr_remove_edge(
                self.index_of[delta.source], self.index_of[delta.target]
            )
            self.num_edges -= 1
            self._removed_weight += 1
        elif kind == ADD_NODE:
            i = self._new_slot(delta.node)
            self.labels[i] = delta.label
            self.label_groups.setdefault(delta.label, set()).add(i)
            self.n += 1
        elif kind == REMOVE_NODE:
            # Incident-edge deltas always precede (same batch), so the
            # slot's rows are already empty; tombstone it.
            i = self.index_of.pop(delta.node)
            group = self.label_groups[delta.label]
            group.discard(i)
            if not group:
                del self.label_groups[delta.label]
            self.labels[i] = _DEAD
            self.nodes[i] = None
            self._removed_weight += 1
        elif kind == RELABEL:
            # Normally coalesced by _apply_delta_group; kept for callers
            # applying single deltas.
            i = self.index_of[delta.node]
            self._move_label_groups({i: (delta.old_label, delta.label)})
        else:  # pragma: no cover - the kinds above are exhaustive
            raise MatchingError(f"unknown graph delta kind {kind!r}")

    def ensure_current(self) -> None:
        """Raise if the graph mutated after this index was obtained.

        Serving rows from a mix of epochs (the pre-mutation compile plus
        whatever the caller sees live) is silently wrong; callers must
        re-acquire the index through :func:`get_index`, which syncs.
        """
        if self._pending or self._overflowed:
            count = "many" if self._overflowed else len(self._pending)
            raise MatchingError(
                f"stale GraphIndex: the data graph was mutated "
                f"({count} unapplied delta(s)) after this index was "
                "obtained; re-acquire it via get_index(graph) instead of "
                "using a held index across mutations"
            )

    def visit_state(self) -> _VisitState:
        """This thread's visited buffer; refuses to serve a stale index."""
        if self._pending or self._overflowed:
            self.ensure_current()
        return super().visit_state()

    def new_epoch(self) -> int:
        """Invalidate this thread's stamp buffer in O(1)."""
        return self.visit_state().new_epoch()

    def __repr__(self) -> str:
        return (
            f"GraphIndex(|V|={self.num_live}, |E|={self.num_edges}, "
            f"labels={len(self.label_groups)})"
        )


_INDEX_CACHE: "weakref.WeakKeyDictionary[DiGraph, GraphIndex]" = (
    weakref.WeakKeyDictionary()
)

#: Per-graph locks serializing compile/sync in :func:`get_index`.
#: Concurrent *queries* against an up-to-date index are lock-free reads;
#: a lock only guards the acquire path so two threads never compile or
#: sync the same graph simultaneously (the thread-safety contract of the
#: service layer).  Locks are per graph — one graph's O(|V|+|E|) compile
#: must not convoy an unrelated graph's cheap sync — with a tiny global
#: guard only around lock creation.
_INDEX_LOCKS: "weakref.WeakKeyDictionary[DiGraph, threading.Lock]" = (
    weakref.WeakKeyDictionary()
)
_INDEX_LOCKS_GUARD = threading.Lock()


def _index_lock(graph: DiGraph) -> threading.Lock:
    lock = _INDEX_LOCKS.get(graph)
    if lock is None:
        with _INDEX_LOCKS_GUARD:
            lock = _INDEX_LOCKS.get(graph)
            if lock is None:
                lock = threading.Lock()
                _INDEX_LOCKS[graph] = lock
    return lock


class _ReadGuard:
    """Reader–writer guard protecting a warm index from mid-query syncs.

    Query entry points register as *readers* for the duration of their
    traversal; :func:`get_index` takes the *writer* side around
    :meth:`GraphIndex.sync`, waiting until in-flight readers drain
    before patching rows (and blocking new readers while it patches).
    Reads are re-entrant per thread; the writer side detects the
    self-deadlock case — a thread mutating the graph and re-syncing
    while it is itself mid-query — and fails loud with
    :class:`MatchingError` instead of hanging.
    """

    __slots__ = ("_cond", "_readers", "_writing", "_tls")

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._tls = threading.local()

    @contextmanager
    def reading(self):
        depth = getattr(self._tls, "depth", 0)
        if depth == 0:
            with self._cond:
                while self._writing:
                    self._cond.wait()
                self._readers += 1
        self._tls.depth = depth + 1
        try:
            yield
        finally:
            self._tls.depth = depth
            if depth == 0:
                with self._cond:
                    self._readers -= 1
                    if not self._readers:
                        self._cond.notify_all()

    @contextmanager
    def writing(self):
        if getattr(self._tls, "depth", 0):
            raise MatchingError(
                "cannot sync a GraphIndex from a thread that is mid-query "
                "on it: the graph was mutated and get_index() re-entered "
                "inside an active traversal; finish the query before "
                "mutating, or re-acquire the index afterwards"
            )
        with self._cond:
            while self._readers or self._writing:
                self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()

#: Whether cached indexes maintain themselves from the delta stream
#: (default) or are replaced wholesale on mutation (the pre-pipeline
#: behavior, kept for benchmarking the difference).
_MAINTENANCE_ENABLED = True


@contextmanager
def index_maintenance(enabled: bool):
    """Toggle incremental index maintenance for the ``with`` block.

    With maintenance off, :func:`get_index` recompiles a fresh index for
    every mutated graph (the recompile-per-update baseline
    :func:`~repro.experiments.performance.time_update_workload` times);
    held stale indexes still raise
    :class:`~repro.exceptions.MatchingError` on use either way.  The
    previous setting is restored on exit.
    """
    global _MAINTENANCE_ENABLED
    previous = _MAINTENANCE_ENABLED
    _MAINTENANCE_ENABLED = bool(enabled)
    try:
        yield
    finally:
        _MAINTENANCE_ENABLED = previous


def get_index(graph: DiGraph) -> GraphIndex:
    """The compiled index of ``graph``, maintained across mutations.

    Cached per graph object (weakly, so indexes die with their graphs).
    A cache hit whose graph has since mutated is *synced* — pending
    deltas applied in place, a full recompile only past the deletion
    threshold — so update workloads keep one warm index instead of
    recompiling per query.  With maintenance disabled
    (:func:`index_maintenance`) a mutated graph gets a brand-new
    index, the pre-pipeline behavior.
    """
    index = _INDEX_CACHE.get(graph)
    if index is not None and (
        index.graph_version == graph.version and not index._pending
    ):
        return index  # fast path: current index, lock-free
    with _index_lock(graph):
        index = _INDEX_CACHE.get(graph)  # re-check under the lock
        if index is not None:
            if index.graph_version == graph.version and not index._pending:
                return index
            if _MAINTENANCE_ENABLED:
                # Writer side of the reader–writer guard: wait for
                # in-flight queries to drain before patching rows.
                with index._write_access():
                    index.sync(graph)
                return index
        index = GraphIndex(graph)
        _INDEX_CACHE[graph] = index
        return index


class _CompiledPattern:
    """Pattern compiled to dense integer ids (patterns are tiny; per-call)."""

    __slots__ = (
        "size",
        "nodes",
        "labels",
        "edges",
        "out_edges",
        "in_edges",
        "by_label",
    )

    def __init__(self, pattern: Pattern) -> None:
        nodes: List[Node] = list(pattern.nodes())
        self.nodes = nodes
        index = {u: i for i, u in enumerate(nodes)}
        self.size = len(nodes)
        self.labels = [pattern.label(u) for u in nodes]
        edges: List[Tuple[int, int]] = [
            (index[a], index[b]) for a, b in pattern.edges()
        ]
        self.edges = edges
        out_edges: List[List[int]] = [[] for _ in nodes]
        in_edges: List[List[int]] = [[] for _ in nodes]
        for e, (a, b) in enumerate(edges):
            out_edges[a].append(e)
            in_edges[b].append(e)
        self.out_edges = out_edges
        self.in_edges = in_edges
        by_label: Dict[Label, List[int]] = {}
        for i, lab in enumerate(self.labels):
            by_label.setdefault(lab, []).append(i)
        self.by_label = by_label


# ======================================================================
# Counter-based dual-simulation fixpoint
# ======================================================================
def _run_fixpoint(
    cp: _CompiledPattern,
    gi: GraphIndex,
    sim: List[Set[int]],
    cnt_down: List[Dict[int, int]],
    cnt_up: List[Dict[int, int]],
    pending: Deque[Pair],
) -> bool:
    """Drain the deletion worklist; the HHK-style cascade.

    ``sim[u]`` holds the surviving candidates of pattern node ``u`` as
    global node ids; ball restriction (when any) is implicit — the seeds
    were intersected with the ball, and every witness must itself be a
    candidate, so ``w in sim[b]`` subsumes the ball-membership test.

    ``cnt_down[e][v]`` / ``cnt_up[e][w]`` are the surviving witness counts
    of pattern edge ``e = (a, b)``; entries are created lazily: the first
    time a removal touches a pair, its count is computed by one adjacency
    scan (already reflecting the removal), after which every later removal
    is a O(1) decrement.  A count hitting zero enqueues the pair — no pair
    is ever re-scanned.

    Returns ``False`` when some ``sim(u)`` empties (the caller must treat
    the whole relation as collapsed, per line 10 of Fig. 3).
    """
    fwd = gi.fwd_rows
    rev = gi.rev_rows
    edges = cp.edges
    in_edges = cp.in_edges
    out_edges = cp.out_edges
    push = pending.append
    while pending:
        u, v = pending.popleft()
        sim_u = sim[u]
        if v not in sim_u:
            continue  # already removed via another cascade path
        sim_u.discard(v)
        if not sim_u:
            return False
        # Pattern edges (a, u): predecessors of v lose a child witness.
        for e in in_edges[u]:
            a = edges[e][0]
            sim_a = sim[a]
            cd = cnt_down[e]
            for p in rev[v]:
                if p in sim_a:
                    c = cd.get(p)
                    if c is None:
                        # Lazy init: count the survivors (v already gone).
                        c = 0
                        for w in fwd[p]:
                            if w in sim_u:
                                c += 1
                    else:
                        c -= 1
                    cd[p] = c
                    if not c:
                        push((a, p))
        # Pattern edges (u, b): successors of v lose a parent witness.
        for e in out_edges[u]:
            b = edges[e][1]
            sim_b = sim[b]
            cu = cnt_up[e]
            for s in fwd[v]:
                if s in sim_b:
                    c = cu.get(s)
                    if c is None:
                        c = 0
                        for v2 in rev[s]:
                            if v2 in sim_u:
                                c += 1
                    else:
                        c -= 1
                    cu[s] = c
                    if not c:
                        push((b, s))
    return True


def _batch_prefilter(
    cp: _CompiledPattern, gi: GraphIndex, sim: List[Set[int]]
) -> bool:
    """Bulk-remove unsupported candidates before counting witnesses.

    Label seeds typically suffer a mass extinction in the first refinement
    rounds (most label-compatible nodes have no structural support at
    all).  Driving those removals through the one-at-a-time counter
    cascade is slower than batch refinement, so this runs simultaneous
    rounds first — the witness test is ``set.isdisjoint`` over a CSR row,
    which short-circuits in C — and stops as soon as a round's removals
    become a small fraction of the survivors, handing the tail to the
    exact counter fixpoint.  Simultaneous refinement deletes only invalid
    pairs, so the greatest fixpoint (Lemma 1) is unchanged.

    Returns ``False`` on collapse (some candidate set emptied).
    """
    fwd = gi.fwd_rows
    rev = gi.rev_rows
    edges = cp.edges
    while True:
        removed = 0
        remaining = 0
        for a, b in edges:
            sim_a = sim[a]
            sim_b = sim[b]
            stale = [v for v in sim_a if sim_b.isdisjoint(fwd[v])]
            if stale:
                if len(stale) == len(sim_a):
                    return False
                sim_a.difference_update(stale)
                removed += len(stale)
            stale = [w for w in sim_b if sim_a.isdisjoint(rev[w])]
            if stale:
                if len(stale) == len(sim_b):
                    return False
                sim_b.difference_update(stale)
                removed += len(stale)
            remaining += len(sim_a) + len(sim_b)
        if removed <= max(8, remaining >> 4):
            return True


def _dual_sim_eager(
    cp: _CompiledPattern, gi: GraphIndex, sim: List[Set[int]]
) -> bool:
    """Full counter fixpoint from arbitrary seeds (not known to be valid).

    First bulk-prunes hopeless candidates (:func:`_batch_prefilter`), then
    initializes every surviving witness count with one adjacency scan per
    candidate per incident pattern edge, and cascades the remaining
    deletions with O(1) decrements.  Used for the global dual simulation
    and for per-ball ``DualSim`` from label seeds.  Refines ``sim`` in
    place; ``False`` on collapse.
    """
    if not _batch_prefilter(cp, gi, sim):
        return False
    fwd = gi.fwd_rows
    rev = gi.rev_rows
    edges = cp.edges
    num_edges = len(edges)
    cnt_down: List[Dict[int, int]] = [{} for _ in range(num_edges)]
    cnt_up: List[Dict[int, int]] = [{} for _ in range(num_edges)]
    pending: Deque[Pair] = deque()
    push = pending.append
    for e in range(num_edges):
        a, b = edges[e]
        sim_a = sim[a]
        sim_b = sim[b]
        cd = cnt_down[e]
        cu = cnt_up[e]
        # One scan from the smaller side fills BOTH directions' counts:
        # every witness edge (v, w) contributes to cnt_down[e][v] and
        # cnt_up[e][w] alike.  Zero counts are not stored — the worklist
        # removes those pairs, and the cascade lazily recounts on a miss.
        if len(sim_a) <= len(sim_b):
            cu_get = cu.get
            for v in sim_a:
                c = 0
                for w in fwd[v]:
                    if w in sim_b:
                        c += 1
                        cu[w] = cu_get(w, 0) + 1
                if c:
                    cd[v] = c
                else:
                    push((a, v))
            for w in sim_b:
                if w not in cu:
                    push((b, w))
        else:
            cd_get = cd.get
            for w in sim_b:
                c = 0
                for v in rev[w]:
                    if v in sim_a:
                        c += 1
                        cd[v] = cd_get(v, 0) + 1
                if c:
                    cu[w] = c
                else:
                    push((b, w))
            for v in sim_a:
                if v not in cd:
                    push((a, v))
    return _run_fixpoint(cp, gi, sim, cnt_down, cnt_up, pending)


def _seed_by_label_full(
    cp: _CompiledPattern, gi: GraphIndex
) -> List[Set[int]]:
    """Label-compatible seeds over the whole graph (lines 1–2 of Fig. 3)."""
    groups = gi.label_groups
    return [set(groups.get(cp.labels[u], ())) for u in range(cp.size)]


def dual_simulation_kernel(pattern: Pattern, data: DiGraph) -> MatchRelation:
    """Maximum dual-simulation relation of ``Q`` on ``G`` — kernel engine.

    Output-identical to :func:`repro.core.dualsim.dual_simulation` (the
    maximum relation is unique by Lemma 1; both engines compute the
    greatest fixpoint below the label seeds).
    """
    with _obs_span("kernel.dual_simulation") as _sp:
        gi = get_index(data)
        if _sp.enabled:
            _sp.set(engine="kernel", pattern=pattern.size, nodes=gi.num_live)
        cp = _CompiledPattern(pattern)
        with gi.reading():
            sim = _seed_by_label_full(cp, gi)
            ok = all(sim) and _dual_sim_eager(cp, gi, sim)
            nodes = gi.nodes
            if not ok:
                return MatchRelation({u: set() for u in cp.nodes})
            return MatchRelation(
                {
                    cp.nodes[u]: {nodes[v] for v in sim[u]}
                    for u in range(cp.size)
                }
            )


# ======================================================================
# Child-direction-only counter fixpoint (graph simulation)
# ======================================================================
def _sim_child_only(
    cp: _CompiledPattern, gi: "GraphIndex", sim: List[Set[int]]
) -> bool:
    """Graph-simulation fixpoint: child witnesses only, counter-cascaded.

    Plain graph simulation (``Q ≺ G``) drops ``v`` from ``sim(u)`` only
    when some pattern edge ``(u, b)`` has no witness ``(v, w)`` with
    ``w ∈ sim(b)`` — the parent direction of dual simulation is absent.
    Structurally this is :func:`_dual_sim_eager` with the ``cnt_up``
    half deleted: one batch pre-filter round for the label-seed mass
    extinction, then exact per-(edge, parent) witness counts with O(1)
    decrements.  Removing ``v`` from ``sim(u)`` can only invalidate
    *predecessors* of ``v`` under pattern edges entering ``u``, so the
    cascade walks ``rev`` rows exclusively.  Refines ``sim`` in place;
    ``False`` on collapse (some candidate set emptied).
    """
    fwd = gi.fwd_rows
    rev = gi.rev_rows
    edges = cp.edges
    # Batch pre-filter, child direction only (same stopping rule as
    # _batch_prefilter: hand the tail to the exact counters).
    while True:
        removed = 0
        remaining = 0
        for a, b in edges:
            sim_a = sim[a]
            sim_b = sim[b]
            stale = [v for v in sim_a if sim_b.isdisjoint(fwd[v])]
            if stale:
                if len(stale) == len(sim_a):
                    return False
                sim_a.difference_update(stale)
                removed += len(stale)
            remaining += len(sim_a)
        if removed <= max(8, remaining >> 4):
            break

    num_edges = len(edges)
    cnt_down: List[Dict[int, int]] = [{} for _ in range(num_edges)]
    pending: Deque[Pair] = deque()
    push = pending.append
    for e in range(num_edges):
        a, b = edges[e]
        sim_b = sim[b]
        cd = cnt_down[e]
        for v in sim[a]:
            c = 0
            for w in fwd[v]:
                if w in sim_b:
                    c += 1
            if c:
                cd[v] = c
            else:
                push((a, v))

    in_edges = cp.in_edges
    while pending:
        u, v = pending.popleft()
        sim_u = sim[u]
        if v not in sim_u:
            continue
        sim_u.discard(v)
        if not sim_u:
            return False
        # Pattern edges (a, u): predecessors of v lose a child witness.
        for e in in_edges[u]:
            a = edges[e][0]
            sim_a = sim[a]
            cd = cnt_down[e]
            for p in rev[v]:
                if p in sim_a:
                    c = cd.get(p)
                    if c is None:
                        # Lazy recount (the pair was enqueued with zero at
                        # init and a cascade reached it first): count the
                        # survivors, v already removed.
                        c = 0
                        for w in fwd[p]:
                            if w in sim_u:
                                c += 1
                    else:
                        c -= 1
                    cd[p] = c
                    if not c:
                        push((a, p))
    return True


def graph_simulation_kernel(pattern: Pattern, data: DiGraph) -> MatchRelation:
    """Maximum graph-simulation relation of ``Q ≺ G`` — kernel engine.

    Output-identical to :func:`repro.core.simulation.simulation_fixpoint`
    (the maximum simulation relation is unique; both engines compute the
    greatest fixpoint below the label seeds, and both collapse to the
    empty relation when any pattern node ends up with no matches).
    """
    with _obs_span("kernel.graph_simulation") as _sp:
        gi = get_index(data)
        if _sp.enabled:
            _sp.set(engine="kernel", pattern=pattern.size, nodes=gi.num_live)
        cp = _CompiledPattern(pattern)
        with gi.reading():
            sim = _seed_by_label_full(cp, gi)
            ok = all(sim) and _sim_child_only(cp, gi, sim)
            if not ok:
                return MatchRelation({u: set() for u in cp.nodes})
            nodes = gi.nodes
            return MatchRelation(
                {
                    cp.nodes[u]: {nodes[v] for v in sim[u]}
                    for u in range(cp.size)
                }
            )


# ======================================================================
# Ball primitives (epoch-stamped, allocation-light)
# ======================================================================
def _ball_bfs(
    gi: GraphIndex, center: int, radius: int
) -> Tuple[List[int], List[int], List[int], int]:
    """Bounded undirected layered BFS from ``center``.

    Returns ``(order, border, stamp, epoch)``: ball nodes in BFS order
    (center first), the border layer (nodes at distance exactly
    ``radius``; empty when the ball exhausts its component earlier), and
    the calling thread's stamp buffer plus the epoch under which
    ``stamp[v] == epoch`` marks ball membership.
    """
    visit = gi.visit_state()
    epoch = visit.new_epoch()
    stamp = visit.stamp
    rows = gi.und_rows
    stamp[center] = epoch
    order = [center]
    frontier = [center]
    border: List[int] = [center] if radius == 0 else []
    depth = 0
    extend = order.extend
    mark = stamp.__setitem__
    while frontier and depth < radius:
        # One comprehension per layer: the `mark` call fires only for
        # first visits (short-circuit) and returns None, keeping the
        # filter truthy — the loop body runs at comprehension dispatch
        # speed, which measurably beats an explicit nested loop here.
        nxt = [
            w
            for v in frontier
            for w in rows[v]
            if stamp[w] != epoch and not mark(w, epoch)
        ]
        extend(nxt)
        frontier = nxt
        depth += 1
        if depth == radius:
            border = nxt
    return order, border, stamp, epoch


def _center_component(
    gi: GraphIndex, center: int, sim: List[Set[int]]
) -> Set[int]:
    """Connectivity pruning (Example 6): the center's candidate component.

    The undirected component of ``center`` within the union of candidate
    sets (candidates are ball-restricted already, so ``w in union``
    subsumes ball membership).  The center is a candidate itself: only
    nodes of the global dual-simulation relation are ball centers.
    """
    union: Set[int] = set()
    for s in sim:
        union |= s
    rows = gi.und_rows
    component = {center}
    add = component.add
    stack = [center]
    pop = stack.pop
    push = stack.append
    while stack:
        v = pop()
        for w in rows[v]:
            if w in union and w not in component:
                add(w)
                push(w)
    return component


def _extract_perfect_subgraph(
    cp: _CompiledPattern,
    gi: GraphIndex,
    center: int,
    sim: List[Set[int]],
    seen: Optional[Set[Tuple[FrozenSet[int], FrozenSet[Pair]]]] = None,
) -> Optional[PerfectSubgraph]:
    """Procedure ``ExtractMaxPG`` over integer candidate sets.

    Builds the match graph w.r.t. the refined relation (scanning each
    pattern edge from its cheaper side, as ``build_match_graph`` does),
    takes the undirected component containing the center, and materializes
    it as a real ``DiGraph`` + ``MatchRelation`` — identical to the
    reference implementation's output.  Only successful balls pay for
    object-graph construction.

    ``seen`` enables integer-level deduplication: neighboring centers
    usually rediscover the same perfect subgraph (Proposition 4 is what
    makes ``MatchResult`` dedup by signature), and recognizing a repeat on
    the int node/edge sets skips object-graph construction entirely.  A
    ``None`` return for a repeat is safe — the caller would have had its
    ``MatchResult.add`` rejected anyway.
    """
    if not any(center in s for s in sim):
        return None  # center unmatched: line 1 of ExtractMaxPG
    fwd = gi.fwd_rows
    rev = gi.rev_rows
    match_edges: Set[Pair] = set()
    madj: Dict[int, List[int]] = {}
    for a, b in cp.edges:
        sim_a, sim_b = sim[a], sim[b]
        if len(sim_a) <= len(sim_b):
            for v in sim_a:
                for w in fwd[v]:
                    if w in sim_b and (v, w) not in match_edges:
                        match_edges.add((v, w))
                        madj.setdefault(v, []).append(w)
                        madj.setdefault(w, []).append(v)
        else:
            for w in sim_b:
                for v in rev[w]:
                    if v in sim_a and (v, w) not in match_edges:
                        match_edges.add((v, w))
                        madj.setdefault(v, []).append(w)
                        madj.setdefault(w, []).append(v)
    component = {center}
    add = component.add
    stack = [center]
    while stack:
        v = stack.pop()
        for w in madj.get(v, ()):
            if w not in component:
                add(w)
                stack.append(w)

    # Match-graph components are edge-closed: v in component implies w too.
    component_edges = [(v, w) for v, w in match_edges if v in component]
    if seen is not None:
        key = (frozenset(component), frozenset(component_edges))
        if key in seen:
            return None
        seen.add(key)

    nodes = gi.nodes
    labels = gi.labels
    component_graph = DiGraph._build_unchecked(
        ((nodes[v], labels[v]) for v in component),
        ((nodes[v], nodes[w]) for v, w in component_edges),
    )
    relation = MatchRelation(
        {
            cp.nodes[u]: {nodes[v] for v in sim[u] if v in component}
            for u in range(cp.size)
        }
    )
    return PerfectSubgraph(component_graph, relation, nodes[center])


# ======================================================================
# Per-ball refinement
# ======================================================================
def _refine_ball(
    cp: _CompiledPattern,
    gi: GraphIndex,
    center: int,
    radius: int,
    sim_global: List[Set[int]],
    seen: Optional[Set[Tuple[FrozenSet[int], FrozenSet[Pair]]]] = None,
) -> Optional[PerfectSubgraph]:
    """The ``dualFilter`` step of ``Match+`` on a restricted ball.

    Ball distances are measured over the full graph but only globally
    matched nodes enter the candidate sets (``extract_ball_restricted``
    semantics — the global sets contain matched nodes only, so projecting
    on ball membership suffices).  Proposition 5 localizes the initial
    violations to border pairs: only those are validity-checked; interior
    pairs are touched exclusively through the lazy deletion cascade.
    Connectivity-pruning removals feed the same cascade, exactly like the
    reference path's ``extra_removals``.
    """
    _, border, stamp, epoch = _ball_bfs(gi, center, radius)
    sim: List[Set[int]] = []
    for s in sim_global:
        projected = {v for v in s if stamp[v] == epoch}
        if not projected:
            return None
        sim.append(projected)

    pending: Deque[Pair] = deque()
    push = pending.append
    component = _center_component(gi, center, sim)
    for u in range(cp.size):
        for v in sim[u]:
            if v not in component:
                push((u, v))

    # Border seeding (lines 2–5 of Fig. 5): iterate the (small) candidate
    # sets and test border membership, not the other way around.  Witness
    # counts computed here are stored, so the cascade later decrements
    # them instead of recounting.
    num_edges = len(cp.edges)
    cnt_down: List[Dict[int, int]] = [{} for _ in range(num_edges)]
    cnt_up: List[Dict[int, int]] = [{} for _ in range(num_edges)]
    if border:
        border_set = set(border)
        fwd = gi.fwd_rows
        rev = gi.rev_rows
        edges = cp.edges
        out_edges = cp.out_edges
        in_edges = cp.in_edges
        for u in range(cp.size):
            for v in sim[u]:
                if v not in border_set:
                    continue
                valid = True
                for e in out_edges[u]:
                    sim_b = sim[edges[e][1]]
                    cd = cnt_down[e]
                    c = cd.get(v)
                    if c is None:
                        c = 0
                        for w in fwd[v]:
                            if w in sim_b:
                                c += 1
                        cd[v] = c
                    if not c:
                        valid = False
                        break
                if valid:
                    for e in in_edges[u]:
                        sim_a = sim[edges[e][0]]
                        cu = cnt_up[e]
                        c = cu.get(v)
                        if c is None:
                            c = 0
                            for p in rev[v]:
                                if p in sim_a:
                                    c += 1
                            cu[v] = c
                        if not c:
                            valid = False
                            break
                if not valid:
                    push((u, v))

    if not _run_fixpoint(cp, gi, sim, cnt_down, cnt_up, pending):
        return None
    return _extract_perfect_subgraph(cp, gi, center, sim, seen)


# ======================================================================
# Public entry points
# ======================================================================
def kernel_match_plus(
    pattern: Pattern, data: DiGraph, radius: int
) -> MatchResult:
    """The matching core of ``Match+`` on the kernel engine.

    ``pattern`` is the (possibly minimized) working pattern and ``radius``
    the original diameter — minimization happens in the caller
    (:func:`repro.core.matchplus.match_plus`).  Plain
    :func:`repro.core.strong.match` calls it too, with the unminimized
    pattern and the caller's radius.  Runs the composition
    with every optimization on: the global dual filter, restricted balls
    around its matched nodes, connectivity pruning and border-seeded
    refinement.  Output-identical to the reference path: same perfect
    subgraphs with the same match relations.  Only the incidental
    ``PerfectSubgraph.center`` attribution (which of the equivalent
    discovering centers is recorded first) can differ, because the
    reference implementation iterates the matched-node *set* while the
    kernel visits centers in graph node order.
    """
    with _obs_span("kernel.match_plus") as _sp:
        gi = get_index(data)
        if _sp.enabled:
            _sp.set(
                engine="kernel",
                pattern=pattern.size,
                radius=radius,
                nodes=gi.num_live,
            )
        cp = _CompiledPattern(pattern)
        result = MatchResult(pattern)

        with gi.reading():
            with _obs_span("kernel.global_dual_filter"):
                sim_global = _seed_by_label_full(cp, gi)
                filtered = all(sim_global) and _dual_sim_eager(
                    cp, gi, sim_global
                )
            if not filtered:
                _sp.set(**{"balls.scanned": 0, "balls.matched": 0})
                return result
            matched: Set[int] = set()
            for s in sim_global:
                matched |= s
            seen: Set[Tuple[FrozenSet[int], FrozenSet[Pair]]] = set()
            with _obs_span("kernel.ball_scan"):
                for center in range(gi.n):
                    if center not in matched:
                        continue
                    subgraph = _refine_ball(
                        cp, gi, center, radius, sim_global, seen=seen
                    )
                    if subgraph is not None:
                        result.add(subgraph)
            if _sp.enabled:
                _sp.set(
                    **{
                        "balls.scanned": len(matched),
                        "balls.matched": len(result),
                    }
                )
            return result
