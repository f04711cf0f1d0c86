"""Node-labeled directed graphs — the data model of the paper.

The paper (Section 2.1) defines a *data graph* ``G(V, E, l)`` as a finite
set of nodes ``V``, a set of directed edges ``E ⊆ V × V`` and a labeling
function ``l`` mapping each node to a label drawn from a (possibly
infinite) alphabet ``Σ``.  :class:`DiGraph` implements exactly this model
with adjacency sets in both directions plus a label index, which the
simulation algorithms rely on for their initial candidate computation.

Node identifiers may be any hashable object; labels likewise.  Self-loops
are permitted (``E ⊆ V × V`` does not exclude them); parallel edges are
not, matching the set semantics of ``E``.

Graphs also carry a **structured change-log**: every mutator emits a
typed :class:`GraphDelta` to weakly-held subscribers
(:meth:`DiGraph.subscribe`), with :meth:`DiGraph.batch` grouping a burst
of mutations into one delivery.  The compiled execution kernel
(:mod:`repro.core.kernel`) maintains its :class:`~repro.core.kernel.\
GraphIndex` incrementally from this stream instead of recompiling; the
plain ``version`` counter remains the cheap staleness check.  A graph is
one kind of *delta source* (``version`` plus ``subscribe``); a
distributed :class:`~repro.distributed.coordinator.Cluster` is the
other, and both keep their subscribers in one :class:`DeltaListeners`.
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import DuplicateNode, EdgeNotFound, GraphError, NodeNotFound

Node = Hashable
Label = Hashable
Edge = Tuple[Node, Node]

# ----------------------------------------------------------------------
# Structured change-log: typed mutation events
# ----------------------------------------------------------------------
#: The five mutation kinds a :class:`DiGraph` can emit.
ADD_NODE = "add_node"
REMOVE_NODE = "remove_node"
ADD_EDGE = "add_edge"
REMOVE_EDGE = "remove_edge"
RELABEL = "relabel"


@dataclass(frozen=True)
class GraphDelta:
    """One typed mutation event emitted by a :class:`DiGraph` mutator.

    ``kind`` is one of :data:`ADD_NODE`, :data:`REMOVE_NODE`,
    :data:`ADD_EDGE`, :data:`REMOVE_EDGE`, :data:`RELABEL`.  Node events
    carry ``node`` and ``label`` (for :data:`RELABEL` additionally
    ``old_label``; for :data:`REMOVE_NODE`, ``label`` is the label the
    node had).  Edge events carry ``source`` and ``target``.

    Deltas describe the *applied* mutation: by the time a listener sees
    one, the graph already reflects it.  A ``remove_node`` is always
    preceded by one ``remove_edge`` per incident edge (delivered in the
    same batch), so listeners never need to reconstruct adjacency that
    is already gone.
    """

    kind: str
    node: Node = None
    label: Label = None
    old_label: Label = None
    source: Node = None
    target: Node = None


class DeltaListeners:
    """The weakly-held subscriber list of one delta source.

    A listener implements ``on_graph_deltas(deltas)`` and receives each
    delivered tuple of :class:`GraphDelta`.  Only a weak reference is
    kept, so a listener dies with its owner (e.g. a compiled index)
    without unsubscribing; dead references are pruned on the next
    delivery.
    """

    __slots__ = ("_refs",)

    def __init__(self) -> None:
        self._refs: List["weakref.ref"] = []

    def __len__(self) -> int:
        return len(self._refs)

    def add(self, listener: object) -> None:
        """Register ``listener`` (held weakly)."""
        self._refs.append(weakref.ref(listener))

    def discard(self, listener: object) -> None:
        """Remove ``listener`` (idempotent; dead weakrefs pruned too)."""
        self._refs = [
            ref for ref in self._refs
            if ref() is not None and ref() is not listener
        ]

    def deliver(self, deltas: Tuple[GraphDelta, ...]) -> None:
        """Hand ``deltas`` to every live listener, in subscription order."""
        # Iterate over a snapshot: a callback may subscribe/unsubscribe
        # without disturbing this delivery.
        dead = False
        for ref in tuple(self._refs):
            target = ref()
            if target is None:
                dead = True
            else:
                target.on_graph_deltas(deltas)
        if dead:
            # Prune dead weakrefs from the *current* list, not the
            # snapshot — rebuilding from the snapshot would resurrect a
            # listener that unsubscribed during delivery.
            self._refs = [ref for ref in self._refs if ref() is not None]


#: Shared empty bucket returned by :meth:`DiGraph.nodes_with_label_raw`
#: for labels that never occur.  A frozenset so that an (illegal) caller
#: mutation fails loudly instead of poisoning every graph's lookups.
_EMPTY_SET: FrozenSet[Node] = frozenset()


class DiGraph:
    """A finite, node-labeled, directed graph.

    The class exposes the vocabulary used throughout the paper:

    * ``successors`` / ``predecessors`` — the child / parent relations that
      simulation and dual simulation preserve;
    * ``label`` and ``nodes_with_label`` — the labeling function ``l`` and
      its inverse index;
    * ``subgraph`` — the node/edge-induced subgraph ``G[Vs, Es]``.

    Example
    -------
    >>> g = DiGraph()
    >>> g.add_node(1, "HR")
    >>> g.add_node(2, "Bio")
    >>> g.add_edge(1, 2)
    >>> sorted(g.successors(1))
    [2]
    >>> g.label(2)
    'Bio'
    """

    __slots__ = (
        "_labels",
        "_succ",
        "_pred",
        "_label_index",
        "_edge_count",
        "_version",
        "_listeners",
        "_batch_buffer",
        "_batch_depth",
        "__weakref__",
    )

    def __init__(self) -> None:
        self._labels: Dict[Node, Label] = {}
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._label_index: Dict[Label, Set[Node]] = {}
        self._edge_count = 0
        self._version = 0
        self._listeners = DeltaListeners()
        self._batch_buffer: Optional[List[GraphDelta]] = None
        self._batch_depth = 0

    # ------------------------------------------------------------------
    # Change-log subscription
    # ------------------------------------------------------------------
    def subscribe(self, listener: object) -> None:
        """Register ``listener`` for mutation deltas (held weakly).

        ``listener`` must implement ``on_graph_deltas(deltas)``, receiving
        a tuple of :class:`GraphDelta` after every mutation — one event
        per call outside :meth:`batch`, the whole group at batch exit.
        The graph keeps only a weak reference: a listener dies with its
        owner (e.g. a compiled index) without unsubscribing.
        """
        self._listeners.add(listener)

    def unsubscribe(self, listener: object) -> None:
        """Remove ``listener`` (idempotent; dead weakrefs pruned too).

        Safe to call for a listener that was never subscribed, or twice
        for the same listener — both are no-ops.  Dead weakrefs
        encountered along the way are pruned as a side effect, so a
        subscriber that was garbage-collected without unsubscribing never
        lingers in the list.
        """
        self._listeners.discard(listener)

    @contextmanager
    def batch(self):
        """Group mutations into one delta delivery.

        Inside the context every mutator applies (and bumps ``version``)
        immediately, but listeners hear nothing until the outermost batch
        exits, when the buffered deltas arrive as one tuple — the unit an
        incremental index maintains itself by.  Nests; delivery happens
        even if the body raises, because the mutations did apply.
        """
        if self._batch_depth == 0:
            self._batch_buffer = []
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if self._batch_depth == 0:
                buffered, self._batch_buffer = self._batch_buffer, None
                if buffered:
                    self._listeners.deliver(tuple(buffered))

    def _emit(self, delta: GraphDelta) -> None:
        """Route one applied delta to the batch buffer or the listeners."""
        if self._batch_buffer is not None:
            self._batch_buffer.append(delta)
        else:
            self._listeners.deliver((delta,))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        labels: Mapping[Node, Label],
        edges: Iterable[Edge],
    ) -> "DiGraph":
        """Build a graph from a label mapping and an edge iterable.

        Every edge endpoint must appear in ``labels``.
        """
        graph = cls()
        for node, label in labels.items():
            graph.add_node(node, label)
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    @classmethod
    def _build_unchecked(
        cls,
        node_label_pairs: Iterable[Tuple[Node, Label]],
        edges: Iterable[Edge],
    ) -> "DiGraph":
        """Bulk-build from pre-validated parts, skipping per-call checks.

        Internal fast path for the execution kernel, which materializes
        many small result subgraphs from data it already knows to be
        consistent.  ``node_label_pairs`` must be duplicate-free,
        ``edges`` must be duplicate-free with both endpoints present.
        """
        graph = cls()
        labels = graph._labels
        succ = graph._succ
        pred = graph._pred
        label_index = graph._label_index
        for node, label in node_label_pairs:
            labels[node] = label
            succ[node] = set()
            pred[node] = set()
            bucket = label_index.get(label)
            if bucket is None:
                label_index[label] = {node}
            else:
                bucket.add(node)
        count = 0
        for source, target in edges:
            succ[source].add(target)
            pred[target].add(source)
            count += 1
        graph._edge_count = count
        graph._version = 1
        return graph

    def add_node(self, node: Node, label: Label) -> None:
        """Add ``node`` with ``label``; raise :class:`DuplicateNode` if present."""
        if node in self._labels:
            raise DuplicateNode(node)
        self._labels[node] = label
        self._succ[node] = set()
        self._pred[node] = set()
        self._label_index.setdefault(label, set()).add(node)
        self._version += 1
        if self._listeners:
            self._emit(GraphDelta(ADD_NODE, node=node, label=label))

    def add_edge(self, source: Node, target: Node) -> None:
        """Add the directed edge ``(source, target)``.

        Both endpoints must already be nodes.  Adding an existing edge is a
        no-op (edges form a set).
        """
        if source not in self._labels:
            raise NodeNotFound(source)
        if target not in self._labels:
            raise NodeNotFound(target)
        if target not in self._succ[source]:
            self._succ[source].add(target)
            self._pred[target].add(source)
            self._edge_count += 1
            self._version += 1
            if self._listeners:
                self._emit(GraphDelta(ADD_EDGE, source=source, target=target))

    def remove_edge(self, source: Node, target: Node) -> None:
        """Remove the directed edge ``(source, target)``."""
        if source not in self._labels or target not in self._succ[source]:
            raise EdgeNotFound(source, target)
        self._succ[source].discard(target)
        self._pred[target].discard(source)
        self._edge_count -= 1
        self._version += 1
        if self._listeners:
            self._emit(GraphDelta(REMOVE_EDGE, source=source, target=target))

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge.

        Emits one ``remove_edge`` delta per incident edge followed by the
        ``remove_node`` delta, grouped as a single batch delivery.
        """
        if node not in self._labels:
            raise NodeNotFound(node)
        with self.batch():
            for target in list(self._succ[node]):
                self.remove_edge(node, target)
            for source in list(self._pred[node]):
                self.remove_edge(source, node)
            label = self._labels.pop(node)
            bucket = self._label_index[label]
            bucket.discard(node)
            if not bucket:
                del self._label_index[label]
            del self._succ[node]
            del self._pred[node]
            self._version += 1
            if self._listeners:
                self._emit(GraphDelta(REMOVE_NODE, node=node, label=label))

    def relabel_node(self, node: Node, label: Label) -> None:
        """Change the label of an existing node, keeping the index coherent."""
        if node not in self._labels:
            raise NodeNotFound(node)
        old = self._labels[node]
        if old == label:
            return
        bucket = self._label_index[old]
        bucket.discard(node)
        if not bucket:
            del self._label_index[old]
        self._labels[node] = label
        self._label_index.setdefault(label, set()).add(node)
        self._version += 1
        if self._listeners:
            self._emit(
                GraphDelta(RELABEL, node=node, label=label, old_label=old)
            )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural or label change.

        The execution kernel (:mod:`repro.core.kernel`) keys its compiled
        :class:`~repro.core.kernel.GraphIndex` cache on this value so a
        stale index is never served after the graph changes.
        """
        return self._version

    def __contains__(self, node: Node) -> bool:
        return node in self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._labels)

    @property
    def num_nodes(self) -> int:
        """``|V|`` — number of nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """``|E|`` — number of directed edges."""
        return self._edge_count

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` — the size measure used by the paper."""
        return self.num_nodes + self.num_edges

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes (insertion order)."""
        return iter(self._labels)

    def edges(self) -> Iterator[Edge]:
        """Iterate over directed edges as ``(source, target)`` pairs."""
        for source, targets in self._succ.items():
            for target in targets:
                yield (source, target)

    def label(self, node: Node) -> Label:
        """Return ``l(node)``."""
        try:
            return self._labels[node]
        except KeyError:
            raise NodeNotFound(node) from None

    def labels(self) -> Mapping[Node, Label]:
        """Read-only *view* of the labeling function (no copy).

        Returns a :class:`types.MappingProxyType` over the live internal
        dict: O(1) instead of the former full-dict copy per call, while
        still rejecting mutation.  The view tracks later graph changes.
        """
        return MappingProxyType(self._labels)

    def labels_raw(self) -> Dict[Node, Label]:
        """Internal label dict (no copy, no proxy).  Do not mutate.

        The hot paths (ball extraction, kernel compilation) look labels up
        per node; skipping the exception-wrapped :meth:`label` and the
        proxy indirection is a measurable constant-factor win.
        """
        return self._labels

    def label_set(self) -> FrozenSet[Label]:
        """The set of labels that occur in the graph."""
        return frozenset(self._label_index)

    def nodes_with_label(self, label: Label) -> FrozenSet[Node]:
        """All nodes carrying ``label`` (empty if the label never occurs)."""
        return frozenset(self._label_index.get(label, frozenset()))

    def nodes_with_label_raw(self, label: Label) -> AbstractSet[Node]:
        """Internal label bucket (no copy).  Callers must not mutate it.

        Candidate seeding iterates these buckets once per pattern node;
        avoiding the frozenset copy matters on large label classes.  For
        absent labels a shared immutable empty set is returned.
        """
        return self._label_index.get(label, _EMPTY_SET)

    def successors(self, node: Node) -> FrozenSet[Node]:
        """Children of ``node`` — targets of edges leaving it."""
        try:
            return frozenset(self._succ[node])
        except KeyError:
            raise NodeNotFound(node) from None

    def predecessors(self, node: Node) -> FrozenSet[Node]:
        """Parents of ``node`` — sources of edges entering it."""
        try:
            return frozenset(self._pred[node])
        except KeyError:
            raise NodeNotFound(node) from None

    def successors_raw(self, node: Node) -> Set[Node]:
        """Internal successor set (no copy).  Callers must not mutate it.

        The simulation fixpoints iterate adjacency heavily; avoiding a
        frozenset copy per call is a significant constant-factor win.
        """
        return self._succ[node]

    def predecessors_raw(self, node: Node) -> Set[Node]:
        """Internal predecessor set (no copy).  Callers must not mutate it."""
        return self._pred[node]

    def out_degree(self, node: Node) -> int:
        """Number of children of ``node``."""
        try:
            return len(self._succ[node])
        except KeyError:
            raise NodeNotFound(node) from None

    def in_degree(self, node: Node) -> int:
        """Number of parents of ``node``."""
        try:
            return len(self._pred[node])
        except KeyError:
            raise NodeNotFound(node) from None

    def degree(self, node: Node) -> int:
        """Total degree (in + out), counting a self-loop twice."""
        return self.in_degree(node) + self.out_degree(node)

    def has_edge(self, source: Node, target: Node) -> bool:
        """True iff ``(source, target)`` is an edge."""
        return source in self._succ and target in self._succ[source]

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """Undirected neighborhood: parents ∪ children."""
        try:
            return frozenset(self._succ[node]) | frozenset(self._pred[node])
        except KeyError:
            raise NodeNotFound(node) from None

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def subgraph(
        self,
        nodes: Iterable[Node],
        edges: Optional[Iterable[Edge]] = None,
    ) -> "DiGraph":
        """Return the subgraph ``G[Vs, Es]`` (Section 2.1).

        With ``edges=None`` the *induced* subgraph is returned: all edges of
        ``G`` with both endpoints in ``nodes``.  Otherwise exactly the given
        edges are kept (each must exist in ``G`` and have both endpoints in
        ``nodes``).
        """
        node_set = set(nodes)
        labels = self._labels
        sub = DiGraph()
        for node in node_set:
            try:
                label = labels[node]
            except KeyError:
                raise NodeNotFound(node) from None
            sub.add_node(node, label)
        if edges is None:
            for node in node_set:
                for target in self._succ[node]:
                    if target in node_set:
                        sub.add_edge(node, target)
        else:
            for source, target in edges:
                if source not in node_set or target not in node_set:
                    raise GraphError(
                        f"edge ({source!r}, {target!r}) has an endpoint "
                        "outside the subgraph node set"
                    )
                if not self.has_edge(source, target):
                    raise EdgeNotFound(source, target)
                sub.add_edge(source, target)
        return sub

    def copy(self) -> "DiGraph":
        """Deep copy of the graph structure (labels are shared objects)."""
        clone = DiGraph()
        for node, label in self._labels.items():
            clone.add_node(node, label)
        for source, target in self.edges():
            clone.add_edge(source, target)
        return clone

    def reverse(self) -> "DiGraph":
        """Return the graph with every edge direction flipped."""
        rev = DiGraph()
        for node, label in self._labels.items():
            rev.add_node(node, label)
        for source, target in self.edges():
            rev.add_edge(target, source)
        return rev

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------
    def same_as(self, other: "DiGraph") -> bool:
        """Structural equality: identical node identities, labels and edges.

        This is *identity* equality, not isomorphism; use the baselines
        package for isomorphism checks.
        """
        if not isinstance(other, DiGraph):
            return NotImplemented  # type: ignore[return-value]
        if self._labels != other._labels:
            return False
        return self._succ == other._succ

    def node_edge_signature(self) -> Tuple[FrozenSet[Node], FrozenSet[Edge]]:
        """Hashable signature of the exact node and edge sets.

        Used to deduplicate perfect subgraphs discovered from different
        ball centers (Proposition 4 counts *distinct* maximum perfect
        subgraphs).
        """
        return (frozenset(self._labels), frozenset(self.edges()))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|V|={self.num_nodes}, "
            f"|E|={self.num_edges}, labels={len(self._label_index)})"
        )

    # ------------------------------------------------------------------
    # Convenience constructors used widely in tests and examples
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_label_pairs(
        cls,
        node_labels: Iterable[Tuple[Node, Label]],
        edges: Iterable[Edge],
    ) -> "DiGraph":
        """Build from ``[(node, label), ...]`` plus an edge list."""
        graph = cls()
        for node, label in node_labels:
            graph.add_node(node, label)
        for source, target in edges:
            graph.add_edge(source, target)
        return graph

    def degree_histogram(self) -> Dict[int, int]:
        """Map total degree -> number of nodes with that degree."""
        hist: Dict[int, int] = {}
        for node in self._labels:
            deg = self.degree(node)
            hist[deg] = hist.get(deg, 0) + 1
        return hist
