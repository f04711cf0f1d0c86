"""Result containers for strong-simulation matching.

``Match`` (Fig. 3) returns the set Θ of *maximum perfect subgraphs*: for
each ball that admits a dual simulation whose match graph's component
contains the ball center, the perfect subgraph is that component together
with the (restricted) match relation.  Different centers can discover the
same perfect subgraph, so :class:`MatchResult` deduplicates by exact
node/edge signature — Proposition 4 bounds the number of *distinct*
subgraphs by |V|.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from repro.core.digraph import DiGraph, Edge, Node
from repro.core.matchrel import MatchRelation
from repro.core.pattern import Pattern


class PerfectSubgraph:
    """One maximum perfect subgraph: match graph component + relation + center.

    Attributes
    ----------
    graph:
        The connected match-graph component (a subgraph of the data graph).
    relation:
        The maximum dual-simulation relation restricted to this component.
    center:
        The ball center from which this subgraph was first discovered.
        Only the first discovering center is recorded; the subgraph itself
        is center-independent.
    """

    __slots__ = ("graph", "relation", "center")

    def __init__(
        self,
        graph: DiGraph,
        relation: MatchRelation,
        center: Node,
    ) -> None:
        self.graph = graph
        self.relation = relation
        self.center = center

    @property
    def num_nodes(self) -> int:
        """Number of data nodes in the subgraph."""
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of data edges in the subgraph."""
        return self.graph.num_edges

    def signature(self) -> Tuple[FrozenSet[Node], FrozenSet[Edge]]:
        """Hashable identity of the subgraph (exact node and edge sets)."""
        return self.graph.node_edge_signature()

    def matches_of(self, pattern_node: Node) -> FrozenSet[Node]:
        """Data nodes matching ``pattern_node`` within this subgraph."""
        return self.relation.matches_of(pattern_node)

    def __repr__(self) -> str:
        return (
            f"PerfectSubgraph(center={self.center!r}, "
            f"|V|={self.num_nodes}, |E|={self.num_edges})"
        )


class MatchResult:
    """The deduplicated set Θ of maximum perfect subgraphs.

    Iterating yields :class:`PerfectSubgraph` objects in discovery order.
    """

    __slots__ = ("pattern", "_subgraphs", "_signatures")

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self._subgraphs: List[PerfectSubgraph] = []
        self._signatures: Set[Tuple[FrozenSet[Node], FrozenSet[Edge]]] = set()

    def add(self, subgraph: PerfectSubgraph) -> bool:
        """Add a perfect subgraph; return False if it was a duplicate."""
        signature = subgraph.signature()
        if signature in self._signatures:
            return False
        self._signatures.add(signature)
        self._subgraphs.append(subgraph)
        return True

    def __iter__(self) -> Iterator[PerfectSubgraph]:
        return iter(self._subgraphs)

    def __len__(self) -> int:
        return len(self._subgraphs)

    def __bool__(self) -> bool:
        return bool(self._subgraphs)

    @property
    def subgraphs(self) -> List[PerfectSubgraph]:
        """The perfect subgraphs in discovery order (do not mutate)."""
        return list(self._subgraphs)

    def matched_data_nodes(self) -> Set[Node]:
        """Union of all data nodes across all perfect subgraphs."""
        nodes: Set[Node] = set()
        for subgraph in self._subgraphs:
            nodes.update(subgraph.graph.nodes())
        return nodes

    def all_matches_of(self, pattern_node: Node) -> Set[Node]:
        """All data nodes matching ``pattern_node`` in any subgraph."""
        result: Set[Node] = set()
        for subgraph in self._subgraphs:
            result |= subgraph.matches_of(pattern_node)
        return result

    def size_histogram(self, bin_width: int = 10) -> Dict[Tuple[int, int], int]:
        """Histogram of subgraph node counts in ``bin_width``-wide bins.

        Reproduces the row format of Table 3: bins [0,9], [10,19], ... and
        a final open bin for sizes >= 5 * bin_width.
        """
        bins: Dict[Tuple[int, int], int] = {}
        for subgraph in self._subgraphs:
            size = subgraph.num_nodes
            low = (size // bin_width) * bin_width
            bins[(low, low + bin_width - 1)] = bins.get(
                (low, low + bin_width - 1), 0
            ) + 1
        return bins

    def __repr__(self) -> str:
        return f"MatchResult({len(self._subgraphs)} perfect subgraphs)"
