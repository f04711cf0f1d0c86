"""Core package: the paper's contribution and its graph substrate.

Re-exports the main entry points so that ``repro.core`` is usable without
knowing the module layout:

* data model — :class:`DiGraph`, :class:`Pattern`, :class:`Ball`;
* matching notions — :func:`graph_simulation`, :func:`dual_simulation`,
  :func:`match` (strong simulation), :func:`match_plus`;
* optimizations — :func:`minimize_pattern`, :func:`dual_filter`;
* extensions — :class:`BoundedPattern`, :func:`bounded_simulation`,
  :class:`RegularPattern`, :func:`regular_strong_match`, answered on
  the ``kernel`` engine by multi-source BFS over the CSR rows;
  :class:`ReachIndex` is an exact 2-hop distance oracle no matcher
  reads.
"""

from repro.core.ball import Ball, extract_ball, extract_ball_restricted, iter_balls
from repro.core.bisim import (
    are_bisimilar,
    maximum_bisimulation,
    subgraph_bisimulation_exists,
)
from repro.core.bounded import (
    BoundedPattern,
    bounded_simulation,
    matches_via_bounded_simulation,
)
from repro.core.components import (
    connected_components,
    component_containing,
    strongly_connected_components,
)
from repro.core.digraph import DiGraph, GraphDelta
from repro.core.dualfilter import dual_filter
from repro.core.incremental import IncrementalDualSimulation, IncrementalMatcher
from repro.core.kernel import (
    NUMPY_AVAILABLE,
    GraphIndex,
    IndexStats,
    dual_simulation_kernel,
    get_index,
)
from repro.core.reach import (
    PATH_ENGINES,
    ReachIndex,
    get_reach_index,
    resolve_path_engine,
)
from repro.core.regex import (
    LabelNfa,
    LazyDfa,
    compile_regex,
    regex_predecessors,
    regex_successors,
    reversed_nfa,
)
from repro.core.regular import (
    RegularPattern,
    hop_bounded_pattern,
    regular_dual_simulation,
    regular_strong_match,
)
from repro.core.ranking import (
    RankingWeights,
    rank_matches,
    score_breakdown,
    score_match,
    top_k_matches,
)
from repro.core.dualsim import (
    dual_simulation,
    dual_simulation_naive,
    is_dual_simulation_relation,
    matches_via_dual_simulation,
)
from repro.core.matchgraph import build_match_graph
from repro.core.matchrel import MatchRelation
from repro.core.matchplus import MatchPlusOptions, match_plus
from repro.core.minimize import (
    MinimizedPattern,
    dual_equivalence_classes,
    minimize_pattern,
    patterns_dual_equivalent,
)
from repro.core.pattern import Pattern
from repro.core.result import MatchResult, PerfectSubgraph
from repro.core.simulation import (
    graph_simulation,
    is_simulation_relation,
    matches_via_simulation,
    simulation_fixpoint,
    simulation_fixpoint_naive,
)
from repro.core.strong import (
    candidate_centers,
    extract_max_perfect_subgraph,
    match,
    matches_via_strong_simulation,
)
from repro.core.traversal import (
    diameter_undirected,
    has_directed_cycle,
    has_undirected_cycle,
    is_connected_undirected,
    undirected_distances,
)

__all__ = [
    "Ball",
    "BoundedPattern",
    "DiGraph",
    "NUMPY_AVAILABLE",
    "GraphDelta",
    "GraphIndex",
    "IndexStats",
    "IncrementalDualSimulation",
    "IncrementalMatcher",
    "LabelNfa",
    "LazyDfa",
    "PATH_ENGINES",
    "RankingWeights",
    "ReachIndex",
    "RegularPattern",
    "compile_regex",
    "get_reach_index",
    "hop_bounded_pattern",
    "regex_predecessors",
    "regex_successors",
    "resolve_path_engine",
    "reversed_nfa",
    "regular_dual_simulation",
    "regular_strong_match",
    "rank_matches",
    "score_breakdown",
    "score_match",
    "top_k_matches",
    "MatchPlusOptions",
    "MatchRelation",
    "MatchResult",
    "MinimizedPattern",
    "Pattern",
    "PerfectSubgraph",
    "are_bisimilar",
    "bounded_simulation",
    "build_match_graph",
    "candidate_centers",
    "component_containing",
    "connected_components",
    "diameter_undirected",
    "dual_equivalence_classes",
    "dual_filter",
    "dual_simulation",
    "dual_simulation_kernel",
    "dual_simulation_naive",
    "extract_ball",
    "extract_ball_restricted",
    "extract_max_perfect_subgraph",
    "get_index",
    "graph_simulation",
    "has_directed_cycle",
    "has_undirected_cycle",
    "is_connected_undirected",
    "is_dual_simulation_relation",
    "is_simulation_relation",
    "iter_balls",
    "match",
    "match_plus",
    "matches_via_bounded_simulation",
    "matches_via_dual_simulation",
    "matches_via_simulation",
    "matches_via_strong_simulation",
    "maximum_bisimulation",
    "minimize_pattern",
    "patterns_dual_equivalent",
    "simulation_fixpoint",
    "simulation_fixpoint_naive",
    "strongly_connected_components",
    "subgraph_bisimulation_exists",
    "undirected_distances",
]
