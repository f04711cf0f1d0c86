#!/usr/bin/env python3
"""Streaming graph updates with incremental strong simulation (future work).

A recommendation network evolves — endorsements appear and disappear —
and an analyst keeps a standing pattern query against it.  The paper
lists incremental strong simulation as future work (Section 6) and
observes that deletions are the easy direction (Section 4.2); this
example exercises both directions and shows the ranked top matches after
every change, using the ranking extension.

Run:  python examples/streaming_updates.py
"""

from repro.core.incremental import IncrementalMatcher
from repro.core.ranking import score_match, top_k_matches
from repro.datasets.paper_figures import data_g1, pattern_q1


def show(matcher, title):
    result = matcher.result()
    print(title)
    if not result:
        print("  (no matches)")
        return
    for subgraph in top_k_matches(result, 2):
        score = score_match(result.pattern, subgraph)
        nodes = ", ".join(sorted(map(str, subgraph.graph.nodes())))
        print(f"  score={score:.3f}  {{{nodes}}}")
    print()


def main() -> None:
    pattern = pattern_q1()
    network = data_g1(cycle_length=4)
    matcher = IncrementalMatcher(pattern, network)
    print(f"standing query: {pattern}")
    print(f"initial network: {network}")
    print()

    show(matcher, "-- initial matches --")

    # The HR person withdraws the endorsement of the good biologist:
    # the match must collapse (Bio4 loses its HR parent).
    matcher.remove_edge("HR2", "Bio4")
    show(matcher, "-- after HR2 un-recommends Bio4 --")

    # A different HR person vouches for Bio4: the match re-forms, but
    # only if that HR also recommends an SE (the pattern's duality).
    matcher.add_node("HR3", "HR")
    matcher.add_edge("HR3", "Bio4")
    show(matcher, "-- after new HR3 recommends Bio4 (no SE edge yet) --")

    matcher.add_edge("HR3", "SE2")
    show(matcher, "-- after HR3 also recommends SE2 --")

    print(f"balls recomputed, construction included: "
          f"{matcher.balls_recomputed} (graph has {matcher.data.num_nodes} "
          "nodes; an update refines only the balls near it whose center "
          "is in the dual-simulation relation, where re-running Match+ "
          "refines every ball centered in the relation)")


if __name__ == "__main__":
    main()
