#!/usr/bin/env python3
"""Query minimization and the Match+ optimizations (Section 4.2).

Walks through:

1. ``minQ`` on the paper's Figure 6(a) pattern — a redundant 8-node query
   collapses to its 5-node minimum equivalent;
2. the three Match+ optimizations toggled one by one on a synthetic
   workload, timing each configuration while asserting the results never
   change.  Plain Match and every configuration run on the reference
   engine (``engine="python"``), the only engine that takes the toggles,
   so the timings compare like with like.

Run:  python examples/query_optimization.py
"""

from repro import MatchPlusOptions, match, match_plus, minimize_pattern
from repro.datasets import generate_graph
from repro.datasets.paper_figures import pattern_q5
from repro.datasets.patterns import sample_pattern_from_data
from repro.utils.timer import timed


def demo_minimization() -> None:
    pattern = pattern_q5()
    minimized = minimize_pattern(pattern)
    print("-- query minimization (minQ, Fig. 6(a)) --")
    print(f"original:  {pattern.num_nodes} nodes, {pattern.num_edges} edges")
    print(f"minimized: {minimized.pattern.num_nodes} nodes, "
          f"{minimized.pattern.num_edges} edges "
          f"(ball radius stays {minimized.radius})")
    for class_id, members in enumerate(minimized.classes):
        print(f"  class {class_id}: {sorted(map(str, members))}")
    print()


ENGINE = "python"


def demo_optimizations() -> None:
    print(f"-- Match+ ablation (engine={ENGINE!r}) --")
    data = generate_graph(1500, alpha=1.2, num_labels=20, seed=3)
    pattern = sample_pattern_from_data(data, 8, seed=1)
    assert pattern is not None

    reference, base_seconds = timed(
        lambda: match(pattern, data, engine=ENGINE)
    )
    reference_signatures = {sg.signature() for sg in reference}
    print(f"Match (no optimizations):  {base_seconds:.3f}s, "
          f"{len(reference)} subgraphs")

    configs = {
        "minQ only": MatchPlusOptions(True, False, False, False),
        "dual filter only": MatchPlusOptions(False, True, False, False),
        "pruning only": MatchPlusOptions(False, False, True, True),
        "Match+ (all)": MatchPlusOptions(True, True, True, True),
    }
    for name, options in configs.items():
        result, seconds = timed(
            lambda: match_plus(pattern, data, options, engine=ENGINE)
        )
        same = {sg.signature() for sg in result} == reference_signatures
        print(f"{name:24s} {seconds:.3f}s  "
              f"(x{base_seconds / max(seconds, 1e-9):.1f} speedup, "
              f"identical output: {same})")
    print()


if __name__ == "__main__":
    demo_minimization()
    demo_optimizations()
