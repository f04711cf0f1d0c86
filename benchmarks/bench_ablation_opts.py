"""Ablation: each Match+ optimization toggled independently.

The paper reports Match+ at ~2/3 of Match overall; this bench attributes
the saving across query minimization, dual-simulation filtering and
connectivity pruning (DESIGN.md §5).  Every configuration, plain Match
included, runs on the reference engine: it is the only engine that takes
the toggles, so the timings compare like with like.
"""

import pytest

from repro.core.matchplus import MatchPlusOptions, match_plus
from repro.core.strong import match
from repro.datasets import generate_graph
from repro.datasets.patterns import sample_pattern_from_data
from repro.experiments import render_table
from repro.utils.timer import timed
from benchmarks.conftest import emit

ENGINE = "python"

CONFIGS = {
    "Match (none)": None,
    "minQ only": MatchPlusOptions(True, False, False, False),
    "centers only": MatchPlusOptions(False, False, False, True),
    "pruning only": MatchPlusOptions(False, False, True, True),
    "filter only": MatchPlusOptions(False, True, False, False),
    "Match+ (all)": MatchPlusOptions(True, True, True, True),
}


def test_ablation_optimizations(benchmark, scale):
    data = generate_graph(1200, alpha=1.2, num_labels=scale["labels"], seed=41)
    pattern = sample_pattern_from_data(data, 8, seed=601)
    assert pattern is not None

    reference = {
        sg.signature() for sg in match(pattern, data, engine=ENGINE)
    }
    times = {}
    for name, options in CONFIGS.items():
        if options is None:
            result, seconds = timed(lambda: match(pattern, data, engine=ENGINE))
        else:
            result, seconds = timed(
                lambda: match_plus(pattern, data, options, engine=ENGINE)
            )
        signatures = {sg.signature() for sg in result}
        assert signatures == reference, f"{name} changed the result"
        times[name] = seconds

    emit(
        "ablation_optimizations",
        render_table(
            "Ablation: Match+ optimizations (same output, different cost; "
            f"engine={ENGINE!r})",
            "config",
            list(times),
            {"seconds": list(times.values())},
        ),
    )
    # The full Match+ must beat plain Match.
    assert times["Match+ (all)"] <= times["Match (none)"]

    benchmark(lambda: match_plus(pattern, data, engine=ENGINE))
