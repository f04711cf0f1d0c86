"""Smoke tests: the example scripts must run and print their key claims.

Heavier examples (surrogate networks of thousands of nodes) are exercised
in a reduced form by importing their building blocks; the light ones run
end to end in a subprocess, as a user would run them.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

LIGHT_EXAMPLES = {
    "quickstart.py": ["Bio4", "strong simulation"],
    "query_optimization.py": [
        "Match+ ablation (engine='python')",
        "identical output: True",
    ],
    "regex_paths.py": ["regex constraint", "en1"],
    "streaming_updates.py": ["initial matches", "balls recomputed"],
    "concurrent_service.py": [
        "structurally identical: True",
        "entry retained",
        "entry invalidated, recomputed",
    ],
    "multiprocess_matching.py": [
        "result identical to centralized: True",
        "observation identical to in-process backend: True",
        "site indexes compiled once per worker process: True",
        "still compiled once after live updates: True",
    ],
    "scenario_run.py": [
        "digest matches the committed pin: True",
    ],
    "traced_query.py": [
        "merged per-site phase breakdown:",
        "distributed.run",
        "site.evaluate",
        "site spans merged into one trace: [0, 1, 2]",
        "trace bus log identical to protocol log: True",
        "bus units by kind (metrics registry):",
    ],
}


@pytest.mark.parametrize("script,expected", sorted(LIGHT_EXAMPLES.items()))
def test_light_example_runs(script, expected):
    if script == "multiprocess_matching.py":
        from repro.distributed import process_backend_available

        if not process_backend_available():
            pytest.skip("platform cannot host the process runtime")
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert completed.returncode == 0, completed.stderr
    for fragment in expected:
        assert fragment in completed.stdout


def test_distributed_example_runs():
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "distributed_matching.py")],
        capture_output=True,
        text=True,
        timeout=420,
    )
    assert completed.returncode == 0, completed.stderr
    assert "result identical to centralized: True" in completed.stdout


def test_heavy_examples_importable_building_blocks():
    """The two surrogate case studies at reduced scale."""
    from repro.core.matchplus import match_plus
    from repro.datasets import generate_amazon, generate_youtube
    from repro.datasets.paper_figures import pattern_qa, pattern_qy

    amazon = generate_amazon(400, num_labels=20, seed=2024)
    assert match_plus(pattern_qa(), amazon) is not None
    youtube = generate_youtube(400, num_labels=15, seed=77)
    assert match_plus(pattern_qy(), youtube) is not None
