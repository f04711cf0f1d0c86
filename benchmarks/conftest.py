"""Shared configuration for the benchmark harness.

Every table and figure of the paper's Section 5 maps to one module here
(see DESIGN.md §3).  Scales are controlled by ``REPRO_BENCH_SCALE``:

* ``small``  (default) — minutes on a laptop; all shapes hold;
* ``large``  — closer to the paper's regime; tens of minutes.

Each module renders its table/figure with the same rows/series the paper
reports, prints it, and appends it to ``benchmarks/results/<name>.txt``
so the rendered artifacts survive pytest's output capture.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

import pytest

from repro.datasets import generate_amazon, generate_graph, generate_youtube
from repro.experiments import sweep_pattern_sizes, sweep_data_sizes
from repro.utils.results import RESULT_SCHEMA_VERSION, write_result

RESULTS_DIR = Path(__file__).parent / "results"

_SCALES = {
    "small": {
        "amazon_nodes": 1500,
        "youtube_nodes": 1200,
        "synthetic_nodes": 2500,
        "labels": 20,
        "vq_sweep": [2, 4, 6, 8, 10, 12],
        "amazon_v_sweep": [300, 600, 900, 1200, 1500],
        "youtube_v_sweep": [200, 400, 600, 800, 1000],
        "synthetic_v_sweep": [500, 1000, 1500, 2000, 2500],
        "perf_synthetic_nodes": 4000,
        "perf_v_sweep": [1000, 2000, 3000, 4000],
        "alpha_sweep": [1.05, 1.10, 1.15, 1.20, 1.25],
        "vf2_max_states": 400_000,
    },
    "large": {
        "amazon_nodes": 8000,
        "youtube_nodes": 5000,
        "synthetic_nodes": 20000,
        "labels": 50,
        "vq_sweep": [2, 4, 6, 8, 10, 12, 14, 16, 18, 20],
        "amazon_v_sweep": [1000, 2000, 4000, 6000, 8000],
        "youtube_v_sweep": [1000, 2000, 3000, 4000, 5000],
        "synthetic_v_sweep": [4000, 8000, 12000, 16000, 20000],
        "perf_synthetic_nodes": 20000,
        "perf_v_sweep": [5000, 10000, 15000, 20000],
        "alpha_sweep": [1.05, 1.10, 1.15, 1.20, 1.25, 1.30, 1.35],
        "vf2_max_states": 2_000_000,
    },
}


@pytest.fixture(scope="session")
def scale() -> Dict:
    """The active scale profile."""
    name = os.environ.get("REPRO_BENCH_SCALE", "small")
    if name not in _SCALES:
        raise ValueError(f"unknown REPRO_BENCH_SCALE {name!r}")
    return _SCALES[name]


def best_of(fn: Callable[[], object], reps: int = 3) -> float:
    """Minimum wall-clock seconds over ``reps`` runs of ``fn``.

    The one timing loop shared by every benchmark module, so a change
    to the measurement protocol (warm-up, clock source) lands once.
    """
    import time

    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def emit(name: str, text: str, payload: Optional[Dict] = None) -> None:
    """Print a rendered table and persist it under benchmarks/results/.

    Persists twice: the rendered text as ``<name>.txt`` (the historical
    artifact) and a machine-readable ``BENCH_<name>.json`` in the shared
    :func:`repro.utils.results.result_envelope`, which records the host
    that produced the numbers.  ``payload`` adds structured fields next
    to the rendered text when a module has them.
    """
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    data: Dict = {"benchmark": name, "rendered": text}
    if payload:
        data.update(payload)
    write_result(RESULTS_DIR / f"BENCH_{name}.json", data)


def emit_result(name: str, payload: Dict) -> Path:
    """Write one ``BENCH_*.json`` result with the shared envelope.

    Thin wrapper over :func:`repro.utils.results.write_result` (where
    the envelope — ``schema_version``, ``host`` block, ``generated_at``
    — lives, shared with ``repro scenarios run --out``), so the
    benchmark modules keep their one-name emission call.
    """
    return write_result(RESULTS_DIR / f"{name}.json", payload)


# ----------------------------------------------------------------------
# Session-scoped datasets (generated once per benchmark session)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def amazon_graph(scale):
    return generate_amazon(scale["amazon_nodes"], num_labels=scale["labels"], seed=11)


@pytest.fixture(scope="session")
def youtube_graph(scale):
    return generate_youtube(scale["youtube_nodes"], num_labels=15, seed=13)


@pytest.fixture(scope="session")
def synthetic_graph(scale):
    return generate_graph(
        scale["synthetic_nodes"], alpha=1.2, num_labels=scale["labels"], seed=17
    )


# ----------------------------------------------------------------------
# Session-scoped quality sweeps, shared by the closeness / subgraph-count
# / Table 3 modules so each sweep runs once.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def vq_sweeps(scale, amazon_graph, youtube_graph, synthetic_graph):
    """Vary |Vq| on the three datasets (Fig. 7(c)-(e) and 7(i)-(k))."""
    kwargs = {"vf2_max_states": scale["vf2_max_states"]}
    return {
        "Amazon": sweep_pattern_sizes(amazon_graph, scale["vq_sweep"], seed=101, **kwargs),
        "YouTube": sweep_pattern_sizes(youtube_graph, scale["vq_sweep"], seed=103, **kwargs),
        "Synthetic": sweep_pattern_sizes(synthetic_graph, scale["vq_sweep"], seed=107, **kwargs),
    }


@pytest.fixture(scope="session")
def v_sweeps(scale):
    """Vary |V| on the three datasets (Fig. 7(f)-(h) and 7(l)-(n))."""
    kwargs = {"vf2_max_states": scale["vf2_max_states"]}
    labels = scale["labels"]
    return {
        "Amazon": sweep_data_sizes(
            lambda n: generate_amazon(n, num_labels=labels, seed=11),
            scale["amazon_v_sweep"], pattern_size=10, seed=201, **kwargs,
        ),
        "YouTube": sweep_data_sizes(
            lambda n: generate_youtube(n, num_labels=15, seed=13),
            scale["youtube_v_sweep"], pattern_size=10, seed=203, **kwargs,
        ),
        "Synthetic": sweep_data_sizes(
            lambda n: generate_graph(n, alpha=1.2, num_labels=labels, seed=17),
            scale["synthetic_v_sweep"], pattern_size=10, seed=207, **kwargs,
        ),
    }
