"""Exp-2 harness — running time of the centralized algorithms (Figure 8).

Times ``Sim`` (graph simulation), ``Match`` (unoptimized strong
simulation), ``Match+`` (all optimizations) and — on small inputs only —
``VF2``, along the four axes the paper sweeps: pattern size ``|Vq|``,
pattern density ``αq``, data size ``|V|`` and data density ``α``.

Beyond the paper's static sweeps, :func:`time_update_workload` times a
stream of updates with a ``Match+`` requery after each and reports
*amortized per-update latency* per index-maintenance strategy
(incremental-kernel / recompile-kernel / reference), registered as the
``incremental-updates`` experiment.

The absolute numbers are pure-Python and smaller-scale than the paper's;
EXPERIMENTS.md records the *shape* comparisons the paper makes: VF2 is
orders of magnitude slower and blows up with size; Match+ runs at roughly
2/3 of Match; Sim is fastest; everything but VF2 scales smoothly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.vf2 import vf2
from repro.core.digraph import DiGraph, Node
from repro.core.kernel import get_index, index_maintenance
from repro.core.matchplus import match_plus
from repro.core.pattern import Pattern
from repro.core.simulation import graph_simulation
from repro.core.strong import match
from repro.utils.timer import timed

PERF_ALGORITHMS = ("Sim", "Match", "Match+", "VF2")

#: The execution strategies the update workload compares.
UPDATE_STRATEGIES = ("incremental-kernel", "recompile-kernel", "reference")


@dataclass
class TimingRun:
    """Wall-clock seconds per algorithm for one (pattern, data) pair.

    ``None`` marks an algorithm that was skipped (e.g. VF2 on large data,
    exactly as the paper skips it in Figures 8(c)/(d)/(g)/(h)).
    """

    pattern_size: int
    data_size: int
    seconds: Dict[str, Optional[float]]


def time_algorithms(
    pattern: Pattern,
    data: DiGraph,
    include_vf2: bool = False,
    vf2_max_states: int = 2_000_000,
    vf2_max_matches: int = 20_000,
) -> TimingRun:
    """Time Sim / Match / Match+ (and optionally VF2) on one pair.

    Sim, Match and Match+ all run on the ``python`` reference engine:
    Fig. 8 compares algorithms, and on a compiled engine ``match`` runs
    the ``Match+`` core, so its two columns would time one algorithm.
    """
    seconds: Dict[str, Optional[float]] = {}
    _, seconds["Sim"] = timed(
        lambda: graph_simulation(pattern, data, engine="python")
    )
    _, seconds["Match"] = timed(lambda: match(pattern, data, engine="python"))
    _, seconds["Match+"] = timed(
        lambda: match_plus(pattern, data, engine="python")
    )
    if include_vf2:
        _, seconds["VF2"] = timed(
            lambda: vf2(
                pattern,
                data,
                max_matches=vf2_max_matches,
                max_states=vf2_max_states,
            )
        )
    else:
        seconds["VF2"] = None
    return TimingRun(pattern.num_nodes, data.num_nodes, seconds)


def random_insertion_stream(
    data: DiGraph, count: int, seed: int = 5
) -> List[Tuple[Node, Node]]:
    """``count`` distinct edges absent from ``data``, reproducibly.

    The one edge-stream generator shared by the update-workload
    experiment, the ``bench_kernel`` incremental section and tests, so
    all three time the same kind of stream.
    """
    rng = random.Random(seed)
    nodes = list(data.nodes())
    seen = set(data.edges())
    absent = len(nodes) * len(nodes) - len(seen)
    if count > absent:
        raise ValueError(
            f"cannot draw {count} absent edges: only {absent} ordered "
            "pairs (including self-loops) are missing from the graph"
        )
    stream: List[Tuple[Node, Node]] = []
    while len(stream) < count:
        source, target = rng.choice(nodes), rng.choice(nodes)
        if (source, target) not in seen:
            seen.add((source, target))
            stream.append((source, target))
    return stream


@dataclass
class UpdateWorkloadRun:
    """Amortized timing of one update+requery stream.

    ``seconds`` / ``amortized_seconds`` map each strategy in
    :data:`UPDATE_STRATEGIES` to its total and per-update wall-clock;
    ``full_compiles`` records how many from-scratch index compilations
    the incremental-kernel strategy performed *after* priming (zero for
    a pure-insertion stream — the point of the mutation pipeline).
    ``final_results`` holds each strategy's last query result in
    canonical form; :meth:`results_identical` is the equivalence gate.
    """

    data_size: int
    pattern_size: int
    num_updates: int
    seconds: Dict[str, float]
    amortized_seconds: Dict[str, float]
    full_compiles: int
    final_results: Dict[str, object]

    def results_identical(self) -> bool:
        """True iff every strategy ended on the same canonical result."""
        values = list(self.final_results.values())
        return all(value == values[0] for value in values[1:])


def _canonical_match_result(result) -> frozenset:
    return frozenset(
        (sg.signature(), sg.relation.pair_set()) for sg in result
    )


def time_update_workload(
    pattern: Pattern,
    data: DiGraph,
    updates: Sequence[Tuple[Node, Node]],
    query: Optional[Callable[[Pattern, DiGraph, str], object]] = None,
    canonicalize: Optional[Callable[[object], object]] = None,
) -> UpdateWorkloadRun:
    """Time an edge-insertion stream with a requery after every update.

    Each strategy runs on its own copy of ``data``: the
    ``incremental-kernel`` strategy keeps one warm, delta-maintained
    index; ``recompile-kernel`` disables maintenance so every requery
    recompiles; ``reference`` runs the pure-Python engine.  ``query``
    defaults to ``match_plus`` (with ``canonicalize`` defaulting to the
    signature/relation canonical form); a custom callable receives
    ``(pattern, data, engine)``.  The priming query is excluded from the
    timing, so the numbers are pure update+requery cost.
    """
    if query is None:
        query = lambda q, g, engine: match_plus(q, g, engine=engine)
        if canonicalize is None:
            canonicalize = _canonical_match_result
    if canonicalize is None:
        canonicalize = lambda result: result
    seconds: Dict[str, float] = {}
    final_results: Dict[str, object] = {}
    full_compiles = 0
    for strategy in UPDATE_STRATEGIES:
        graph = data.copy()
        engine = "python" if strategy == "reference" else "kernel"
        maintain = strategy != "recompile-kernel"
        with index_maintenance(maintain):
            query(pattern, graph, engine)  # prime outside the clock
            primed_compiles = (
                get_index(graph).stats.full_compiles
                if engine == "kernel" and maintain
                else 0
            )
            last: List[object] = [None]

            def run() -> None:
                for source, target in updates:
                    graph.add_edge(source, target)
                    last[0] = query(pattern, graph, engine)

            _, seconds[strategy] = timed(run)
            final_results[strategy] = canonicalize(last[0])
            if engine == "kernel" and maintain:
                full_compiles = (
                    get_index(graph).stats.full_compiles - primed_compiles
                )
    num_updates = max(1, len(updates))
    return UpdateWorkloadRun(
        data_size=data.num_nodes,
        pattern_size=pattern.num_nodes,
        num_updates=len(updates),
        seconds=seconds,
        amortized_seconds={
            name: total / num_updates for name, total in seconds.items()
        },
        full_compiles=full_compiles,
        final_results=final_results,
    )


@dataclass
class TimingSweep:
    """A series of timing runs along one swept axis."""

    axis_name: str
    axis_values: List[float] = field(default_factory=list)
    runs: List[TimingRun] = field(default_factory=list)

    def add(self, axis_value: float, run: TimingRun) -> None:
        """Append one sweep point."""
        self.axis_values.append(axis_value)
        self.runs.append(run)

    def series(self) -> Dict[str, List[Optional[float]]]:
        """Per-algorithm seconds along the axis (the Fig. 8 series)."""
        return {
            name: [run.seconds.get(name) for run in self.runs]
            for name in PERF_ALGORITHMS
        }

    def speedup_match_plus(self) -> List[float]:
        """Per-point ``time(Match+) / time(Match)`` — the paper reports
        a consistent ≈ 2/3 ratio (a ≥ 33% reduction)."""
        ratios: List[float] = []
        for run in self.runs:
            match_time = run.seconds.get("Match")
            plus_time = run.seconds.get("Match+")
            if match_time and plus_time and match_time > 0:
                ratios.append(plus_time / match_time)
        return ratios


def sweep_timing(
    axis_name: str,
    axis_values: Sequence[float],
    pair_for_value: Callable[[float, int], Optional[tuple]],
    include_vf2: bool = False,
    repeats: int = 1,
    **time_kwargs,
) -> TimingSweep:
    """Generic Exp-2 sweep.

    ``pair_for_value(value, repeat_index)`` returns ``(pattern, data)``
    for one sweep point (or ``None`` to skip it).  With ``repeats > 1``
    each point is timed several times and the mean is recorded, matching
    the paper's "each test was repeated over 5 times" protocol.
    """
    sweep = TimingSweep(axis_name=axis_name)
    for value in axis_values:
        accumulated: Dict[str, List[float]] = {}
        pattern_size = data_size = 0
        produced = False
        for repeat in range(repeats):
            pair = pair_for_value(value, repeat)
            if pair is None:
                continue
            pattern, data = pair
            run = time_algorithms(
                pattern, data, include_vf2=include_vf2, **time_kwargs
            )
            produced = True
            pattern_size, data_size = run.pattern_size, run.data_size
            for name, sec in run.seconds.items():
                if sec is not None:
                    accumulated.setdefault(name, []).append(sec)
        if not produced:
            continue
        averaged: Dict[str, Optional[float]] = {
            name: (sum(vals) / len(vals)) for name, vals in accumulated.items()
        }
        for name in PERF_ALGORITHMS:
            averaged.setdefault(name, None)
        sweep.add(value, TimingRun(pattern_size, data_size, averaged))
    return sweep
