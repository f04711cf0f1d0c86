"""Re-checks the sizing observations the workloads were chosen on.

Run from the root of a checkout::

    python3 perfbench/sizing.py --seed 11 --seconds 10

It reuses the benchmark's inputs and closed loop and prints three checks
(``perfbench/README.md`` records their outcome):

1. ``auto`` vs a forced ``kernel`` engine on serve-mixed and on
   strong-heavy (the routing gap should show on the first only);
2. ``ReachIndex`` build time at |V| = 600, 1000 and 2500;
3. warm bounded queries on the kernel vs the python reference at
   |V| = 1000.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.bounded import bounded_simulation  # noqa: E402
from repro.core.reach import get_reach_index  # noqa: E402
from repro.datasets import generate_graph  # noqa: E402
from repro.service import executor  # noqa: E402


def engine_gap(name: str, seed: int, seconds: float) -> None:
    resolve = executor.resolve_engine
    for engine in ("auto", "kernel"):
        workload = workloads.get_workload(name)
        inputs = workload.make_inputs(seed)
        # Route the service's "auto" to ``engine`` for this run only.
        executor.resolve_engine = lambda e, data=None: resolve(
            engine if e == "auto" else e, data
        )
        try:
            result = run.measure(workload, inputs, seconds)
        finally:
            executor.resolve_engine = resolve
        rows = run.end_to_end(result, workload)
        print(f"  {name:<13} engine={engine:<7} "
              f"throughput {rows['throughput_qps'][0]:8.1f} q/s  "
              f"p50 {rows['query_p50_ms'][0]:8.3f} ms")


def reach_growth(seed: int) -> None:
    for nodes in (600, 1000, 2500):
        graph = generate_graph(nodes, alpha=1.2, num_labels=20, seed=seed)
        started = perf_counter()
        get_reach_index(graph)
        print(f"  reach build |V|={nodes:<5} {perf_counter() - started:8.3f} s")


def warm_bounded(seed: int) -> None:
    workload = workloads.get_workload("paths-mixed")
    inputs = workload.make_inputs(seed)
    graph = inputs.graph.copy()
    get_reach_index(graph)
    bounded = inputs.patterns[: workload.spec.pool]
    for engine in ("kernel", "python"):
        costs = []
        for pattern in bounded:
            started = perf_counter()
            bounded_simulation(pattern, graph, engine=engine)
            costs.append(perf_counter() - started)
        print(f"  warm bounded engine={engine:<7} "
              f"mean {statistics.fmean(costs) * 1e3:8.3f} ms over "
              f"{len(costs)} patterns")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    print("1. auto routing vs the kernel")
    for name in ("serve-mixed", "strong-heavy"):
        engine_gap(name, args.seed, args.seconds)
    print("2. reach index build growth")
    reach_growth(args.seed)
    print("3. warm bounded: kernel vs reference")
    warm_bounded(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
