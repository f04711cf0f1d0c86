"""Command-line interface: match patterns against graphs from files.

Usage (after ``pip install -e .``)::

    python -m repro match --data graph.json --pattern pattern.json
    python -m repro match --data graph.txt --pattern p.json \
        --algorithm sim --format edgelist
    python -m repro workload --data graph.json --queries stream.json \
        --workers 4
    python -m repro generate --kind amazon --nodes 1000 --out g.json
    python -m repro info --data graph.json

Graphs are read either from the JSON format of :mod:`repro.io.jsonio`
(default) or the labeled edge-list format of :mod:`repro.io.edgelist`.
Match results print a human-readable summary and can be dumped as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.digraph import DiGraph
from repro.core.engines import ENGINE_TABLE
from repro.core.kernel import ENGINES, resolve_engine
from repro.core.matchplus import match_plus
from repro.core.pattern import Pattern
from repro.core.ranking import rank_matches, score_match
from repro.core.strong import match
from repro.distributed.partition import PARTITIONERS
from repro.distributed.runtime import BACKENDS
from repro.io.edgelist import read_edgelist, write_edgelist
from repro.io.jsonio import (
    match_result_to_dict,
    pattern_from_dict,
    read_graph_json,
    write_graph_json,
)

ALGORITHMS = ("strong", "strong-plus", "dual", "sim", "bounded", "regular")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (match / distributed / workload)."""
    parser.add_argument(
        "--trace", nargs="?", const="-", default=None, metavar="FILE",
        help="enable structured tracing: prints the last query's phase "
             "breakdown after the run and, when FILE is given, writes "
             "the full JSON trace document there",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write a Prometheus-style text exposition of the metrics "
             "registry to FILE after the run",
    )


def _report_observability(args: argparse.Namespace, trace, metrics_out) -> None:
    from repro.obs import (
        QueryReport,
        collector,
        export_traces_json,
        render_prometheus,
    )

    if trace is not None:
        roots = collector().roots()
        if roots:
            print(f"trace: {len(roots)} root span(s) captured")
            print(QueryReport.from_span(roots[-1]).format())
        else:
            print("trace: no spans captured")
        if trace != "-":
            export_traces_json(roots, trace)
            print(f"trace JSON written to {trace}")
    if metrics_out:
        # The distributed command stashes its cluster-merged snapshot
        # (coordinator + worker processes); everything else exposes the
        # process-wide registry.
        snapshot = getattr(args, "_metrics_snapshot", None)
        with open(metrics_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(snapshot))
        print(f"metrics exposition written to {metrics_out}")


def _load_graph(path: str, fmt: str) -> DiGraph:
    if fmt == "edgelist":
        return read_edgelist(path)
    return read_graph_json(path)


def _load_pattern(path: str) -> Pattern:
    with open(path, "r", encoding="utf-8") as handle:
        return pattern_from_dict(json.load(handle))


def _print_relation(relation) -> int:
    if relation.is_empty():
        print("no match")
        return 1
    print(f"match relation with {len(relation)} pairs over "
          f"{len(relation.data_nodes())} data nodes:")
    for u in relation.pattern_nodes():
        images = sorted(map(str, relation.matches_of(u)))
        shown = ", ".join(images[:8]) + (" ..." if len(images) > 8 else "")
        print(f"  {u} -> {{{shown}}}")
    return 0


def _paths_spec(pattern: Pattern, path: Optional[str]):
    """Parse a --paths-spec file into (bounds, constraints, radius).

    The spec attaches hop bounds and regex constraints to pattern edges::

        {"edges": [{"source": "q0", "target": "q1", "bound": 2},
                   {"source": "q1", "target": "q2",
                    "regex": "M*", "bound": null}],
         "radius": 4}

    A present ``"bound": null`` means unbounded reachability (the ``*``
    of Fan et al.); an absent key leaves the algorithm's default (1 for
    plain edges).  Unlisted pattern edges stay direct edges.
    """
    bounds = {}
    constraints = {}
    radius = None
    if path is not None:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        for entry in payload.get("edges", []):
            edge = (entry["source"], entry["target"])
            if "bound" in entry:  # null is meaningful: unbounded
                bounds[edge] = entry["bound"]
            if "regex" in entry:
                constraints[edge] = entry["regex"]
        radius = payload.get("radius")
    return bounds, constraints, radius


def _cmd_match_paths(args: argparse.Namespace, data: DiGraph,
                     pattern: Pattern) -> int:
    """The path-semantics algorithms: bounded / regular matching."""
    from repro.core.bounded import BoundedPattern, bounded_simulation
    from repro.core.regular import RegularPattern, regular_strong_match
    from repro.exceptions import PatternError

    if args.engine == "numpy":
        print("path algorithms run on the reach-index kernel, not the "
              "numpy array engine; use --engine auto, python, or kernel")
        return 2
    try:
        bounds, constraints, radius = _paths_spec(pattern, args.paths_spec)
        if args.algorithm == "bounded":
            if constraints:
                print("regex constraints in the spec require "
                      "--algorithm regular")
                return 2
            relation = bounded_simulation(
                BoundedPattern(pattern, bounds), data, engine=args.engine
            )
            return _print_relation(relation)
        rpattern = RegularPattern(pattern, constraints, bounds)
        result = regular_strong_match(
            rpattern, data, radius=radius, engine=args.engine
        )
    except PatternError as exc:
        print(f"bad paths spec: {exc}")
        return 2
    if not result:
        print("no match")
        return 1
    print(f"{len(result)} perfect subgraph(s):")
    for subgraph in result:
        nodes = sorted(map(str, subgraph.graph.nodes()))
        preview = ", ".join(nodes[:10]) + (" ..." if len(nodes) > 10 else "")
        print(f"  center={subgraph.center!r} "
              f"|V|={subgraph.num_nodes} |E|={subgraph.num_edges}: "
              f"{{{preview}}}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(match_result_to_dict(result), handle, indent=2,
                      sort_keys=True)
        print(f"full result written to {args.out}")
    return 0


def _cmd_match(args: argparse.Namespace) -> int:
    data = _load_graph(args.data, args.format)
    pattern = _load_pattern(args.pattern)
    if args.algorithm in ("bounded", "regular"):
        return _cmd_match_paths(args, data, pattern)
    if args.paths_spec:
        print("--paths-spec only applies to --algorithm bounded|regular")
        return 2
    engine = resolve_engine(args.engine, data)

    if args.algorithm in ("sim", "dual"):
        row = ENGINE_TABLE[engine]
        cell = row.dual if args.algorithm == "dual" else row.sim
        return _print_relation(cell(pattern, data))

    if args.algorithm == "strong-plus":
        result = match_plus(pattern, data, engine=engine)
    else:
        result = match(pattern, data, engine=engine)
    if not result:
        print("no match")
        return 1
    print(f"{len(result)} perfect subgraph(s):")
    ranked = rank_matches(result)
    shown = ranked[: args.top] if args.top else ranked
    for subgraph in shown:
        score = score_match(result.pattern, subgraph)
        nodes = sorted(map(str, subgraph.graph.nodes()))
        preview = ", ".join(nodes[:10]) + (" ..." if len(nodes) > 10 else "")
        print(f"  score={score:.3f} center={subgraph.center!r} "
              f"|V|={subgraph.num_nodes} |E|={subgraph.num_edges}: "
              f"{{{preview}}}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(match_result_to_dict(result), handle, indent=2,
                      sort_keys=True)
        print(f"full result written to {args.out}")
    return 0


def _cmd_distributed(args: argparse.Namespace) -> int:
    from repro.distributed import (
        Cluster,
        crossing_ball_bound,
        process_backend_available,
    )

    data = _load_graph(args.data, args.format)
    pattern = _load_pattern(args.pattern)
    assignment = PARTITIONERS[args.partitioner](data, args.sites)
    backend = args.backend
    if backend == "processes" and not process_backend_available():
        print("the 'processes' backend is unavailable on this platform "
              "(no fork/forkserver/spawn support)")
        return 2
    repeat = max(1, args.repeat)
    cache_line = None
    with Cluster(
        data, assignment, args.sites, engine=args.engine, backend=backend,
    ) as cluster:
        if repeat == 1:
            report = cluster.run(pattern)
        else:
            # Route repeated runs through the cluster's result store:
            # run 1 pays the protocol, the rest replay the stored
            # report at the cluster's version vector.
            from repro.service import MatchService

            with MatchService(max_workers=2) as service:
                for _ in range(repeat):
                    report = service.query_distributed(pattern, cluster)
                cache_line = (
                    f"distributed cache: {service.stats.computed} computed, "
                    f"{service.stats.replayed} replayed over {repeat} runs "
                    f"(version vector {cluster.version})"
                )
        if getattr(args, "metrics_out", None):
            # Merge the worker processes' shipped snapshots while the
            # cluster is still alive; _report_observability writes it.
            args._metrics_snapshot = cluster.metrics_snapshot()

    print(f"{len(report.result)} perfect subgraph(s) across "
          f"{cluster.num_sites} site(s) [engine={args.engine}, "
          f"backend={backend}]")
    for site in sorted(report.per_site_subgraphs):
        count = report.per_site_subgraphs[site]
        fragment = cluster.workers[site].fragment
        print(f"  site {site}: |V|={fragment.num_nodes} "
              f"partial subgraphs={count}")
    kinds = report.bus.units_by_kind()
    print(f"traffic: {report.bus.total_messages} messages, "
          f"{report.bus.total_units} units "
          f"(query={kinds.get('query', 0)}, fetch={kinds.get('fetch', 0)}, "
          f"result={kinds.get('result', 0)})")
    print(f"data shipment (Sec. 4.3 accounted volume): "
          f"{report.data_shipment_units} units")
    if cache_line is not None:
        print(cache_line)
    if args.show_bound:
        bound = crossing_ball_bound(data, assignment, pattern.diameter)
        print(f"locality bound (boundary-crossing balls): {bound} units")
    return 0 if report.result else 1


#: Accepted spellings in workload streams -> service algorithm names.
#: The `match` subcommand calls the strong-simulation algorithms
#: "strong"/"strong-plus"; both vocabularies work here.
_WORKLOAD_ALGORITHM_ALIASES = {
    "strong": "match",
    "strong-plus": "match-plus",
}


def _cmd_workload(args: argparse.Namespace) -> int:
    """Replay a query-stream file against a :class:`MatchService`."""
    from repro.service import (
        SERVICE_ALGORITHMS,
        MatchService,
        Query,
        replay_workload,
    )

    data = _load_graph(args.data, args.format)
    with open(args.queries, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload["queries"] if isinstance(payload, dict) else payload

    queries = []
    for entry in entries:
        pattern = pattern_from_dict(entry["pattern"])
        name = entry.get("algorithm", "match-plus")
        algorithm = _WORKLOAD_ALGORITHM_ALIASES.get(name, name)
        if algorithm not in SERVICE_ALGORITHMS:
            known = sorted(
                set(SERVICE_ALGORITHMS) | set(_WORKLOAD_ALGORITHM_ALIASES)
            )
            print(f"unknown algorithm {name!r} in query stream; "
                  f"known: {', '.join(known)}")
            return 2
        for _ in range(int(entry.get("count", 1))):
            queries.append(Query(pattern, data, algorithm, args.engine))
    queries = queries * max(1, args.repeat)
    if not queries:
        print("empty query stream")
        return 1

    cache_size = 0 if args.no_cache else args.cache_size
    with MatchService(max_workers=args.workers, cache_size=cache_size) as svc:
        report, results = replay_workload(svc, queries)
        if getattr(args, "metrics_out", None):
            # Snapshot while the service is alive: its collector-backed
            # counters (service.*, cache.*) fold only live services.
            from repro.obs import get_registry

            args._metrics_snapshot = get_registry().snapshot()

    matched = sum(1 for r in results if len(r) > 0)
    print(f"served {report.queries} queries in {report.seconds:.3f}s "
          f"({report.throughput:.1f} q/s) on {args.workers} worker(s) "
          f"[engine={args.engine}]")
    print("algorithms: " + ", ".join(
        f"{name}={count}" for name, count in sorted(report.by_algorithm.items())
    ))
    print(f"non-empty results: {matched}/{report.queries}")
    cache = report.stats.cache
    if cache_size <= 0:  # --no-cache or an explicit --cache-size 0
        print("cache: disabled")
    else:
        print(f"cache: {cache.hits} hits / {cache.misses} misses "
              f"(hit rate {cache.hit_rate:.1%}), {cache.stores} stores, "
              f"{cache.invalidations} invalidations, "
              f"{cache.evictions} evictions")
    print(f"executed: {report.stats.computed} computed, "
          f"{report.stats.replayed} replayed from cache, "
          f"{report.stats.coalesced} coalesced in flight")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    """The scenario harness: list / run (see repro.scenarios)."""
    from repro.scenarios import (
        SCENARIOS,
        matrix_payload,
        render_cases,
        run_matrix,
    )

    if args.scenarios_command == "list":
        print(f"{'scenario':<22} {'kind':<12} {'scales':<14} cases")
        for manifest in SCENARIOS:
            scales = ",".join(manifest.scales)
            print(f"{manifest.name:<22} {manifest.kind:<12} {scales:<14} "
                  f"{len(manifest.cases())}")
            print(f"  {manifest.title}")
        return 0

    scale = "smoke" if args.smoke else args.scale
    try:
        cases = run_matrix(args.scenario or None, scale)
    except KeyError as exc:
        print(exc.args[0])
        return 2
    print(render_cases(cases))
    if args.out:
        from repro.utils.results import write_result

        write_result(args.out, matrix_payload(cases, scale))
        print(f"scenario report written to {args.out}")
    failed = [
        case for case in cases
        if case.skipped is None and case.digest_ok is False
    ]
    for case in failed:
        print(f"DIGEST MISMATCH {case.case_key}: expected "
              f"{case.expected_digest}, observed {case.digest}")
    return 1 if failed else 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "amazon":
        from repro.datasets import generate_amazon

        graph = generate_amazon(args.nodes, seed=args.seed)
    elif args.kind == "youtube":
        from repro.datasets import generate_youtube

        graph = generate_youtube(args.nodes, seed=args.seed)
    else:
        from repro.datasets import generate_graph

        graph = generate_graph(
            args.nodes, alpha=args.alpha, num_labels=args.labels,
            seed=args.seed,
        )
    if args.format == "edgelist":
        write_edgelist(graph, args.out)
    else:
        # JSON requires string/number node ids; generators use ints.
        write_graph_json(graph, args.out)
    print(f"wrote {graph.num_nodes} nodes / {graph.num_edges} edges "
          f"to {args.out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _load_graph(args.data, args.format)
    print(f"nodes:  {graph.num_nodes}")
    print(f"edges:  {graph.num_edges}")
    print(f"labels: {len(graph.label_set())}")
    from repro.core.components import connected_components

    components = connected_components(graph)
    print(f"connected components: {len(components)} "
          f"(largest {max(map(len, components)) if components else 0})")
    hist = graph.degree_histogram()
    top = sorted(hist.items(), key=lambda kv: -kv[0])[:5]
    print("top degrees:", ", ".join(f"{d}x{c}" for d, c in top))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    if not args.experiment:
        print("available experiments:")
        for name, renderer in sorted(EXPERIMENTS.items()):
            doc = (renderer.__doc__ or "").strip().splitlines()
            print(f"  {name:20s} {doc[0] if doc else ''}")
        return 0
    try:
        print(run_experiment(args.experiment, args.scale))
    except KeyError as exc:
        print(exc.args[0])
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Strong simulation for graph pattern matching "
                    "(Ma et al., VLDB 2011).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="match a pattern against a graph")
    p_match.add_argument("--data", required=True, help="data graph file")
    p_match.add_argument("--pattern", required=True, help="pattern JSON file")
    p_match.add_argument(
        "--algorithm", choices=ALGORITHMS, default="strong-plus",
        help="matching notion; 'bounded' and 'regular' are the path "
             "extensions (hop bounds / regex edge constraints, see "
             "--paths-spec) (default: strong-plus)",
    )
    p_match.add_argument(
        "--paths-spec",
        help="JSON file attaching hop bounds and regex constraints to "
             "pattern edges for --algorithm bounded|regular: "
             "{\"edges\": [{\"source\": ..., \"target\": ..., "
             "\"bound\": 2, \"regex\": \"a*\"}, ...], \"radius\": 4} "
             "(\"bound\": null = unbounded)",
    )
    p_match.add_argument(
        "--format", choices=("json", "edgelist"), default="json",
        help="data graph file format",
    )
    p_match.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="execution engine: 'kernel' compiles the data graph to a "
             "CSR integer index (fast), 'numpy' is the kernel with the "
             "strong-plus ball scan refined as batched array passes "
             "(needs numpy), 'python' forces the reference "
             "implementation, 'auto' picks for you (default: auto)",
    )
    p_match.add_argument("--top", type=int, default=0,
                         help="show only the k best-ranked matches")
    p_match.add_argument("--out", help="write the full result as JSON here")
    _add_obs_arguments(p_match)
    p_match.set_defaults(func=_cmd_match)

    p_dist = sub.add_parser(
        "distributed",
        help="match over a simulated partitioned cluster (Section 4.3)",
    )
    p_dist.add_argument("--data", required=True, help="data graph file")
    p_dist.add_argument("--pattern", required=True, help="pattern JSON file")
    p_dist.add_argument(
        "--format", choices=("json", "edgelist"), default="json",
        help="data graph file format",
    )
    p_dist.add_argument("--sites", type=int, default=4,
                        help="number of simulated sites (default: 4)")
    p_dist.add_argument(
        "--partitioner", choices=tuple(PARTITIONERS), default="bfs",
        help="node-to-site assignment strategy (default: bfs)",
    )
    p_dist.add_argument(
        "--engine", choices=ENGINES, default="auto",
        help="per-site execution engine: 'kernel' (and 'numpy', which "
             "runs the kernel at the sites) compiles each fragment to a "
             "CSR index extended with fetched remote records, 'python' "
             "forces the reference per-ball path; traffic accounting is "
             "identical in all cases (default: auto)",
    )
    p_dist.add_argument(
        "--show-bound", action="store_true",
        help="also compute and print the Section 4.3 locality bound "
             "(walks every boundary-crossing ball; slow on large graphs)",
    )
    p_dist.add_argument(
        "--backend", choices=BACKENDS, default="inproc",
        help="runtime substrate hosting the site workers: 'inproc' "
             "evaluates the sites serially in this interpreter (the "
             "reference), 'processes' runs one OS process per site "
             "(off-GIL, multi-core); the protocol observation is "
             "byte-identical across backends (default: inproc)",
    )
    p_dist.add_argument(
        "--repeat", type=int, default=1,
        help="run the query N times through the cluster's distributed "
             "result store: run 1 pays the Section 4.3 protocol, the "
             "rest replay the stored report at the cluster's version "
             "vector (default: 1, a plain run)",
    )
    _add_obs_arguments(p_dist)
    p_dist.set_defaults(func=_cmd_distributed)

    p_work = sub.add_parser(
        "workload",
        help="serve a query-stream file through the concurrent "
             "MatchService and report throughput + cache stats",
    )
    p_work.add_argument("--data", required=True, help="data graph file")
    p_work.add_argument(
        "--queries", required=True,
        help="query-stream JSON: {\"queries\": [{\"pattern\": <pattern "
             "dict>, \"algorithm\": \"match-plus\", \"count\": 1}, ...]}",
    )
    p_work.add_argument("--format", choices=("json", "edgelist"),
                        default="json", help="data graph file format")
    p_work.add_argument("--workers", type=int, default=4,
                        help="thread-pool width (default: 4)")
    p_work.add_argument("--engine", choices=ENGINES, default="auto",
                        help="execution engine (default: auto)")
    p_work.add_argument("--repeat", type=int, default=1,
                        help="replay the whole stream N times")
    p_work.add_argument("--cache-size", type=int, default=256,
                        help="result-cache LRU bound (default: 256)")
    p_work.add_argument("--no-cache", action="store_true",
                        help="disable the result cache (baseline mode)")
    _add_obs_arguments(p_work)
    p_work.set_defaults(func=_cmd_workload)

    p_scen = sub.add_parser(
        "scenarios",
        help="the manifest-driven scenario matrix: list it, or run it "
             "against the pinned result digests",
    )
    scen_sub = p_scen.add_subparsers(dest="scenarios_command", required=True)

    p_scen_list = scen_sub.add_parser(
        "list", help="list the seeded scenario manifests"
    )
    p_scen_list.set_defaults(func=_cmd_scenarios)

    p_scen_run = scen_sub.add_parser(
        "run",
        help="replay (part of) the matrix deterministically; exits "
             "nonzero when an observation digest misses its pinned value",
    )
    p_scen_run.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    p_scen_run.add_argument(
        "--scale", choices=("smoke", "S", "M"), default="S",
        help="scale to run every selected scenario at (default: S)",
    )
    p_scen_run.add_argument(
        "--smoke", action="store_true",
        help="shorthand for --scale smoke (the digest-gated CI matrix)",
    )
    p_scen_run.add_argument(
        "--out", metavar="FILE",
        help="write the per-case report JSON (shared result envelope) "
             "here",
    )
    p_scen_run.set_defaults(func=_cmd_scenarios)

    p_gen = sub.add_parser("generate", help="generate a dataset")
    p_gen.add_argument("--kind", choices=("synthetic", "amazon", "youtube"),
                       default="synthetic")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--alpha", type=float, default=1.2)
    p_gen.add_argument("--labels", type=int, default=200)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--format", choices=("json", "edgelist"),
                       default="json")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_info = sub.add_parser("info", help="summarize a graph file")
    p_info.add_argument("--data", required=True)
    p_info.add_argument("--format", choices=("json", "edgelist"),
                        default="json")
    p_info.set_defaults(func=_cmd_info)

    p_repro = sub.add_parser(
        "reproduce", help="regenerate a paper table/figure at small scale"
    )
    p_repro.add_argument("experiment", nargs="?",
                         help="experiment name (omit to list)")
    p_repro.add_argument("--scale", type=int, default=600,
                         help="base dataset size (default 600 nodes)")
    p_repro.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace is None and metrics_out is None:
        return args.func(args)
    from repro.obs import collector, set_tracing

    previous = None
    if trace is not None:
        collector().clear()  # the document should cover this run only
        previous = set_tracing(True)
    try:
        code = args.func(args)
    finally:
        if trace is not None:
            set_tracing(previous)
    _report_observability(args, trace, metrics_out)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
