"""Command-line interface: ``esd`` (or ``python -m repro.cli``).

Subcommands
-----------
``stats``        Table-I statistics of an edge-list file or named dataset.
``topk``         Top-k edge search (online / exact); ``--metric`` picks an
                 offline baseline ranking instead (truss / betweenness /
                 betweenness_global / common_neighbors).
``build-index``  Build an ESDIndex and save it to disk.
``query``        Query a saved ESDIndex.
``serve``        Long-lived query service over a maintained index (TCP/JSON);
                 with ``--data-dir`` it is durable (snapshot + WAL, crash
                 recovery on restart); ``--trace`` emits JSONL spans.
``cluster``      Replicated serving tier (docs/CLUSTER.md): ``cluster start``
                 boots a writer + N replicas + router; ``cluster status``
                 queries a running router; ``cluster writer`` / ``cluster
                 replica`` run one node (normally spawned by ``start``).
``profile``      Trace one build+query+update+persist cycle on a graph and
                 print the per-stage breakdown (docs/OBSERVABILITY.md).
``fsck``         Validate a ``--data-dir`` offline (checksums, WAL replay).
``bench``        Run one of the paper's experiments and print its table;
                 ``bench regress`` runs the pinned perf-regression suite
                 (docs/PERFORMANCE.md) and writes a BENCH_*.json record.
``load``         Open-loop load harness (docs/BENCHMARKS.md): ``load run``
                 drives one offered-rate trial against a running server,
                 ``load sweep`` bisects for the SLO knee and writes
                 BENCH_PR8.json, ``load report`` renders a saved record.

Graph-taking subcommands accept ``--kernels {csr,set}`` to pick the
compute-kernel mode explicitly (default: ``ESD_KERNELS`` or ``csr``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core import (
    ESDIndex,
    build_index_fast,
    topk_exact,
    topk_online,
    topk_ordering,
    topk_vertex_online,
)
from repro.graph import Graph, graph_stats, load_dataset, read_edge_list
from repro.graph.datasets import DATASET_NAMES


def _load_graph(args: argparse.Namespace) -> Graph:
    """Resolve the --graph/--dataset pair into a Graph."""
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    if args.graph:
        return read_edge_list(args.graph)
    raise SystemExit("error: provide --graph FILE or --dataset NAME")


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="edge-list file (SNAP format)")
    parser.add_argument(
        "--dataset", choices=DATASET_NAMES,
        help="named synthetic stand-in dataset",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (default 1.0)",
    )
    parser.add_argument(
        "--kernels", choices=["csr", "set"],
        help="compute-kernel mode: 'csr' (interned array/bitset kernels, "
        "the default) or 'set' (reference dict-of-set paths); overrides "
        "the ESD_KERNELS environment variable",
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    stats = graph_stats(graph)
    print(f"n                {stats.n}")
    print(f"m                {stats.m}")
    print(f"d_max            {stats.d_max}")
    print(f"degeneracy       {stats.degeneracy}")
    print(f"arboricity       [{stats.arboricity_lower}, {stats.arboricity_upper}]")
    print(f"avg degree       {stats.average_degree:.2f}")
    print(f"components       {stats.components}")
    return 0


#: ``esd topk --metric`` choices: the paper's ``esd`` plus the offline
#: baselines of :data:`repro.analytics.rankings.EDGE_RANKINGS`.
_TOPK_METRICS = [
    "betweenness", "betweenness_global", "common_neighbors", "esd", "truss",
]


def _cmd_topk(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    start = time.perf_counter()
    if args.metric != "esd":
        # The baselines rank the whole graph once; the esd path below
        # keeps its online/ordering/exact algorithms.
        if args.target == "vertex":
            raise SystemExit(
                "error: --target vertex is only defined for --metric esd"
            )
        from repro.analytics.rankings import EDGE_RANKINGS

        results = EDGE_RANKINGS[args.metric](graph, args.k)
        elapsed = time.perf_counter() - start
        for (u, v), score in results:
            print(f"{u}\t{v}\t{score}")
        print(f"# {args.metric} search: {elapsed:.4f}s", file=sys.stderr)
        return 0
    if args.target == "vertex":
        vertex_results = topk_vertex_online(graph, args.k, args.tau)
        elapsed = time.perf_counter() - start
        for v, score in vertex_results:
            print(f"{v}\t{score}")
        print(f"# vertex search: {elapsed:.4f}s", file=sys.stderr)
        return 0
    if args.method == "online":
        results = topk_online(graph, args.k, args.tau, bound=args.bound)
    elif args.method == "ordering":
        results = topk_ordering(graph, args.k, args.tau, bound=args.bound)
    else:
        results = topk_exact(graph, args.k, args.tau)
    elapsed = time.perf_counter() - start
    for (u, v), score in results:
        print(f"{u}\t{v}\t{score}")
    print(f"# {args.method} search: {elapsed:.4f}s", file=sys.stderr)
    return 0


def _cmd_build_index(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    start = time.perf_counter()
    index = build_index_fast(graph)
    elapsed = time.perf_counter() - start
    index.save(args.output)
    print(
        f"index built in {elapsed:.2f}s: {index.edge_count} edges, "
        f"{index.entry_count} entries, C={index.size_classes} -> {args.output}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = ESDIndex.load(args.index)
    start = time.perf_counter()
    results = index.topk(args.k, args.tau)
    elapsed = time.perf_counter() - start
    for (u, v), score in results:
        print(f"{u}\t{v}\t{score}")
    print(f"# index query: {elapsed * 1000:.3f}ms", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.service import ESDServer, ServerConfig

    trace_sink = None
    if args.trace:
        from repro.obs import JsonlSink, TRACER
        from repro.obs.sinks import stderr_sink

        trace_sink = stderr_sink() if args.trace == "-" else JsonlSink(args.trace)
        TRACER.configure(trace_sink)
    # With a recoverable data dir, the graph flags are only a bootstrap
    # fallback; without one, they are required as before.
    graph = None
    have_snapshot = args.data_dir and os.path.exists(
        os.path.join(args.data_dir, "snapshot.esd")
    )
    if args.dataset or args.graph or not have_snapshot:
        graph = _load_graph(args)
    server = ESDServer(
        graph,
        ServerConfig(
            host=args.host,
            port=args.port,
            max_pending=args.max_pending,
            queue_timeout=args.queue_timeout,
            cache_size=args.cache_size,
            data_dir=args.data_dir,
            snapshot_interval=args.snapshot_interval,
            fsync=not args.no_fsync,
            slow_query_threshold=args.slow_query_ms / 1000.0,
            slow_log_capacity=args.slow_log_capacity,
            invariant_check_interval=args.check_invariants_every,
        ),
    )
    if server.recovery is not None:
        r = server.recovery
        mode = "bootstrapped" if r.bootstrapped else "recovered"
        print(
            f"esd serve: {mode} data dir {args.data_dir} "
            f"(snapshot v{r.snapshot_version}, replayed {r.records_replayed} "
            f"WAL records, version {r.final_version})",
            flush=True,
        )
    host, port = server.address
    live = server.engine.dynamic_index.graph
    print(
        f"esd serve: listening on {host}:{port} "
        f"(n={live.n}, m={live.m}, max_pending={args.max_pending})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("esd serve: interrupted, shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        if trace_sink is not None:
            from repro.obs import TRACER

            TRACER.disable()
            close = getattr(trace_sink, "close", None)
            if close is not None:
                close()
    return 0


def _cmd_cluster_writer(args: argparse.Namespace) -> int:
    import os

    from repro.cluster import WriterConfig, WriterNode

    graph = None
    have_snapshot = args.data_dir and os.path.exists(
        os.path.join(args.data_dir, "snapshot.esd")
    )
    if args.dataset or args.graph or not have_snapshot:
        graph = _load_graph(args)
    writer = WriterNode(
        graph,
        WriterConfig(
            host=args.host,
            port=args.port,
            repl_host=args.host,
            repl_port=args.repl_port,
            data_dir=args.data_dir,
            snapshot_interval=args.snapshot_interval,
            fsync=not args.no_fsync,
        ),
    )
    host, port = writer.address
    print(f"esd cluster-writer: listening on {host}:{port}", flush=True)
    repl_host, repl_port = writer.repl_address
    print(
        f"esd cluster-writer: replicating on {repl_host}:{repl_port}",
        flush=True,
    )
    try:
        writer.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        writer.shutdown()
    return 0


def _cmd_cluster_replica(args: argparse.Namespace) -> int:
    from repro.cluster import ReplicaConfig, ReplicaNode

    replica = ReplicaNode(
        ReplicaConfig(
            writer_host=args.writer_host,
            writer_repl_port=args.writer_repl_port,
            host=args.host,
            port=args.port,
            name=args.name,
        )
    )
    host, port = replica.address
    print(
        f"esd cluster-replica[{args.name}]: listening on {host}:{port}",
        flush=True,
    )
    try:
        replica.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        replica.shutdown()
    return 0


def _cmd_cluster_start(args: argparse.Namespace) -> int:
    import signal

    from repro.cluster import ClusterConfig, ClusterSupervisor

    writer_args: List[str] = []
    if args.dataset:
        writer_args += ["--dataset", args.dataset, "--scale", str(args.scale)]
    if args.graph:
        writer_args += ["--graph", args.graph]
    if args.data_dir:
        writer_args += ["--data-dir", args.data_dir]
    if args.no_fsync:
        writer_args.append("--no-fsync")
    supervisor = ClusterSupervisor(
        ClusterConfig(
            replicas=args.replicas,
            host=args.host,
            router_port=args.port,
            writer_args=writer_args,
            max_lag=args.max_lag,
        )
    )
    # A supervisor that dies must take its children with it: translate
    # SIGTERM into the same clean teardown as Ctrl-C.
    def _terminate(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    supervisor.start()
    host, port = supervisor.writer_address
    print(f"esd cluster: writer on {host}:{port}", flush=True)
    for name, (rhost, rport) in supervisor.replica_addresses.items():
        print(f"esd cluster: {name} on {rhost}:{rport}", flush=True)
    host, port = supervisor.address
    print(f"esd cluster: listening on {host}:{port}", flush=True)
    try:
        supervisor.serve_forever()
    except KeyboardInterrupt:
        print("esd cluster: interrupted, shutting down", file=sys.stderr)
    finally:
        supervisor.stop()
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json
    import socket

    with socket.create_connection(
        (args.host, args.port), timeout=args.timeout
    ) as sock:
        sock.sendall(b'{"op": "cluster-status"}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    response = json.loads(data.decode("utf-8"))
    if not response.get("ok"):
        print(json.dumps(response, indent=2, sort_keys=True))
        return 2
    print(json.dumps(response["result"], indent=2, sort_keys=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import profile_cycle

    graph = _load_graph(args)
    report = profile_cycle(
        graph,
        k=args.k,
        tau=args.tau,
        repeat=args.repeat,
        updates=args.updates,
    )
    print(report.render())
    if args.trace_out:
        import json

        with open(args.trace_out, "w", encoding="ascii") as handle:
            for record in report.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(
            f"# {len(report.records)} spans -> {args.trace_out}",
            file=sys.stderr,
        )
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.persistence.fsck import fsck_data_dir

    report = fsck_data_dir(args.data_dir, deep=args.deep)
    print(report.render())
    if not report.ok:
        return 2
    if report.warnings:
        return 1
    return 0


#: experiment name -> runner (lazy import keeps CLI startup fast).
_BENCH_NAMES = [
    "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "tau-sensitivity", "link-prediction", "ablation",
    "service", "regress",
]


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import experiments, harness

    if args.experiment == "regress":
        from pathlib import Path

        from repro.bench import regress

        _payload, tables, exit_code = regress.run_and_persist(
            quick=args.quick,
            output=Path(args.output) if args.output else None,
            baseline=Path(args.baseline) if args.baseline else None,
            tolerance=args.tolerance,
            metric=args.metric,
            require_floors=args.require_floors,
        )
        print("\n\n".join(t.render() for t in tables))
        if exit_code:
            failures = list(
                _payload.get("comparison", {}).get("regressions", ())
            )
            if args.require_floors:
                failures += [
                    f"{name} (floor)"
                    for name in _payload.get("floor_failures", ())
                ]
            print("REGRESSION: " + ", ".join(failures), file=sys.stderr)
        return exit_code

    runners = {
        "table1": lambda: experiments.run_table1(args.scale),
        "fig5": lambda: experiments.run_exp1_fig5(args.scale),
        "fig6": lambda: experiments.run_exp2_fig6(args.scale),
        "fig7": lambda: experiments.run_exp3_fig7(args.scale),
        "fig8": lambda: experiments.run_exp4_fig8(args.scale),
        "fig9": lambda: experiments.run_exp5_fig9(args.scale),
        "fig10": lambda: experiments.run_exp5_fig10(args.scale),
        "fig11": lambda: experiments.run_exp6_fig11(args.scale),
        "fig12": experiments.run_exp7_fig12,
        "fig13": experiments.run_exp8_fig13,
        "tau-sensitivity": lambda: experiments.run_tau_sensitivity(args.scale),
        "link-prediction": lambda: experiments.run_link_prediction(args.scale),
        "ablation": lambda: experiments.run_ablation(args.scale),
        "service": lambda: experiments.run_service_bench(args.scale),
    }
    tables = runners[args.experiment]()
    print("\n\n".join(t.render() for t in tables))
    harness.save_tables(args.experiment.replace("-", "_"), tables)
    return 0


def _cmd_load_run(args: argparse.Namespace) -> int:
    import json

    from repro.loadgen import runner

    summary, prometheus = runner.run_with_scrapes(
        args.host,
        args.port,
        scenario=args.scenario,
        rate=args.rate,
        duration=args.duration,
        workers=args.workers,
        seed=args.seed,
        process=args.process,
        timeout=args.timeout,
    )
    document = {"summary": summary}
    if prometheus:
        document["prometheus"] = prometheus
    print(json.dumps(document, indent=2, sort_keys=True))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.slo_p99_ms is not None:
        from repro.loadgen.analysis import Slo

        slo = Slo(p99_ms=args.slo_p99_ms, max_error_rate=args.slo_error_rate)
        if not slo.met(summary):
            print(
                f"SLO VIOLATION: p99={summary['latency_ms']['p99']}ms "
                f"err={summary['error_rate']} vs {slo.as_dict()}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_load_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.loadgen import runner
    from repro.loadgen.analysis import Slo
    from repro.loadgen.report import (
        render_tables,
        save_payload,
        validate_payload,
    )

    payload = runner.run_sweep(
        args.host,
        args.port,
        scenario=args.scenario,
        slo=Slo(p99_ms=args.slo_p99_ms, max_error_rate=args.slo_error_rate),
        lo=args.lo,
        hi=args.hi,
        duration=args.duration,
        workers=args.workers,
        seed=args.seed,
        iterations=args.iterations,
        baseline_duration=args.baseline_duration,
        timeout=args.timeout,
    )
    path = save_payload(
        payload, Path(args.output) if args.output else None
    )
    print("\n\n".join(t.render() for t in render_tables(payload)))
    print(f"# record -> {path}", file=sys.stderr)
    problems = validate_payload(payload)
    if problems:
        print("INVALID RECORD: " + "; ".join(problems), file=sys.stderr)
        return 2
    if payload["knee_rate_rps"] is None:
        print(
            "SLO VIOLATION: even the lowest probed rate missed the SLO",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_load_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.loadgen.report import (
        load_payload,
        render_tables,
        validate_payload,
    )

    payload = load_payload(Path(args.record))
    problems = validate_payload(payload)
    print("\n\n".join(t.render() for t in render_tables(payload)))
    if problems:
        print("INVALID RECORD: " + "; ".join(problems), file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esd",
        description="Top-k edge structural diversity search (ICDE 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="graph statistics (Table I columns)")
    _add_graph_arguments(p_stats)
    p_stats.set_defaults(func=_cmd_stats)

    p_topk = sub.add_parser("topk", help="top-k edge structural diversity")
    _add_graph_arguments(p_topk)
    p_topk.add_argument("-k", type=int, default=10, help="result count")
    p_topk.add_argument("--tau", type=int, default=2, help="component size threshold")
    p_topk.add_argument(
        "--method", choices=["online", "ordering", "exact"], default="online"
    )
    p_topk.add_argument(
        "--metric",
        choices=_TOPK_METRICS,
        default="esd",
        help="ranking metric (non-esd metrics ignore --method/--bound/--tau)",
    )
    p_topk.add_argument(
        "--target", choices=["edge", "vertex"], default="edge",
        help="rank edges (the paper) or vertices (Huang et al. extension)",
    )
    p_topk.add_argument(
        "--bound", choices=["min-degree", "common-neighbor"],
        default="common-neighbor",
    )
    p_topk.set_defaults(func=_cmd_topk)

    p_build = sub.add_parser("build-index", help="build and save an ESDIndex")
    _add_graph_arguments(p_build)
    p_build.add_argument("-o", "--output", required=True, help="index file path")
    p_build.set_defaults(func=_cmd_build_index)

    p_query = sub.add_parser("query", help="query a saved ESDIndex")
    p_query.add_argument("--index", required=True, help="index file path")
    p_query.add_argument("-k", type=int, default=10)
    p_query.add_argument("--tau", type=int, default=2)
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve", help="serve top-k queries over a maintained index"
    )
    _add_graph_arguments(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=7031,
        help="listening port (0 = ephemeral, printed at startup)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=64,
        help="admission-control slots before overload rejection",
    )
    p_serve.add_argument(
        "--queue-timeout", type=float, default=2.0,
        help="seconds a request may wait for a slot",
    )
    p_serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="LRU result-cache capacity",
    )
    p_serve.add_argument(
        "--data-dir",
        help="durable snapshot+WAL directory; recovered on restart "
        "(--graph/--dataset then only bootstraps an empty directory)",
    )
    p_serve.add_argument(
        "--snapshot-interval", type=int, default=1000,
        help="mutations between snapshot compactions (default 1000)",
    )
    p_serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip the per-append WAL fsync (faster, may lose the "
        "final acknowledged mutations on crash)",
    )
    p_serve.add_argument(
        "--slow-query-ms", type=float, default=250.0,
        help="slow-query log threshold in milliseconds (0 disables; "
        "entries surface in the metrics op)",
    )
    p_serve.add_argument(
        "--slow-log-capacity", type=int, default=128,
        help="slow-query ring-buffer entries kept (default 128)",
    )
    p_serve.add_argument(
        "--check-invariants-every", type=int, default=0,
        help="run a sampled index invariant check every N mutations "
        "(0 = off)",
    )
    p_serve.add_argument(
        "--trace",
        help="emit JSONL trace spans to FILE ('-' for stderr)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_cluster = sub.add_parser(
        "cluster", help="replicated serving tier (writer + replicas + router)"
    )
    csub = p_cluster.add_subparsers(dest="cluster_command", required=True)

    pc_start = csub.add_parser(
        "start", help="boot writer + N replicas + router as one cluster"
    )
    _add_graph_arguments(pc_start)
    pc_start.add_argument("--host", default="127.0.0.1")
    pc_start.add_argument(
        "--port", type=int, default=7030,
        help="router listening port (0 = ephemeral, printed at startup)",
    )
    pc_start.add_argument(
        "--replicas", type=int, default=2,
        help="read replicas to spawn (default 2)",
    )
    pc_start.add_argument(
        "--max-lag", type=int, default=256,
        help="versions of replication lag before a replica is evicted "
        "from the read pool (bounded staleness)",
    )
    pc_start.add_argument(
        "--data-dir",
        help="writer's durable snapshot+WAL directory (recovered on restart)",
    )
    pc_start.add_argument(
        "--no-fsync", action="store_true",
        help="writer skips the per-append WAL fsync",
    )
    pc_start.set_defaults(func=_cmd_cluster_start)

    pc_status = csub.add_parser(
        "status", help="print a running router's cluster-status as JSON"
    )
    pc_status.add_argument("--host", default="127.0.0.1")
    pc_status.add_argument("--port", type=int, default=7030)
    pc_status.add_argument("--timeout", type=float, default=5.0)
    pc_status.set_defaults(func=_cmd_cluster_status)

    pc_writer = csub.add_parser(
        "writer", help="run one cluster writer node (spawned by start)"
    )
    _add_graph_arguments(pc_writer)
    pc_writer.add_argument("--host", default="127.0.0.1")
    pc_writer.add_argument(
        "--port", type=int, default=0,
        help="client port (0 = ephemeral, printed at startup)",
    )
    pc_writer.add_argument(
        "--repl-port", type=int, default=0,
        help="replication port replicas connect to (0 = ephemeral)",
    )
    pc_writer.add_argument("--data-dir")
    pc_writer.add_argument("--snapshot-interval", type=int, default=1000)
    pc_writer.add_argument("--no-fsync", action="store_true")
    pc_writer.set_defaults(func=_cmd_cluster_writer)

    pc_replica = csub.add_parser(
        "replica", help="run one read replica node (spawned by start)"
    )
    pc_replica.add_argument("--name", default="replica")
    pc_replica.add_argument("--host", default="127.0.0.1")
    pc_replica.add_argument(
        "--port", type=int, default=0,
        help="client port (0 = ephemeral, printed at startup)",
    )
    pc_replica.add_argument("--writer-host", required=True)
    pc_replica.add_argument("--writer-repl-port", type=int, required=True)
    pc_replica.set_defaults(func=_cmd_cluster_replica)

    p_profile = sub.add_parser(
        "profile",
        help="trace one build+query+update+persist cycle and print "
        "the per-stage breakdown",
    )
    _add_graph_arguments(p_profile)
    p_profile.add_argument("-k", type=int, default=10, help="result count")
    p_profile.add_argument(
        "--tau", type=int, default=2, help="component size threshold"
    )
    p_profile.add_argument(
        "--repeat", type=int, default=5,
        help="top-k queries timed in the query stage (default 5)",
    )
    p_profile.add_argument(
        "--updates", type=int, default=8,
        help="edges deleted and re-inserted in the update stage (default 8)",
    )
    p_profile.add_argument(
        "--trace-out", help="also write the raw spans as JSONL to FILE"
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_fsck = sub.add_parser(
        "fsck", help="validate a serve --data-dir offline"
    )
    p_fsck.add_argument("data_dir", help="data directory to check")
    p_fsck.add_argument(
        "--deep", action="store_true",
        help="also replay the WAL and compare top-k answers against a "
        "from-scratch index rebuild",
    )
    p_fsck.set_defaults(func=_cmd_fsck)

    p_bench = sub.add_parser("bench", help="run one paper experiment")
    p_bench.add_argument("experiment", choices=_BENCH_NAMES)
    p_bench.add_argument("--scale", type=float, default=1.0)
    p_bench.add_argument(
        "--quick", action="store_true",
        help="regress only: run the small pinned suite (CI smoke)",
    )
    p_bench.add_argument(
        "--output", help="regress only: BENCH JSON output path "
        "(default BENCH_<tag>.json in the repo root)",
    )
    p_bench.add_argument(
        "--baseline", help="regress only: BENCH JSON to compare against "
        "(default: newest other BENCH_*.json in the repo root)",
    )
    p_bench.add_argument(
        "--tolerance", type=float, default=0.25,
        help="regress only: relative regression tolerance (default 0.25)",
    )
    p_bench.add_argument(
        "--metric", choices=["median", "speedup"], default="speedup",
        help="regress only: comparison metric; 'speedup' (set/csr ratio) "
        "is machine independent, 'median' is raw csr seconds",
    )
    p_bench.add_argument(
        "--require-floors", action="store_true",
        help="regress only: additionally fail if any op's speedup falls "
        "below its pinned SPEEDUP_FLOORS minimum",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_load = sub.add_parser(
        "load",
        help="open-loop load harness against a running server "
        "(docs/BENCHMARKS.md)",
    )
    lsub = p_load.add_subparsers(dest="load_command", required=True)

    def _add_load_target(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument(
            "--port", type=int, default=7031,
            help="esd serve or cluster router port (default 7031)",
        )
        from repro.loadgen.scenario import PROFILES

        parser.add_argument(
            "--scenario", choices=sorted(PROFILES),
            default="mixed", help="read/write mix profile (default mixed)",
        )
        parser.add_argument(
            "--workers", type=int, default=8,
            help="driver connections draining the schedule (default 8)",
        )
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument(
            "--timeout", type=float, default=30.0,
            help="per-connection socket timeout in seconds",
        )

    pl_run = lsub.add_parser(
        "run", help="one open-loop trial at a fixed offered rate"
    )
    _add_load_target(pl_run)
    pl_run.add_argument(
        "--rate", type=float, default=50.0,
        help="offered arrival rate, requests/second (default 50)",
    )
    pl_run.add_argument(
        "--duration", type=float, default=5.0,
        help="trial length in seconds (default 5)",
    )
    pl_run.add_argument(
        "--process", choices=["poisson", "constant"], default="poisson",
        help="arrival process (default poisson)",
    )
    pl_run.add_argument(
        "--slo-p99-ms", type=float, default=None,
        help="exit 1 if open-loop p99 exceeds this many milliseconds",
    )
    pl_run.add_argument(
        "--slo-error-rate", type=float, default=0.0,
        help="error-rate ceiling used with --slo-p99-ms (default 0)",
    )
    pl_run.add_argument("--output", help="also write the summary JSON here")
    pl_run.set_defaults(func=_cmd_load_run)

    pl_sweep = lsub.add_parser(
        "sweep",
        help="bisect for the SLO knee and write a BENCH_PR8.json record",
    )
    _add_load_target(pl_sweep)
    pl_sweep.add_argument(
        "--slo-p99-ms", type=float, default=50.0,
        help="SLO: open-loop p99 ceiling in milliseconds (default 50)",
    )
    pl_sweep.add_argument(
        "--slo-error-rate", type=float, default=0.0,
        help="SLO: error-rate ceiling (default 0)",
    )
    pl_sweep.add_argument(
        "--lo", type=float, default=5.0,
        help="lower offered-rate bracket, requests/second (default 5)",
    )
    pl_sweep.add_argument(
        "--hi", type=float, default=400.0,
        help="upper offered-rate bracket, requests/second (default 400)",
    )
    pl_sweep.add_argument(
        "--duration", type=float, default=2.0,
        help="seconds per bisection trial (default 2)",
    )
    pl_sweep.add_argument(
        "--iterations", type=int, default=5,
        help="bisection steps after the bracket probes (default 5)",
    )
    pl_sweep.add_argument(
        "--baseline-duration", type=float, default=1.0,
        help="seconds of closed-loop baseline measurement (default 1)",
    )
    pl_sweep.add_argument(
        "--output",
        help="BENCH JSON output path (default BENCH_PR8.json in repo root)",
    )
    pl_sweep.set_defaults(func=_cmd_load_sweep)

    pl_report = lsub.add_parser(
        "report", help="render and validate a saved load record"
    )
    pl_report.add_argument("record", help="BENCH_PR8.json path")
    pl_report.set_defaults(func=_cmd_load_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "kernels", None):
        from repro.kernels.dispatch import set_kernel_mode

        set_kernel_mode(args.kernels)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, POSIX-style.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
