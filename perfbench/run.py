"""The repository benchmark: drive the real serving processes and measure.

Usage (from the repository root)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 24 --trace 0

Each run launches the server ``SETUPS`` times (the median launch is
``setup_s``), keeps the last launch, warms every cache key, then runs
``CYCLES`` rounds of an open-loop Poisson segment and a closed-loop
segment over two connections, restores every edge it deleted, and checks
the final answers against a from-scratch index build.  ``--trace 1`` runs the same workload twice,
untraced and then with the span recorder in every server process, and
reports the per-layer metrics plus the tracing overhead.

The human-readable report goes to stdout; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".perfbench-run")

#: Launches per run; ``setup_s`` is their median.
SETUPS = 3
#: Share of ``--seconds`` spent in open-loop segments; the rest goes to
#: closed-loop segments.
OPEN_SHARE = 0.6
#: Load-generator connections (the sandbox has two cores).
CONNECTIONS = 2
#: Real edges drawn per run for churn writes.
CHURN_EDGES = 2000
#: Seconds and rate (ops/s) of the open-loop write probe that runs on
#: ``read_hot`` before each cycle.
PROBE_SECONDS = 1.5
PROBE_RATE = 200.0
#: Rounds of (open-loop segment, closed-loop segment) in one run.
CYCLES = 4
#: Traced cluster runs: write acks timed until the replica applies them,
#: and read pairs sent through the router and straight to the replica.
LAG_PROBES = 100
HOP_PROBES = 200

#: The service query grid (``repro.bench.workloads.SERVICE_QUERY_GRID``).
SERVICE_GRID = [(10, 2), (10, 3), (50, 2), (100, 3)]
#: k in {10, 100} x tau in {2, 3}.
CHURN_GRID = [(10, 2), (10, 3), (100, 2), (100, 3)]

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "read_hot": {
        "argv": ["serve", "--dataset", "dblp", "--scale", "1", "--port", "0"],
        "scale": 1.0,
        "cluster": False,
        "data_dir": False,
        "rate": 2000.0,
        "write_share": 0.0,
        "keys": SERVICE_GRID,
    },
    "churn": {
        "argv": [
            "serve", "--dataset", "dblp", "--scale", "4", "--port", "0",
        ],
        "scale": 4.0,
        "cluster": False,
        "data_dir": True,
        "rate": 150.0,
        "write_share": 0.5,
        "keys": CHURN_GRID,
    },
    "cluster_mixed": {
        "argv": [
            "cluster", "start", "--replicas", "1", "--dataset", "dblp",
            "--scale", "4", "--port", "0",
        ],
        "scale": 4.0,
        "cluster": True,
        "data_dir": True,
        "rate": 120.0,
        "write_share": 0.3,
        "keys": CHURN_GRID,
        # Connection 0 sends every write and connection 1 every read.
        # With both connections mixing them, reads fell back to the
        # writer behind each write's token and queued with the writes on
        # the router's one writer link, and the latency tails swung by 0.4
        # of their median from run to run.
        "split_roles": True,
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("server_rss_mb", "MB"),
]

#: (name, unit, better) of every per-layer metric; README.md maps each
#: to the end-to-end metric and workload it should move.
PER_LAYER = [
    ("server.handle_ms", "ms", "lower"),
    ("transport.overhead_ms", "ms", "lower"),
    ("protocol.decode_us", "us", "lower"),
    ("protocol.encode_us", "us", "lower"),
    ("obs.timed_us", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("batcher.wait_ms", "ms", "lower"),
    ("batcher.requests_per_batch", "count", "higher"),
    ("rwlock.read_wait_ms", "ms", "lower"),
    ("rwlock.write_wait_ms", "ms", "lower"),
    ("engine.topk_ms", "ms", "lower"),
    ("engine.update_ms", "ms", "lower"),
    ("index.topk_us", "us", "lower"),
    ("maintenance.delete_p50_ms", "ms", "lower"),
    ("maintenance.delete_p99_ms", "ms", "lower"),
    ("maintenance.insert_p50_ms", "ms", "lower"),
    ("maintenance.insert_p99_ms", "ms", "lower"),
    ("maintenance.calls", "count", "lower"),
    ("maintenance.edges_rescored_per_write", "count", "lower"),
    ("maintenance.edges_rescored_min", "count", "lower"),
    ("wal.append_ms", "ms", "lower"),
    ("store.compact_ms", "ms", "lower"),
    ("store.compactions", "count", "lower"),
    ("kernels.csr_patch_ratio", "ratio", "higher"),
    ("router.hop_ms", "ms", "lower"),
    ("replication.lag_ms", "ms", "lower"),
    ("replica.apply_ms", "ms", "lower"),
    ("router.fallback_share", "ratio", "lower"),
    ("gen.lateness_p99_ms", "ms", "lower"),
    ("gen.lateness_max_ms", "ms", "lower"),
    ("gen.backlogged", "count", "lower"),
    ("host.steal_pct", "%", "lower"),
    ("trace.overhead_read_p50_ms", "ms", "lower"),
    ("trace.overhead_throughput_pct", "%", "lower"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile (the smallest value with at least
    ``q`` of the samples at or below it)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Run:
    """Everything one pass of one workload produced."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.windows: List[Tuple[int, int]] = []
        self.ops: List[Any] = []  # traced passes: every timed op
        self.layer: Dict[str, float] = {}
        self.notes: List[str] = []
        self.extra: Dict[str, float] = {}

    def account(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if not op.ok:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{op.message.get('op')} failed: {op.error}")


def _env(traced: bool, trace_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE_DIR", None)
    paths = [SRC]
    if traced:
        paths.insert(0, os.path.join(HERE, "trace"))
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _metrics_ops(dep) -> Dict[str, Dict[str, Any]]:
    """``metrics`` op snapshots of every node of a deployment."""
    from servers import request

    nodes = {"front": dep.front}
    if dep.cluster:
        nodes.update(writer=dep.addresses["writer"], replica=dep.addresses["replica"])
    out = {}
    for name, address in nodes.items():
        response = request(address, {"op": "metrics"})
        out[name] = response.get("result") or {}
    return out


def _latency_stats(run: Run, name: str, values: List[float]) -> None:
    """Median (gated) and tails (printed) of latencies in ms."""
    run.metrics[f"{name}_p50_ms"] = percentile(values, 0.50)
    run.samples[f"{name}_p50_ms"] = len(values)
    # Tails are printed, not gated: on two shared cores they are set by
    # host scheduling stalls and by where compactions land (README.md).
    run.extra[f"{name}_p95_ms"] = percentile(values, 0.95)
    run.extra[f"{name}_p99_ms"] = percentile(values, 0.99)


def _ms(ops) -> List[float]:
    return [op.latency * 1000.0 for op in ops if op.ok]


def _pair_means(ops) -> List[float]:
    """Mean latency in ms of each (delete, re-insert) pair that succeeded.

    ``ops`` are one connection's writes in order, so ``ops[2i]`` and
    ``ops[2i + 1]`` are the delete and the re-insert of one edge.
    """
    return [
        (first.latency + second.latency) * 500.0
        for first, second in zip(ops[::2], ops[1::2])
        if first.ok and second.ok
    ]


def _generator_health(run: Run, segments) -> None:
    """How late the generator sent, and whether lateness kept growing."""
    lateness = [(op.sent - op.sched) * 1000.0 for ops in segments for op in ops]
    run.layer["gen.lateness_p99_ms"] = percentile(lateness, 0.99)
    run.layer["gen.lateness_max_ms"] = max(lateness, default=0.0)
    run.layer["gen.backlogged"] = 0.0
    for ops in segments:
        late = [(op.sent - op.sched) * 1000.0 for op in ops]
        quarter = len(late) // 4
        if not quarter:
            continue
        first = statistics.median(late[:quarter])
        last = statistics.median(late[-quarter:])
        if last > 2.0 * first + 1.0:
            run.layer["gen.backlogged"] = 1.0
            run.notes.append(
                f"BACKLOGGED: median lateness grew from {first:.3f} ms in the "
                f"first quarter of an open-loop segment to {last:.3f} ms in "
                f"its last"
            )


def _check(run: Run, dep, graph, keys, traffic) -> None:
    """Final state must equal a from-scratch build of the original graph."""
    from repro.core import build_index_fast
    from servers import request

    index = build_index_fast(graph)
    expected = {
        key: [[u, v, score] for (u, v), score in index.topk(*key)]
        for key in keys
    }
    answers: List[Tuple[str, Any, Dict]] = []  # (who, key, result)
    conn = traffic.conns[0]
    if dep.cluster:
        writer = request(dep.addresses["writer"], {"op": "stats"}).get("result") or {}
        version = writer.get("graph_version")
        deadline = time.perf_counter() + 30.0
        while True:
            replica = request(dep.addresses["replica"], {"op": "stats"}).get("result") or {}
            if version is None or replica.get("graph_version", -1) >= version:
                break
            if time.perf_counter() > deadline:
                break
            time.sleep(0.01)
        counts = [("writer", writer.get("m")), ("replica", replica.get("m"))]
        for key in keys:
            query = {"op": "topk", "k": key[0], "tau": key[1]}
            op = traffic.call(conn, dict(query, min_version=version))
            answers.append(("router", key, op.result if op.ok else None))
            direct = request(dep.addresses["replica"], query)
            answers.append(("replica", key, direct.get("result")))
    else:
        stats = traffic.call(conn, {"op": "stats"})
        counts = [("server", stats.result["m"] if stats.ok else None)]
        version = stats.result["graph_version"] if stats.ok else None
        for key in keys:
            op = traffic.call(conn, {"op": "topk", "k": key[0], "tau": key[1]})
            answers.append(("server", key, op.result if op.ok else None))
    for who, m in counts:
        run.attempted += 1
        if m != graph.m:
            run.failed += 1
            run.problems.append(f"{who} holds {m} edges, expected {graph.m}")
    for who, key, result in answers:
        run.attempted += 1
        ok = (
            result is not None
            and result["items"] == expected[key]
            and result["graph_version"] == version
        )
        if not ok:
            run.failed += 1
            run.problems.append(
                f"{who} topk{key} at the final version does not match a "
                f"fresh build_index_fast"
            )


def _cluster_probes(run: Run, traffic) -> None:
    """Replication lag and router hop, measured from the client side.

    ``traffic`` has one connection to the router and one to the replica.
    """
    router, replica = traffic.conns
    lags = []
    for _ in range(LAG_PROBES):
        ack = traffic.call(router, router.next_write())
        run.account([ack])
        if not ack.ok:
            continue
        deadline = ack.done + 10.0
        while True:
            info = traffic.call(replica, {"op": "cluster-info"})
            if info.ok and info.result["graph_version"] >= ack.result["graph_version"]:
                lags.append((info.done - ack.done) * 1000.0)
                break
            if not info.ok or info.done > deadline:
                run.attempted += 1
                run.failed += 1
                run.problems.append("the replica did not apply a write within 10 s")
                break
    run.account(traffic.restore())
    via_router, direct = [], []
    query = {"op": "topk", "k": 10, "tau": 2}
    for _ in range(HOP_PROBES):
        via_router.append(traffic.call(router, dict(query)))
        direct.append(traffic.call(replica, dict(query)))
    run.account(via_router + direct)
    run.layer["replication.lag_ms"] = statistics.median(lags) if lags else 0.0
    run.layer["router.hop_ms"] = (
        statistics.median(op.service for op in via_router)
        - statistics.median(op.service for op in direct)
    ) * 1000.0


def _counter_deltas(run: Run, snapshots, cluster: bool) -> None:
    """Per-layer ratios from ``metrics`` op snapshots around each window."""
    def delta(node: str, *path: str) -> float:
        total = 0.0
        for pair in snapshots:
            values = []
            for snapshot in pair:
                value: Any = snapshot.get(node, {})
                for part in path:
                    value = value.get(part, {}) if isinstance(value, dict) else {}
                values.append(value if isinstance(value, (int, float)) else 0)
            total += values[1] - values[0]
        return total

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engine = "writer" if cluster else "front"
    cache_nodes = ["writer", "replica"] if cluster else ["front"]
    hits = sum(delta(node, "cache", "hits") for node in cache_nodes)
    misses = sum(delta(node, "cache", "misses") for node in cache_nodes)
    run.layer["cache.hit_ratio"] = ratio(hits, hits + misses)
    run.layer["batcher.requests_per_batch"] = ratio(
        delta(engine, "batcher", "requests"), delta(engine, "batcher", "batches")
    )
    patches = delta(engine, "kernels", "csr_patches")
    builds = delta(engine, "kernels", "csr_builds")
    run.layer["kernels.csr_patch_ratio"] = ratio(patches, patches + builds)
    routed = delta("front", "counters", "reads_routed")
    fallback = delta("front", "counters", "reads_fallback_writer")
    run.layer["router.fallback_share"] = ratio(fallback, routed + fallback)


def _cpu_times() -> Tuple[int, int]:
    """(steal, total) CPU jiffies of the machine so far, from /proc/stat.

    Steal is time the hypervisor ran something else while our CPUs had
    work.  It slows every timing at once, so each run reports its share.
    """
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


@contextmanager
def _gc_paused():
    """Keep the generator's own garbage-collector pauses out of timings.

    They would show up as send lateness; timed segments allocate little.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def split_cpus() -> Optional[Set[int]]:
    """Pin the generator to one CPU and return the rest for the servers.

    Left to the scheduler, the generator and a server sometimes share a
    CPU and sometimes not; cross-CPU wake-ups cost more on a virtual
    machine, so closed-loop throughput flipped between two modes (about
    6k and 12k ops/s on ``read_hot``) from run to run.  Every process of
    a deployment inherits the servers' CPUs.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return set(cpus[1:])


def run_pass(name: str, seed: int, seconds: float, traced: bool, run_dir: str,
             server_cpus: Optional[Set[int]]) -> Run:
    """One complete run of a workload: set-up, phases, check, teardown."""
    from repro.graph import load_dataset
    from servers import Deployment, shm_segments
    from traffic import Traffic, poisson_schedule

    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    run = Run()
    graph = load_dataset("dblp", scale=spec["scale"])
    edges = rng.sample(sorted(graph.edges()), min(CHURN_EDGES, graph.m))
    trace_dir = os.path.join(run_dir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    env = _env(traced, trace_dir)
    segments_before = shm_segments()
    setups = []
    dep = None
    for i in range(SETUPS):
        argv = list(spec["argv"])
        if spec["data_dir"]:
            argv += ["--data-dir", os.path.join(run_dir, f"data-{i}")]
        dep = Deployment(
            argv, cluster=spec["cluster"], env=env,
            log_path=os.path.join(run_dir, f"server-{i}.log"), cwd=ROOT,
            cpus=server_cpus,
        )
        setups.append(dep.setup_s)
        if i < SETUPS - 1:
            run.problems += dep.stop()
            if traced:  # keep only the measured launch's spans
                for entry in os.listdir(trace_dir):
                    os.remove(os.path.join(trace_dir, entry))
    run.metrics["setup_s"] = statistics.median(setups)
    run.samples["setup_s"] = len(setups)
    keys = spec["keys"]
    write_share = spec["write_share"]
    split_roles = spec.get("split_roles", False)
    write_shares = [1.0, 0.0] if split_roles else [write_share] * CONNECTIONS
    traffic = Traffic([dep.front] * CONNECTIONS, edges)
    try:
        def warm() -> None:
            """Read every cache key once on each connection, untimed."""
            for conn in traffic.conns:
                for k, tau in keys:
                    run.account([traffic.call(conn, {"op": "topk", "k": k, "tau": tau})])

        # Warm-up; write workloads also make a few churn pairs so lazy
        # kernel set-up is done before timing.
        warm()
        if write_share:
            for conn in traffic.conns:
                for _ in range(4 if write_shares[conn.index] else 0):
                    run.account([traffic.call(conn, conn.next_write())])
            run.account(traffic.restore())
        snapshots = []  # traced: metrics-op snapshots around each window
        cpu_times = []  # (steal, total) jiffies around each window

        def timed(phase):
            """Run one timed segment; record its window and restore edges."""
            before = _metrics_ops(dep) if traced else None
            with _gc_paused():
                cpu_before = _cpu_times()
                start_ns = time.perf_counter_ns()
                result = phase()
                run.account(traffic.restore())
                run.windows.append((start_ns, time.perf_counter_ns()))
                cpu_times.append((cpu_before, _cpu_times()))
            if traced:
                snapshots.append((before, _metrics_ops(dep)))
            return result

        # The run is CYCLES rounds of (open segment, closed segment), so
        # every metric samples the whole run and not one stretch of it:
        # the host's speed swings by a quarter from second to second.
        open_seconds = seconds * OPEN_SHARE / CYCLES
        closed_seconds = seconds * (1 - OPEN_SHARE) / CYCLES
        segments, closed_ops, probe = [], [], []
        closed_done = 0
        for _ in range(CYCLES):
            if not write_share:
                # read_hot: timed writes between cycles, so its read
                # segments stay pure cache hits and the write metrics
                # exist; then every key is read again, untimed.  The
                # probe is open-loop on one connection, and the metric is
                # the median pair mean: a delete and an insert cost
                # different amounts, so the median of single writes
                # jumped between the two.  Closed-loop writes kept the
                # server's CPU busy, and their median followed the host's
                # speed from run to run.
                schedule = poisson_schedule(
                    rng, rate=PROBE_RATE, seconds=PROBE_SECONDS, write_share=1.0,
                    keys=keys, connections=1,
                )
                with _gc_paused():
                    chunk = traffic.open_loop(schedule) + traffic.restore()
                probe += chunk
                run.account(chunk)
                warm()
            schedule = poisson_schedule(
                rng, rate=spec["rate"], seconds=open_seconds,
                write_share=write_share, keys=keys, connections=CONNECTIONS,
                split_roles=split_roles,
            )
            ops = timed(lambda: traffic.open_loop(schedule))
            run.account(ops)
            segments.append(ops)
            ops, done = timed(
                lambda: traffic.closed_loop(closed_seconds, rng, write_shares, keys)
            )
            run.account(ops)
            closed_ops += ops
            closed_done += done
        open_ops = [op for ops in segments for op in ops]
        reads = [op for op in open_ops if op.kind == "read"]
        writes = [op for op in open_ops if op.kind == "write"]
        _latency_stats(run, "read", _ms(reads))
        _latency_stats(run, "write", _ms(writes) if writes else _pair_means(probe))
        run.metrics["throughput_ops_s"] = closed_done / (closed_seconds * CYCLES)
        run.samples["throughput_ops_s"] = closed_done
        _generator_health(run, segments)
        stolen = sum(after[0] - before[0] for before, after in cpu_times)
        total = sum(after[1] - before[1] for before, after in cpu_times)
        run.layer["host.steal_pct"] = 100.0 * stolen / total if total else 0.0
        if traced:
            run.ops = open_ops + closed_ops
            _counter_deltas(run, snapshots, spec["cluster"])
            if spec["cluster"]:
                traffic.close()
                traffic = Traffic([dep.front, dep.addresses["replica"]], edges)
                _cluster_probes(run, traffic)
        run.metrics["server_rss_mb"] = dep.peak_rss_mb()
        run.samples["server_rss_mb"] = len(dep.group_pids())
        _check(run, dep, graph, keys, traffic)
    finally:
        traffic.close()
        run.problems += dep.stop()
    leaked = shm_segments() - segments_before
    if leaked:
        run.problems.append(f"shared-memory segments survived: {sorted(leaked)}")
    if run.problems and run.failed == 0:
        run.failed += 1  # a hygiene problem fails the run
    return run


def layer_metrics(run: Run, trace_dir: str) -> Dict[str, float]:
    """The per-layer metrics of a traced pass (see README.md)."""
    from reduce import Spans

    spans = Spans(trace_dir, run.windows)
    ms = lambda ns: ns / 1e6  # noqa: E731
    us = lambda ns: ns / 1e3  # noqa: E731
    p50 = lambda xs: percentile(xs, 0.50)  # noqa: E731
    p99 = lambda xs: percentile(xs, 0.99)  # noqa: E731
    out = dict(run.layer)
    handle = spans.by_request.get("server.handle", {})
    out["server.handle_ms"] = ms(p50(spans.get("server.handle")))
    transport = [
        op.service * 1e9 - handle[op.message["id"]]
        for op in run.ops
        if op.message["id"] in handle
    ]
    out["transport.overhead_ms"] = ms(p50(transport))
    out["protocol.decode_us"] = us(p50(spans.get("protocol.decode")))
    out["protocol.encode_us"] = us(p50(spans.get("protocol.encode")))
    timed = spans.by_request.get("obs.timed", {})
    out["obs.timed_us"] = us(p50([v for rid, v in timed.items() if rid]))
    out["batcher.wait_ms"] = ms(p50(spans.batcher_wait))
    out["rwlock.read_wait_ms"] = ms(p99(spans.get("rwlock.read_wait")))
    out["rwlock.write_wait_ms"] = ms(p99(spans.get("rwlock.write_wait")))
    out["engine.topk_ms"] = ms(p50(spans.get("engine.topk")))
    out["engine.update_ms"] = ms(p50(spans.get("engine.update")))
    out["index.topk_us"] = us(p50(spans.get("index.topk")))
    writers = ("serve", "writer")
    for kind in ("insert", "delete"):
        values = spans.get(f"maintenance.{kind}", writers)
        out[f"maintenance.{kind}_p50_ms"] = ms(p50(values))
        out[f"maintenance.{kind}_p99_ms"] = ms(p99(values))
    rescored = spans.get_aux("maintenance.insert") + spans.get_aux("maintenance.delete")
    out["maintenance.calls"] = float(len(rescored))
    out["maintenance.edges_rescored_per_write"] = (
        statistics.mean(rescored) if rescored else 0.0
    )
    out["maintenance.edges_rescored_min"] = float(min(rescored, default=0))
    replica = spans.get("maintenance.insert", ("replica",)) + spans.get(
        "maintenance.delete", ("replica",)
    )
    out["replica.apply_ms"] = ms(p50(replica))
    out["wal.append_ms"] = ms(p50(spans.get("wal.append", writers)))
    compactions = spans.get("store.compact", writers)
    out["store.compact_ms"] = ms(p50(compactions))
    out["store.compactions"] = float(len(compactions))
    out.setdefault("router.hop_ms", 0.0)
    out.setdefault("replication.lag_ms", 0.0)
    run.notes.append(_span_table(spans))
    if spans.missing:
        run.notes.append("functions absent from this program version: "
                         + ", ".join(sorted(spans.missing)))
    return out


def _span_table(spans) -> str:
    lines = [f"{'role':8} {'span':22} {'count':>8} {'p50 ms':>9} {'self p50':>9}"]
    for (role, name), values in sorted(spans.durations.items()):
        self_times = spans.self_times[(role, name)]
        lines.append(
            f"{role:8} {name:22} {len(values):8d} "
            f"{percentile(values, 0.5) / 1e6:9.4f} "
            f"{percentile(self_times, 0.5) / 1e6:9.4f}"
        )
    return "\n".join(lines)


def _report(title: str, run: Run) -> None:
    print(f"== {title}")
    for name, unit in END_TO_END:
        print(f"  {name:18} {run.metrics[name]:12.4f} {unit:6} (n={run.samples[name]})")
    for name, value in run.extra.items():
        count = run.samples[name.rsplit("_", 2)[0] + "_p50_ms"]
        print(f"  {name:18} {value:12.4f} ms     (n={count}, not gated)")
    error_share = run.failed / run.attempted if run.attempted else 1.0
    print(f"  {'error_share':18} {error_share:12.4f} ratio  "
          f"({run.failed} failed of {run.attempted})")
    for name in ("gen.lateness_p99_ms", "gen.lateness_max_ms"):
        print(f"  {name:18} {run.layer[name]:12.4f} ms")
    print(f"  {'host.steal_pct':18} {run.layer['host.steal_pct']:12.4f} %      "
          "(CPU time the hypervisor took during the timed segments)")
    for note in run.notes:
        print(note)
    for problem in run.problems:
        print(f"  PROBLEM: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        server_cpus = split_cpus()
        plain = run_pass(args.workload, args.seed, args.seconds, False, run_dir,
                         server_cpus)
        _report(f"{args.workload} seed={args.seed} untraced", plain)
        attempted, failed = plain.attempted, plain.failed
        metrics = {name: (plain.metrics[name], unit) for name, unit in END_TO_END}
        if args.trace:
            traced_dir = os.path.join(run_dir, "traced")
            traced = run_pass(args.workload, args.seed, args.seconds, True, traced_dir,
                              server_cpus)
            layers = layer_metrics(traced, os.path.join(traced_dir, "trace"))
            _report(f"{args.workload} seed={args.seed} traced", traced)
            layers["trace.overhead_read_p50_ms"] = (
                traced.metrics["read_p50_ms"] - plain.metrics["read_p50_ms"]
            )
            layers["trace.overhead_throughput_pct"] = 100.0 * (
                1.0 - traced.metrics["throughput_ops_s"] / plain.metrics["throughput_ops_s"]
            )
            print("== per-layer (traced run)")
            metrics = {}
            for name, unit, _better in PER_LAYER:
                metrics[name] = (layers[name], unit)
                print(f"  {name:38} {layers[name]:12.4f} {unit}")
            attempted += traced.attempted
            failed += traced.failed
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUN_ROOT)
        except OSError:
            pass
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
