"""A read replica: a read-only :class:`QueryEngine` fed by a WAL tailer.

:class:`ReplicaNode` is a thin shell around one
:class:`~repro.service.engine.QueryEngine` it never mutates on behalf of
clients.  State arrives exclusively from the writer through a
:class:`~repro.cluster.replication.ReplicationTailer`: a snapshot
(loaded via ``from_state``, skipping the 4-clique build, and swapped in
with :meth:`QueryEngine.load_index`) and then the live WAL record
stream, applied through :meth:`QueryEngine.update` -- the writer's own
mutation path, without a store -- so a replica at applied version ``v``
holds the bit-identical index the writer held at ``v``, and serves
``topk``/``score``/``stats`` through the same engine, cache and op table
(:mod:`repro.service.dispatch`) as ``esd serve``.

Serving runs on the :class:`~repro.cluster.eventloop.EventLoop`
(``selectors``-based, per-connection buffers, idle timeouts) -- there
is no thread per connection anywhere in the replica.  What the replica
adds to the shared op table: mutating ops are answered with the
structured ``read_only`` error; reads before the first snapshot, or
carrying a ``min_version`` token newer than the applied version, are
answered ``unavailable`` so the router can retry elsewhere (bounded
staleness is enforced at the router; the token check here makes
read-your-writes robust even against a stale router view); and
``cluster-info`` reports replication state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.core.maintenance import DynamicESDIndex
from repro.graph.graph import Graph
from repro.obs.promtext import http_metrics_response, render_prometheus
from repro.obs.trace import TRACER
from repro.persistence.wal import WALRecord
from repro.service import protocol
from repro.service.dispatch import Handler, engine_ops, respond
from repro.service.engine import QueryEngine
from repro.service.protocol import ProtocolError
from repro.cluster.eventloop import Channel, EventLoop
from repro.cluster.replication import ReplicationTailer

#: Ops a replica refuses outright (single-writer discipline).
MUTATING_OPS = frozenset({"update", "watch", "changes", "unwatch"})


@dataclass
class ReplicaConfig:
    """Tunables for one :class:`ReplicaNode`."""

    writer_host: str
    writer_repl_port: int
    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port from ``address``
    name: str = "replica"
    cache_size: int = 1024  #: LRU result-cache capacity (version-keyed)
    idle_timeout: float = 300.0  #: seconds before an idle client is dropped
    reconnect_backoff: float = 0.2
    #: Shared-memory namespace for snapshot CSR segments (empty =
    #: per-replica private kernels, no shared segments).  All replicas
    #: of one cluster get the same namespace from the supervisor: the
    #: first to install snapshot version ``v`` publishes
    #: ``<namespace>-v<v>`` and the rest map it read-only.
    shm_namespace: str = ""


class ReplicaNode:
    """One read replica process/thread (see module docstring)."""

    def __init__(self, config: ReplicaConfig) -> None:
        self.config = config
        # Empty and not serving until the first snapshot lands.
        self.engine = QueryEngine(Graph(), cache_size=config.cache_size)
        self.metrics = self.engine.metrics
        #: Whether the engine holds the writer's state (False before the
        #: first snapshot and after a record the state could not absorb).
        self._synced = False
        self._writer_version = -1
        self._loop = EventLoop()
        self._loop.overflow_response = protocol.encode(
            protocol.error_response(
                protocol.BAD_REQUEST,
                f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
            )
        )
        self._listener = self._loop.listen(
            config.host, config.port, self._on_line,
            idle_timeout=config.idle_timeout,
        )
        self._tailer = ReplicationTailer(
            config.writer_host, config.writer_repl_port,
            name=config.name,
            get_applied=lambda: self.applied_version,
            on_snapshot=self._load_snapshot,
            on_record=self._apply_record,
            on_writer_version=self._note_writer_version,
            reconnect_backoff=config.reconnect_backoff,
        )
        self.obs = self.engine.obs
        self.obs.add_source("replication", self.replication_status)
        self.obs.add_source("eventloop", self._loop.snapshot)
        self.obs.add_source("graph_version", lambda: self.applied_version)
        self._ops = engine_ops(self.engine)
        self._ops["stats"] = lambda message: dict(
            self.engine.stats(),
            role="replica",
            replication=self.replication_status(),
        )
        for op in ("topk", "score", "stats"):
            self._ops[op] = self._gated(self._ops[op])
        for op in MUTATING_OPS:
            self._ops[op] = self._read_only
        self._ops["cluster-info"] = lambda message: self.cluster_info()
        self._segment = None  #: shared CSR segment of the applied snapshot
        self._thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound client ``(host, port)`` (valid once constructed)."""
        return self._listener.address

    @property
    def applied_version(self) -> int:
        """The replica's applied ``graph_version`` (``-1`` = no state).

        Always the engine's own version, so a read's gate and the
        version its answer reports can never disagree.
        """
        return self.engine.graph_version if self._synced else -1

    def serve_forever(self) -> None:
        """Tail the writer and serve on the calling thread."""
        self._tailer.start()
        self._loop.run()

    def start(self) -> "ReplicaNode":
        """Serve on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("replica already started")
        self._tailer.start()
        self._thread = threading.Thread(
            target=self._loop.run, name=f"esd-{self.config.name}", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop tailing and serving; idempotent, bounded join."""
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        self._tailer.stop()
        self._loop.stop()
        self._release_segment()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            self._thread = None

    def __enter__(self) -> "ReplicaNode":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- replication callbacks (tailer thread) ---------------------------------

    def _load_snapshot(self, state: Dict[str, Any]) -> None:
        with TRACER.span(
            "cluster.load_snapshot", version=state["graph_version"]
        ):
            dyn = DynamicESDIndex.from_state(state)
            self._seed_kernel(dyn, state)
        self.engine.load_index(dyn)
        self._synced = True
        self.metrics.incr("snapshots_loaded")

    def _seed_kernel(self, dyn: DynamicESDIndex, state: Dict[str, Any]) -> None:
        """Install the snapshot CSR as a shared segment; seed the kernel.

        With a namespace configured, replicas of one cluster share one
        read-only CSR segment per snapshot version: the first installer
        publishes the CSR its restore already built to derive ``M``
        (the graph's cached snapshot, so one CSR per load); the rest
        attach and map.  Either way the replica's
        maintenance kernel adopts the segment's id space, so replication
        records apply through the same id-space path the writer used --
        no per-replica snapshot rebuild on the first mutation.  Any
        failure falls back to the lazy per-replica kernel; serving
        correctness never depends on shared memory.
        """
        from repro.kernels.dispatch import kernels_enabled

        if not kernels_enabled():
            return
        from repro.kernels import shm
        from repro.kernels.csr import snapshot_csr
        from repro.kernels.delta import MaintenanceKernel

        if not self.config.shm_namespace or not shm.shm_available():
            return
        name = f"{self.config.shm_namespace}-v{state['graph_version']}"
        try:
            segment, created = shm.create_or_attach(
                name, lambda: snapshot_csr(dyn.graph)
            )
            dyn.adopt_kernel(
                MaintenanceKernel.from_csr(segment.csr(), dyn.graph.revision)
            )
        except Exception:
            self.metrics.incr("shm_seed_failures")
            return
        self._release_segment()
        self._segment = segment
        self.metrics.incr(
            "shm_segments_published" if created else "shm_segments_mapped"
        )

    def _release_segment(self) -> None:
        segment, self._segment = self._segment, None
        if segment is None:
            return
        if segment.creator:
            segment.destroy()
        else:
            segment.detach()

    def _apply_record(self, record: WALRecord) -> bool:
        # Only the tailer thread mutates the engine, so the checks need
        # no lock; the engine's write lock covers the apply itself.
        applied = self.applied_version
        if applied < 0:
            return False
        if record.version <= applied:
            return True  # duplicate delivery is harmless
        if record.version != applied + 1:
            self.metrics.incr("replication_gaps")
            return False
        with TRACER.span(
            "cluster.apply", op=record.op, version=record.version
        ):
            try:
                self.engine.update(record.op, record.u, record.v)
            except (ValueError, KeyError):
                # A record the state cannot absorb means we diverged
                # (maintenance validates before mutating, so the index
                # is still the one at ``applied``): stop serving and
                # force a snapshot-resync rather than guessing.
                self.metrics.incr("replication_gaps")
                self._synced = False
                return False
        self.metrics.incr("records_applied")
        return True

    def _note_writer_version(self, version: int) -> None:
        self._writer_version = max(self._writer_version, version)

    def replication_status(self) -> Dict[str, Any]:
        applied = self.applied_version
        writer_version = max(self._writer_version, applied)
        return {
            "applied_version": applied,
            "writer_version": writer_version,
            "lag": max(0, writer_version - applied) if applied >= 0 else None,
            "tailer": self._tailer.status(),
        }

    # -- serve path (event-loop thread) ----------------------------------------

    def metrics_text(self) -> str:
        return render_prometheus(self.obs.snapshot())

    def cluster_info(self) -> Dict[str, Any]:
        return dict(
            self.replication_status(),
            role="replica",
            name=self.config.name,
            graph_version=self.applied_version,
        )

    def _on_line(self, channel: Channel, line: bytes) -> None:
        if protocol.is_http_get(line):
            channel.send_bytes(http_metrics_response(self.metrics_text()))
            channel.close(flush=True)
            return
        try:
            message = protocol.decode_line(line)
        except ProtocolError as exc:
            response = protocol.error_response(exc.code, exc.message)
        else:
            response = respond(self._ops, message, self.metrics)
        channel.send_bytes(protocol.encode(response))

    def _gated(self, handler: Handler) -> Handler:
        """``handler``, answering ``unavailable`` while the replica has
        no state or is behind the request's ``min_version`` token."""

        def gated(message: Dict[str, Any]) -> Any:
            applied = self.applied_version
            if applied < 0:
                raise ProtocolError(
                    protocol.UNAVAILABLE,
                    "replica has no state yet (awaiting writer snapshot)",
                )
            min_version = protocol.int_field(
                message, "min_version", default=0, minimum=0
            )
            if applied < min_version:
                raise ProtocolError(
                    protocol.UNAVAILABLE,
                    f"replica at version {applied} is behind the "
                    f"requested min_version {min_version}",
                )
            return handler(message)

        return gated

    def _read_only(self, message: Dict[str, Any]) -> Any:
        raise ProtocolError(
            protocol.READ_ONLY,
            f"op {message['op']!r} mutates state; replicas are read-only -- "
            "send it to the router or the writer",
        )
