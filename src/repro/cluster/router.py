"""The cluster router: one client-facing address over writer + replicas.

The router speaks the same JSON line protocol as every other node and
runs entirely on one :class:`~repro.cluster.eventloop.EventLoop`
thread: client connections *and* the persistent backend links to the
writer and each replica are all registered in the same selector, so a
request is parsed, routed, proxied, and answered without a single
per-connection thread.

Routing policy
--------------
* **Writes** (``update``, and the stateful ``watch``/``changes``/
  ``unwatch`` feeds) are forwarded to the single writer.  When the
  writer link is down they fail *fast* with ``unavailable`` -- no
  queueing -- while reads keep flowing to replicas (graceful
  degradation).
* **Reads** (``topk``, ``score``, ``stats``) are proxied verbatim (the
  serving backend validates every field) and load-balanced over the
  healthy, non-evicted replicas whose applied version satisfies the
  request's *version token*: the effective minimum is
  ``max(request.min_version, connection token)``, where the connection
  token is the newest ``graph_version`` this client has ever seen
  through this router connection.  That yields read-your-writes and
  monotonic reads without any client cooperation; explicit
  ``min_version`` fields extend the guarantee across connections.  The
  chosen replica re-validates the token (the router injects it into
  the forwarded request), so a stale router view degrades to a retry,
  never a stale read.  When no replica qualifies, the read falls back
  to the writer.
* **Health**: every ``probe_interval`` the router probes each backend
  with ``cluster-info``; replicas whose replication lag (writer version
  minus applied version) exceeds ``max_lag`` are *evicted* from the
  read pool until they catch back up below ``max_lag / 2``
  (hysteresis).  Dead links are retried with exponential backoff, and
  every eviction/restoration/disconnect counts as a failover event in
  the metrics.

Responses stream back by FIFO correlation per backend link (each
backend answers one connection's requests in order), so proxied bytes
pass through untouched -- request ids included.  A backend that misses
its deadline poisons the FIFO, so the link is reset and all its
in-flight requests are answered ``unavailable``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.promtext import http_metrics_response, render_prometheus
from repro.obs.registry import UnifiedRegistry
from repro.obs.trace import TRACER
from repro.service import protocol
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import ProtocolError
from repro.cluster.eventloop import Channel, EventLoop

#: Ops that must reach the writer (mutations and stateful feeds).
WRITE_OPS = frozenset({"update", "watch", "changes", "unwatch"})
#: Ops load-balanced across replicas.
READ_OPS = frozenset({"topk", "score", "stats"})

#: Seconds of request timestamps kept per backend for QPS estimation.
_QPS_WINDOW = 5.0


@dataclass
class RouterConfig:
    """Tunables for one :class:`Router`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port from ``address``
    writer: Optional[Tuple[str, int]] = None  #: writer's *client* address
    replicas: List[Tuple[str, str, int]] = field(default_factory=list)
    #: eviction threshold: replication lag in versions before a replica
    #: leaves the read pool (bounded staleness)
    max_lag: int = 256
    probe_interval: float = 0.25  #: seconds between backend health probes
    request_timeout: float = 10.0  #: seconds before a proxied request fails
    idle_timeout: float = 300.0  #: seconds before an idle client is dropped
    reconnect_backoff: float = 0.25
    max_backoff: float = 2.0


class _Pending:
    """One proxied request awaiting its backend response."""

    __slots__ = ("channel", "request_id", "deadline", "op")

    def __init__(self, channel, request_id, deadline, op):
        self.channel = channel  # None marks an internal health probe
        self.request_id = request_id
        self.deadline = deadline
        self.op = op


class _Backend:
    """Router-side state for one upstream node (writer or replica)."""

    __slots__ = (
        "name", "kind", "host", "port", "channel", "pending",
        "applied_version", "evicted", "next_retry", "failures",
        "routed", "window", "last_probe", "was_connected",
    )

    def __init__(self, name: str, kind: str, host: str, port: int) -> None:
        self.name = name
        self.kind = kind  # "writer" | "replica"
        self.host = host
        self.port = port
        self.channel: Optional[Channel] = None
        self.pending: Deque[_Pending] = deque()
        self.applied_version = -1
        self.evicted = False
        self.next_retry = 0.0
        self.failures = 0
        self.routed = 0
        self.window: Deque[float] = deque()
        self.last_probe = 0.0
        self.was_connected = False

    @property
    def connected(self) -> bool:
        return self.channel is not None

    def qps(self, now: float) -> float:
        while self.window and now - self.window[0] > _QPS_WINDOW:
            self.window.popleft()
        return round(len(self.window) / _QPS_WINDOW, 3)


class Router:
    """The coordinator process (see module docstring)."""

    def __init__(self, config: RouterConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self._loop = EventLoop()
        self._loop.overflow_response = protocol.encode(
            protocol.error_response(
                protocol.BAD_REQUEST,
                f"request line exceeds {protocol.MAX_LINE_BYTES} bytes",
            )
        )
        self._listener = self._loop.listen(
            config.host, config.port, self._on_client_line,
            idle_timeout=config.idle_timeout,
        )
        self._writer: Optional[_Backend] = (
            _Backend("writer", "writer", *config.writer)
            if config.writer is not None
            else None
        )
        self._replicas: List[_Backend] = [
            _Backend(name, "replica", host, port)
            for name, host, port in config.replicas
        ]
        self._writer_version = -1
        self._rr = 0  # round-robin cursor over eligible replicas
        self._loop.add_timer(self._tick)
        self.obs = UnifiedRegistry(self.metrics)
        self.obs.add_source("cluster", self.status)
        self.obs.add_source("eventloop", self._loop.snapshot)
        self._thread: Optional[threading.Thread] = None
        self._shutdown_lock = threading.Lock()
        self._closed = False

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound client ``(host, port)`` (valid once constructed)."""
        return self._listener.address

    def serve_forever(self) -> None:
        """Route on the calling thread until :meth:`shutdown`."""
        self._loop.run()

    def start(self) -> "Router":
        """Route on a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("router already started")
        self._thread = threading.Thread(
            target=self._loop.run, name="esd-router", daemon=True
        )
        self._thread.start()
        return self

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until every configured backend link is up (or timeout).

        Callable from any thread (it only polls :meth:`status`).  Use it
        after :meth:`start` before advertising the router to clients, so
        the first write does not race the initial backend connects.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status = self.status()
            writer_ok = (
                self._writer is None or status["writer"]["connected"]
            )
            if writer_ok and all(
                entry["connected"] for entry in status["replicas"]
            ):
                return True
            time.sleep(0.02)
        return False

    def shutdown(self, join_timeout: float = 5.0) -> None:
        """Stop routing; idempotent, bounded join."""
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        self._loop.stop()
        if self._thread is not None:
            self._thread.join(timeout=join_timeout)
            self._thread = None

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- client side (event-loop thread) ---------------------------------------

    def metrics_text(self) -> str:
        return render_prometheus(self.obs.snapshot())

    def _reply(self, channel: Channel, response: Dict[str, Any]) -> None:
        channel.send_bytes(protocol.encode(response))

    def _on_client_line(self, channel: Channel, line: bytes) -> None:
        if protocol.is_http_get(line):
            channel.send_bytes(http_metrics_response(self.metrics_text()))
            channel.close(flush=True)
            return
        try:
            message = protocol.decode_line(line)
        except ProtocolError as exc:
            self._reply(
                channel, protocol.error_response(exc.code, exc.message)
            )
            return
        request_id = message.get("id")
        op = message["op"]
        try:
            if op == "ping":
                self._reply(channel, protocol.ok_response("pong", request_id))
            elif op == "cluster-status":
                self._reply(
                    channel, protocol.ok_response(self.status(), request_id)
                )
            elif op == "metrics":
                self._reply(
                    channel,
                    protocol.ok_response(self.obs.snapshot(), request_id),
                )
            elif op == "metrics-text":
                from repro.service.dispatch import PROMETHEUS_CONTENT_TYPE

                self._reply(
                    channel,
                    protocol.ok_response(
                        {"content_type": PROMETHEUS_CONTENT_TYPE,
                         "text": self.metrics_text()},
                        request_id,
                    ),
                )
            elif op in WRITE_OPS:
                self._route_write(channel, message, request_id)
            elif op in READ_OPS:
                self._route_read(channel, message, request_id)
            else:
                raise ProtocolError(
                    protocol.UNKNOWN_OP,
                    f"op {op!r} is not served by the router",
                )
        except ProtocolError as exc:
            self._reply(
                channel,
                protocol.error_response(exc.code, exc.message, request_id),
            )

    def _route_write(
        self, channel: Channel, message: Dict[str, Any], request_id
    ) -> None:
        writer = self._writer
        if writer is None or not writer.connected:
            # Fail fast: a queued write behind a dead writer only turns
            # one failure into a timeout storm.
            self.metrics.incr("writes_failed_fast")
            raise ProtocolError(
                protocol.UNAVAILABLE,
                "the cluster writer is down; writes are unavailable "
                "(reads keep serving)",
            )
        self.metrics.incr("writes_forwarded")
        self._forward(writer, channel, message, request_id)

    def _route_read(
        self, channel: Channel, message: Dict[str, Any], request_id
    ) -> None:
        required = max(
            protocol.int_field(message, "min_version", default=0, minimum=0),
            channel.attrs.get("version_token", 0),
        )
        eligible = [
            backend
            for backend in self._replicas
            if backend.connected
            and not backend.evicted
            and backend.applied_version >= required
        ]
        if eligible:
            # Round-robin among the least-loaded candidates.
            depth = min(len(backend.pending) for backend in eligible)
            candidates = [
                backend for backend in eligible
                if len(backend.pending) == depth
            ]
            self._rr += 1
            backend = candidates[self._rr % len(candidates)]
            self.metrics.incr("reads_routed")
        elif self._writer is not None and self._writer.connected:
            # No replica is fresh enough: the writer is always current.
            backend = self._writer
            self.metrics.incr("reads_fallback_writer")
        else:
            self.metrics.incr("reads_failed")
            raise ProtocolError(
                protocol.UNAVAILABLE,
                f"no replica has caught up to version {required} and the "
                "writer is down",
            )
        if required and backend.kind == "replica":
            message = dict(message, min_version=required)
        self._forward(backend, channel, message, request_id)

    def _forward(
        self, backend: _Backend, channel: Channel,
        message: Dict[str, Any], request_id,
    ) -> None:
        now = time.monotonic()
        backend.pending.append(
            _Pending(
                channel, request_id,
                now + self.config.request_timeout, message["op"],
            )
        )
        backend.routed += 1
        backend.window.append(now)
        with TRACER.span(
            "router.forward", op=message["op"], backend=backend.name
        ):
            backend.channel.send_bytes(protocol.encode(message))

    # -- backend side (event-loop thread) --------------------------------------

    def _on_backend_line(self, backend: _Backend, line: bytes) -> None:
        if not backend.pending:
            self._fail_backend(backend, "unsolicited backend response")
            return
        pending = backend.pending.popleft()
        version: Optional[int] = None
        try:
            response = json.loads(line)
        except ValueError:
            response = None
        if isinstance(response, dict) and response.get("ok"):
            result = response.get("result")
            if isinstance(result, dict):
                candidate = result.get("graph_version")
                if isinstance(candidate, int):
                    version = candidate
                writer_version = result.get("writer_version")
                if isinstance(writer_version, int):
                    self._writer_version = max(
                        self._writer_version, writer_version
                    )
        if version is not None:
            if backend.kind == "replica":
                backend.applied_version = max(
                    backend.applied_version, version
                )
            else:
                self._writer_version = max(self._writer_version, version)
        if pending.channel is None:
            return  # internal health probe; versions harvested above
        if pending.channel.closed:
            return
        if version is not None:
            pending.channel.attrs["version_token"] = max(
                pending.channel.attrs.get("version_token", 0), version
            )
        pending.channel.send_bytes(bytes(line) + b"\n")

    def _on_backend_close(self, backend: _Backend, channel: Channel) -> None:
        if backend.channel is not channel:
            return  # an already-replaced link
        self._fail_backend(backend, "connection lost")

    def _fail_backend(self, backend: _Backend, reason: str) -> None:
        was_connected = backend.connected
        channel, backend.channel = backend.channel, None
        pending, backend.pending = backend.pending, deque()
        if channel is not None and not channel.closed:
            channel.on_close = None  # avoid re-entering via the close hook
            channel.close()
        for entry in pending:
            if entry.channel is None or entry.channel.closed:
                continue
            self._reply(
                entry.channel,
                protocol.error_response(
                    protocol.UNAVAILABLE,
                    f"backend {backend.name} failed mid-request: {reason}",
                    entry.request_id,
                ),
            )
        backend.failures += 1
        backoff = min(
            self.config.max_backoff,
            self.config.reconnect_backoff * (2 ** min(backend.failures, 6)),
        )
        backend.next_retry = time.monotonic() + backoff
        if was_connected:
            backend.was_connected = False
            self.metrics.incr("failover_events")
            self.metrics.incr(f"{backend.kind}_disconnects")

    # -- periodic maintenance (event-loop tick) --------------------------------

    def _backends(self) -> List[_Backend]:
        backends = list(self._replicas)
        if self._writer is not None:
            backends.append(self._writer)
        return backends

    def _tick(self) -> None:
        now = time.monotonic()
        for backend in self._backends():
            # A backend that blew its deadline has poisoned its FIFO:
            # reset the link, which also answers every in-flight request.
            if backend.pending and backend.pending[0].deadline <= now:
                self.metrics.incr("backend_timeouts")
                self._fail_backend(backend, "request timeout")
            if not backend.connected and now >= backend.next_retry:
                self._connect_backend(backend)
            if backend.connected and (
                now - backend.last_probe >= self.config.probe_interval
            ):
                backend.last_probe = now
                self._probe(backend)
        self._apply_staleness_policy()

    def _connect_backend(self, backend: _Backend) -> None:
        try:
            channel = self._loop.connect(
                backend.host, backend.port,
                lambda channel, line, b=backend: self._on_backend_line(b, line),
                on_close=lambda channel, b=backend: self._on_backend_close(
                    b, channel
                ),
                timeout=0.5,
            )
        except OSError:
            backend.failures += 1
            backend.next_retry = time.monotonic() + min(
                self.config.max_backoff,
                self.config.reconnect_backoff
                * (2 ** min(backend.failures, 6)),
            )
            return
        backend.channel = channel
        backend.failures = 0
        backend.last_probe = 0.0
        if not backend.was_connected:
            backend.was_connected = True
            self.metrics.incr(f"{backend.kind}_connects")

    def _probe(self, backend: _Backend) -> None:
        backend.pending.append(
            _Pending(
                None, None,
                time.monotonic() + self.config.request_timeout,
                "cluster-info",
            )
        )
        backend.channel.send_bytes(protocol.encode({"op": "cluster-info"}))

    def _apply_staleness_policy(self) -> None:
        if self._writer_version < 0:
            return
        restore_below = max(0, self.config.max_lag // 2)
        for backend in self._replicas:
            if backend.applied_version < 0:
                continue
            lag = max(0, self._writer_version - backend.applied_version)
            if not backend.evicted and lag > self.config.max_lag:
                backend.evicted = True
                self.metrics.incr("failover_events")
                self.metrics.incr("replicas_evicted")
            elif backend.evicted and lag <= restore_below:
                backend.evicted = False
                self.metrics.incr("replicas_restored")

    # -- introspection ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        now = time.monotonic()
        writer = self._writer
        return {
            "role": "router",
            "address": list(self.address),
            "writer_version": self._writer_version,
            "max_lag": self.config.max_lag,
            "writer": (
                {
                    "address": [writer.host, writer.port],
                    "connected": writer.connected,
                    "pending": len(writer.pending),
                    "routed": writer.routed,
                    "qps": writer.qps(now),
                }
                if writer is not None
                else None
            ),
            "replicas": [
                {
                    "name": backend.name,
                    "address": [backend.host, backend.port],
                    "connected": backend.connected,
                    "evicted": backend.evicted,
                    "applied_version": backend.applied_version,
                    "lag": (
                        max(0, self._writer_version - backend.applied_version)
                        if self._writer_version >= 0
                        and backend.applied_version >= 0
                        else None
                    ),
                    "pending": len(backend.pending),
                    "routed": backend.routed,
                    "qps": backend.qps(now),
                }
                for backend in self._replicas
            ],
        }
