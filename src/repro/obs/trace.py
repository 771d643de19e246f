"""Lightweight structured tracing: nestable spans over a pluggable sink.

The model is a cut-down version of the OpenTelemetry span: a **span** is
one timed operation with a name, a few key/value attributes, a unique
id, and a parent id linking it into a per-thread tree.  The root span of
a tree carries a fresh ``trace_id`` that all descendants share, so a
single request can be followed through the layers it touches (engine ->
cache -> index -> WAL).

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Tracing is off by default;
   ``Tracer.span`` then returns a shared no-op context manager before
   looking at its arguments, so an instrumented hot path costs one
   attribute read and one method call per span site.
2. **No inter-layer imports.**  This module depends only on the standard
   library; core, service and persistence all import *it*, never the
   other way around, so instrumentation cannot introduce import cycles.
3. **Pluggable output.**  Finished spans are emitted as plain dicts to a
   **sink** -- any callable or object with an ``emit(dict)`` method (see
   :mod:`repro.obs.sinks` for JSONL, collecting and null sinks).

Spans nest through a thread-local stack: a span opened while another is
active on the same thread becomes its child.  Cross-thread hand-offs
(a batch follower waiting on the leader's execution) intentionally start
separate trees -- the leader's tree contains the shared index work.

Usage::

    from repro.obs.trace import TRACER

    with TRACER.span("index.topk", k=k, tau=tau) as span:
        ...
        span.set(results=len(out))

``TRACER`` is the process-wide default tracer used by all built-in
instrumentation; tests may build private :class:`Tracer` instances.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "TRACER", "NullSpan"]


class NullSpan:
    """Do-nothing stand-in returned by a disabled tracer.

    Supports the full :class:`Span` surface so call sites never branch
    on whether tracing is enabled.
    """

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None

    @property
    def enabled(self) -> bool:
        return False


#: Shared instance handed out by every disabled ``span()`` call.
_NULL_SPAN = NullSpan()


class Span:
    """One live, timed operation; emitted to the sink when it closes."""

    __slots__ = (
        "_tracer", "name", "span_id", "parent_id", "trace_id",
        "attrs", "started_at", "_start", "duration_ms", "error",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.parent_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.started_at = 0.0
        self._start = 0.0
        self.duration_ms = 0.0
        self.error: Optional[str] = None

    @property
    def enabled(self) -> bool:
        return True

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.trace_id = self.span_id
        stack.append(self)
        self.started_at = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_ms = (time.perf_counter() - self._start) * 1000.0
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        stack = self._tracer._stack()
        # The span may close on a different nesting level after an
        # exception unwound intermediate frames; pop down to (and
        # including) this span rather than assuming it is on top.
        while stack:
            if stack.pop() is self:
                break
        self._tracer._emit(self.to_dict())
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready image of the finished span (one JSONL record)."""
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "ts": round(self.started_at, 6),
            "duration_ms": round(self.duration_ms, 4),
        }
        if self.attrs:
            record["attrs"] = self.attrs
        if self.error is not None:
            record["error"] = self.error
        return record


class Tracer:
    """Span factory bound to one sink; disabled unless configured.

    Thread-safe: spans may be opened concurrently from many threads;
    each thread keeps its own nesting stack.
    """

    def __init__(self) -> None:
        self._enabled = False
        self._sink = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self.spans_emitted = 0
        self.emit_errors = 0

    # -- configuration -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def sink(self):
        return self._sink

    def configure(self, sink, *, enabled: bool = True) -> None:
        """Attach ``sink`` (callable or ``.emit(dict)`` object) and enable."""
        if sink is None and enabled:
            raise ValueError("cannot enable tracing without a sink")
        self._sink = sink
        self._enabled = enabled

    def disable(self) -> None:
        """Turn tracing off; the sink is detached (close it yourself)."""
        self._enabled = False
        self._sink = None

    def status(self) -> Dict[str, Any]:
        """Introspection for the unified metrics snapshot."""
        return {
            "enabled": self._enabled,
            "sink": type(self._sink).__name__ if self._sink is not None else None,
            "spans_emitted": self.spans_emitted,
            "emit_errors": self.emit_errors,
        }

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """Open a span named ``name``; a context manager either way.

        The disabled fast path returns a shared :class:`NullSpan`
        without allocating anything.
        """
        if not self._enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    # -- internals ---------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> str:
        with self._id_lock:
            return f"{next(self._ids):012x}"

    def _emit(self, record: Dict[str, Any]) -> None:
        sink = self._sink
        if sink is None:
            return
        try:
            emit = getattr(sink, "emit", None)
            if emit is not None:
                emit(record)
            else:
                sink(record)
            self.spans_emitted += 1
        except Exception:
            # A broken sink must never take down the traced operation.
            self.emit_errors += 1


#: Process-wide default tracer used by the built-in instrumentation.
TRACER = Tracer()
