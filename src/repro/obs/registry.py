"""Unified metrics registry: one snapshot over many metric sources.

Before this module, operational state was scattered: the service's
``MetricsRegistry`` held endpoint latencies and counters, the cache,
lock and persistence store each had their own ``stats()``, and
the core layer's counters (edges rescored, heap stale-skips, bound-rule
evaluations) were not surfaced at all.  :class:`UnifiedRegistry` folds
them into the single JSON document returned by the ``metrics`` op and
``esd profile``.

A **source** is a named zero-argument callable returning a JSON-ready
value, polled lazily at snapshot time -- registering one costs nothing
on the hot path.  A source that raises contributes an ``{"error": ...}``
stanza instead of poisoning the whole snapshot (a metrics scrape must
never take the service down).

This module is duck-typed on purpose: the wrapped ``metrics`` object
only needs ``snapshot()``/``incr()``, so there is no import edge from
``repro.obs`` to ``repro.service``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

__all__ = ["UnifiedRegistry"]

#: A metric source: no arguments, JSON-ready return value.
Source = Callable[[], Any]


class UnifiedRegistry:
    """Compose a base metrics registry with named snapshot sources."""

    def __init__(self, metrics=None) -> None:
        self._metrics = metrics
        self._lock = threading.Lock()
        self._sources: Dict[str, Source] = {}

    @property
    def metrics(self):
        """The wrapped base registry (``None`` if standalone)."""
        return self._metrics

    def add_source(self, name: str, source: Source) -> None:
        """Register ``source`` under ``name`` (replacing any previous one).

        The name becomes a top-level key of :meth:`snapshot`; it must not
        collide with the base registry's own keys.
        """
        if not callable(source):
            raise TypeError(f"source {name!r} must be callable, got {source!r}")
        with self._lock:
            self._sources[name] = source

    def remove_source(self, name: str) -> bool:
        """Deregister ``name``; returns whether it existed."""
        with self._lock:
            return self._sources.pop(name, None) is not None

    def incr(self, counter: str, amount: int = 1) -> None:
        """Forward to the base registry's counter (no-op when standalone)."""
        if self._metrics is not None:
            self._metrics.incr(counter, amount)

    def snapshot(self) -> Dict[str, Any]:
        """One merged, JSON-ready metrics document.

        Base-registry keys first (endpoints, counters, uptime), then one
        key per registered source.  Sources run outside the registry
        lock so a slow provider cannot block registration.
        """
        base: Dict[str, Any] = (
            dict(self._metrics.snapshot()) if self._metrics is not None else {}
        )
        with self._lock:
            sources = list(self._sources.items())
        for name, source in sources:
            try:
                base[name] = source()
            except Exception as exc:  # a scrape must never fail whole
                base[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return base
