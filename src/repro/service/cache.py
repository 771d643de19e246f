"""Thread-safe LRU cache for query results, keyed by graph version.

Keys are ``(k, tau, graph_version)`` tuples: because
:attr:`~repro.core.maintenance.DynamicESDIndex.graph_version` increases
on every successful mutation and is never reused, an entry written at
version ``V`` can only ever be read back while the graph is still at
``V`` -- stale results are unreachable by construction.  Old-version
entries would still occupy LRU slots until they age out, so the engine
also calls :meth:`purge_stale` from its mutation hook to reclaim them
eagerly.

A miss goes through :meth:`ResultCache.get_or_compute`, which is
**single-flight**: concurrent misses on one key run one computation and
every caller gets its result, so a thundering herd of identical queries
costs one index pass regardless of herd size.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Tuple

#: Sentinel distinguishing "miss" from a cached ``None``.
_MISS = object()


def _per_waiter_error(exc: BaseException) -> BaseException:
    """A fresh exception instance for one waiter to raise.

    A failed computation is observed by *every* waiter concurrently;
    raising the one shared instance from each waiter thread made the
    threads race on ``exc.__traceback__`` (every ``raise`` rewrites it),
    so a traceback captured in one thread could show frames from
    another.  Each waiter gets its own copy instead, chained to the
    original via ``__cause__`` so nothing about the root failure is lost.
    """
    try:
        copy = type(exc)(*exc.args)
    except Exception:
        # Exotic constructor signature: fall back to a plain wrapper.
        copy = RuntimeError(f"{type(exc).__name__}: {exc}")
    copy.__cause__ = exc
    return copy


class _Flight:
    """One in-progress computation and the callers waiting on it."""

    __slots__ = ("done", "value", "error", "waiters")

    def __init__(self) -> None:
        self.done = False
        self.value: Any = None
        self.error: BaseException | None = None
        self.waiters = 1


def _is_versioned_key(key: Hashable) -> bool:
    """The key schema shared with ``QueryEngine``: a non-empty tuple whose
    last element is the integer graph version (``(k, tau, version)`` --
    the version always rides last, whatever leads).
    ``purge_stale`` relies on this shape; ``bool`` is excluded because it
    is an ``int`` subtype but never a version."""
    return (
        isinstance(key, tuple)
        and len(key) > 0
        and isinstance(key[-1], int)
        and not isinstance(key[-1], bool)
    )


class ResultCache:
    """Bounded LRU mapping with hit/miss/eviction accounting."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        # One condition for every flight (waiters re-check their own):
        # cheaper per miss than an Event per flight.
        self._landed = threading.Condition(self._lock)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._flights: Dict[Hashable, _Flight] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.purged = 0
        self.computes = 0
        self.coalesced = 0
        self.largest_flight = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; a hit refreshes the key's recency."""
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Tuple[Any, int]:
        """The miss path: ``key``'s value, computed at most once at a time.

        Returns ``(value, answered)``: ``answered`` is the number of
        callers the one computation served (1 when the value was already
        cached).  The first caller for an absent key runs ``compute``
        and caches the result; callers arriving for the same key while
        it runs wait and share it.  A failure is not cached, and every
        caller raises its own copy (see :func:`_per_waiter_error`).
        Hit/miss counters are left alone: the caller's :meth:`get`
        already counted this lookup.
        """
        with self._lock:
            value = self._entries.get(key, _MISS)
            if value is not _MISS:
                return value, 1
            flight = self._flights.get(key)
            lead = flight is None
            if lead:
                flight = self._flights[key] = _Flight()
                self.computes += 1
            else:
                flight.waiters += 1
                self.coalesced += 1
                while not flight.done:
                    self._landed.wait()
        if lead:
            try:
                flight.value = compute()
            except BaseException as exc:
                flight.error = exc
            with self._lock:
                # Retire the flight before waking anyone: ``waiters`` is
                # final from here on.
                del self._flights[key]
                flight.done = True
                if flight.error is None:
                    self._put_locked(key, flight.value)
                self.largest_flight = max(self.largest_flight, flight.waiters)
                if flight.waiters > 1:
                    self._landed.notify_all()
        if flight.error is not None:
            raise _per_waiter_error(flight.error)
        return flight.value, flight.waiters

    def purge_stale(self, current_version: int) -> int:
        """Drop entries whose version component is below ``current_version``.

        Every key must follow the version-suffixed tuple schema shared
        with ``QueryEngine`` (see :func:`_is_versioned_key`); a key that
        does not is a caller bug and raises ``ValueError`` loudly
        instead of being silently skipped and retained forever.  Returns
        the number of entries dropped.
        """
        with self._lock:
            stale = []
            for key in self._entries:
                if not _is_versioned_key(key):
                    raise ValueError(
                        f"cache key {key!r} does not follow the "
                        f"(..., graph_version) tuple schema required by "
                        f"purge_stale"
                    )
                if key[-1] < current_version:
                    stale.append(key)
            for key in stale:
                del self._entries[key]
            self.purged += len(stale)
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def _hit_rate_locked(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        with self._lock:
            return self._hit_rate_locked()

    def stats(self) -> Dict[str, object]:
        """Consistent counter snapshot: every field from one locked read.

        The whole read runs under ``_lock`` so ``hits``/``misses`` and
        ``hit_rate`` always agree; reading them field-by-field outside
        the lock produced torn snapshots under concurrent load (a rate
        computed from different counter values than the ones reported).
        """
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "purged": self.purged,
                "hit_rate": round(self._hit_rate_locked(), 4),
                "computes": self.computes,
                "coalesced": self.coalesced,
                "largest_flight": self.largest_flight,
            }
