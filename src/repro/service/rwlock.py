"""A write-preferring readers-writer lock for snapshot-consistent reads.

The query service wraps every index read (``topk``, ``score``, ``stats``)
in :meth:`RWLock.read_locked` and every mutation in
:meth:`RWLock.write_locked`.  Any number of readers share the lock, so
concurrent queries proceed in parallel (useful even under the GIL: the
index query releases it during allocation-heavy work); a writer gets
exclusive access, so a query can never observe a half-applied edge
update -- :class:`~repro.core.maintenance.DynamicESDIndex` touches the
graph, the ``M`` structures and the ``H(c)`` buckets in sequence, and only the
final state is a legal snapshot.

Write preference: once a writer is waiting, new readers queue behind it.
Updates are rare relative to queries in the intended workload, so this
bounds writer latency without starving readers for long.

The lock is not reentrant: a thread holding it in either mode must not
re-acquire it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator


class RWLock:
    """Shared/exclusive lock; see module docstring for the policy."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._waiting_writers = 0

    # -- reader side ---------------------------------------------------------

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._waiting_writers:
                self._cond.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    @contextmanager
    def read_locked(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    # -- writer side ---------------------------------------------------------

    def acquire_write(self) -> None:
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer_active or self._active_readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire")
            self._writer_active = False
            self._cond.notify_all()

    @contextmanager
    def write_locked(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()

    # -- introspection (metrics/tests) --------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time lock state (racy by nature; for diagnostics)."""
        with self._cond:
            return {
                "active_readers": self._active_readers,
                "writer_active": self._writer_active,
                "waiting_writers": self._waiting_writers,
            }
