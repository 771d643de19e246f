"""Span recorder loaded into every server process of a traced run.

A traced run puts this directory first on the servers' ``PYTHONPATH``,
so Python imports this module at start-up in ``esd serve``, ``esd
cluster start`` and the cluster's writer and replica children alike.  It
does nothing unless ``PERFBENCH_TRACE_DIR`` is set.

It wraps the public function of each layer (``LAYERS`` below) and keeps
one span per call in per-thread arrays: name, start, end, parent span
and request id, plus one auxiliary integer (the edges a maintenance call
rescored).  Nothing is written until the process exits, when the spans
go to ``$PERFBENCH_TRACE_DIR/spans-<pid>.bin``.  A function that does
not exist in this version of the program is skipped and listed in the
dump, so the reducer can report it as absent.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import signal
import sys
import threading
import time
from array import array

_DIR = os.environ.get("PERFBENCH_TRACE_DIR")

#: (module, class or None, function, span name)
LAYERS = [
    ("repro.service.server", "ESDServer", "handle_line", "server.handle"),
    ("repro.cluster.replica", "ReplicaNode", "_on_line", "server.handle"),
    ("repro.service.protocol", None, "decode_line", "protocol.decode"),
    ("repro.service.protocol", None, "encode", "protocol.encode"),
    ("repro.service.batcher", "TopKBatcher", "submit", "batcher.submit"),
    ("repro.service.engine", "QueryEngine", "_run_batch", "engine.batch"),
    ("repro.service.engine", "QueryEngine", "topk", "engine.topk"),
    ("repro.service.engine", "QueryEngine", "update", "engine.update"),
    ("repro.service.rwlock", "RWLock", "acquire_read", "rwlock.read_wait"),
    ("repro.service.rwlock", "RWLock", "acquire_write", "rwlock.write_wait"),
    ("repro.core.maintenance", "DynamicESDIndex", "topk", "index.topk"),
    ("repro.core.maintenance", "DynamicESDIndex", "insert_edge", "maintenance.insert"),
    ("repro.core.maintenance", "DynamicESDIndex", "delete_edge", "maintenance.delete"),
    ("repro.persistence.store", "DataDirectory", "append_wal", "wal.append"),
    ("repro.persistence.store", "DataDirectory", "compact", "store.compact"),
]
#: ``MetricsRegistry.timed`` is a context manager: its own cost is the
#: time spent entering and leaving it, recorded as two leaf spans.
TIMED = ("repro.service.metrics", "MetricsRegistry", "timed", "obs.timed")

_names: list = []
_buffers: list = []
_local = threading.local()
_missing: list = []
_now = time.perf_counter_ns


class _Buffer:
    """The spans of one thread, column by column."""

    def __init__(self) -> None:
        self.thread = threading.current_thread().name
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rid = array("q")
        self.aux = array("q")
        self.stack: list = []
        self.current_rid = 0

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rid.append(self.current_rid)
        self.aux.append(0)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self.stack.pop()

    def leaf(self, name_id: int, start: int, end: int) -> None:
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.rid.append(self.current_rid)
        self.aux.append(0)
        self.start.append(start)
        self.end.append(end)

    def set_rid(self, rid: int) -> None:
        """Tag the open spans and every later span with ``rid``."""
        self.current_rid = rid
        for index in self.stack:
            self.rid[index] = rid


def _buffer() -> _Buffer:
    buf = getattr(_local, "buf", None)
    if buf is None:
        buf = _local.buf = _Buffer()
        _buffers.append(buf)
    return buf


def _name_id(name: str) -> int:
    if name not in _names:
        _names.append(name)
    return _names.index(name)


def _wrap(fn, name: str):
    name_id = _name_id(name)
    decode = name == "protocol.decode"
    maintenance = name.startswith("maintenance.")

    def traced(*args, **kwargs):
        buf = _buffer()
        index = buf.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            buf.close(index)
        if decode:
            rid = result.get("id") if isinstance(result, dict) else None
            buf.set_rid(rid if type(rid) is int else 0)
        elif maintenance:
            buf.aux[index] = getattr(result, "edges_rescored", 0)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class _TimedContext:
    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        self.inner = inner

    def __enter__(self):
        start = _now()
        value = self.inner.__enter__()
        _buffer().leaf(_TIMED_ID, start, _now())
        return value

    def __exit__(self, *exc_info):
        start = _now()
        suppress = self.inner.__exit__(*exc_info)
        _buffer().leaf(_TIMED_ID, start, _now())
        return suppress


def _wrap_timed(fn):
    def timed(self, endpoint):
        return _TimedContext(fn(self, endpoint))

    timed.__wrapped__ = fn
    return timed


def _install() -> None:
    for module_name, owner_name, attr, name in LAYERS + [TIMED]:
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            _missing.append(f"{module_name}.{owner_name or ''}.{attr}")
            continue
        wrapped = _wrap_timed(fn) if name == "obs.timed" else _wrap(fn, name)
        setattr(owner, attr, wrapped)


def _dump() -> None:
    path = os.path.join(_DIR, f"spans-{os.getpid()}.bin")
    threads = []
    blobs = []
    for buf in list(_buffers):
        columns = [buf.name, buf.start, buf.end, buf.parent, buf.rid, buf.aux]
        count = min(len(column) for column in columns)
        threads.append({"thread": buf.thread, "count": count})
        blobs.extend(column[:count].tobytes() for column in columns)
    header = {
        "pid": os.getpid(),
        "argv": sys.argv,
        "names": _names,
        "missing": _missing,
        "threads": threads,
    }
    with open(path, "wb") as handle:
        handle.write(json.dumps(header).encode() + b"\n")
        for blob in blobs:
            handle.write(blob)


def _sigterm(_signum, _frame):
    # The cluster stops its children with SIGTERM; turn it into the
    # same clean shutdown as Ctrl-C so the spans get written.
    raise KeyboardInterrupt


if _DIR:
    _TIMED_ID = _name_id(TIMED[3])
    _install()
    atexit.register(_dump)
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _sigterm)
