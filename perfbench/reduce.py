"""Reduce the span dumps of a traced run to per-layer samples.

Each server process of a traced run writes ``spans-<pid>.bin`` (see
``trace/sitecustomize.py``).  A span's self time is its duration minus
the durations of its direct children; spans are kept only when they
start inside one of the measured windows.
"""

from __future__ import annotations

import glob
import json
import os
from array import array
from collections import defaultdict
from typing import Dict, List, Tuple

Window = Tuple[int, int]


def role_of(argv: List[str]) -> str:
    """Which server process a dump came from."""
    if "replica" in argv:
        return "replica"
    if "writer" in argv:
        return "writer"
    if "start" in argv:
        return "router"
    return "serve"


class Spans:
    """Per-layer samples collected from every dump of one traced run."""

    def __init__(self, trace_dir: str, windows: List[Window]) -> None:
        #: (role, span name) -> durations in ns
        self.durations: Dict[Tuple[str, str], List[int]] = defaultdict(list)
        #: (role, span name) -> self times in ns
        self.self_times: Dict[Tuple[str, str], List[int]] = defaultdict(list)
        #: (role, span name) -> auxiliary values (edges rescored)
        self.aux: Dict[Tuple[str, str], List[int]] = defaultdict(list)
        #: span name -> {request id: summed duration in ns}
        self.by_request: Dict[str, Dict[int, int]] = defaultdict(dict)
        #: batcher.submit durations minus their nested engine.batch, ns
        self.batcher_wait: List[int] = []
        self.missing: set = set()
        for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.bin"))):
            self._load(path, windows)

    def _load(self, path: str, windows: List[Window]) -> None:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            payload = handle.read()
        role = role_of(header["argv"])
        names = header["names"]
        self.missing.update(header["missing"])
        offset = 0
        for thread in header["threads"]:
            count = thread["count"]
            columns = []
            for _ in range(6):
                column = array("q")
                column.frombytes(payload[offset: offset + 8 * count])
                offset += 8 * count
                columns.append(column)
            self._thread(role, names, windows, *columns)

    def _thread(self, role, names, windows, name, start, end, parent, rid, aux):
        count = len(name)
        duration = [end[i] - start[i] if end[i] else 0 for i in range(count)]
        children = [0] * count
        batch_children = [0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                children[p] += duration[i]
                if names[name[i]] == "engine.batch":
                    batch_children[p] += duration[i]
        for i in range(count):
            if not end[i] or not any(lo <= start[i] <= hi for lo, hi in windows):
                continue
            span = names[name[i]]
            key = (role, span)
            self.durations[key].append(duration[i])
            self.self_times[key].append(duration[i] - children[i])
            if span.startswith("maintenance."):
                self.aux[key].append(aux[i])
            if span == "batcher.submit":
                self.batcher_wait.append(duration[i] - batch_children[i])
            per_request = self.by_request[span]
            per_request[rid[i]] = per_request.get(rid[i], 0) + duration[i]

    def get(self, span: str, roles=("serve", "writer", "replica", "router")) -> List[int]:
        """Durations (ns) of ``span`` in the given process roles."""
        out: List[int] = []
        for role in roles:
            out.extend(self.durations.get((role, span), ()))
        return out

    def get_aux(self, span: str, roles=("serve", "writer")) -> List[int]:
        out: List[int] = []
        for role in roles:
            out.extend(self.aux.get((role, span), ()))
        return out
