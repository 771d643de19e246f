"""Snapshot encoding: one durable image of a :class:`DynamicESDIndex`.

A snapshot stores the graph and nothing derived from it.  The paper's
``M`` structures are by definition the component partitions of the
edge ego-networks ``G_N(uv)`` (§IV, Algorithm 3), so the graph alone
fixes them: restoring derives ``M`` and the ESDIndex through the same
build path as a cold start
(:meth:`~repro.core.maintenance.DynamicESDIndex.from_state`).

Container layout (see :mod:`repro.persistence.format` for framing):

=======  ==============================================================
``STAT``  ``{"graph_version", "insertions", "deletions", "n", "m"}``
``VERT``  sorted vertex list (isolated vertices would be lost from the
          edge list alone)
``EDGE``  sorted canonical edge list, each ``[u, v]``
=======  ==============================================================

Earlier snapshots also carried a ``COMP`` section: every edge's
component partition, aligned with ``EDGE``.  On dblp x4 it made the
snapshot 4.5x larger (1.23 MB against 0.28 MB for the graph), and
exporting plus encoding it took 134 ms against 19 ms, under the write
lock of every compaction -- to save ~120 ms on a restore, which now
derives the partitions by bitset flood fill like a cold build does
(docs/PERSISTENCE.md has the measurements).  A ``COMP`` section in an
older file is still CRC-checked by the container and then ignored, so
existing data directories recover without a migration.

Vertices must round-trip through JSON (ints / strings); this matches
the service protocol's constraint, so anything servable is snapshotable.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.persistence.errors import CorruptSnapshotError
from repro.persistence.format import (
    decode_container,
    encode_container,
    encode_json,
    json_section,
)

SNAPSHOT_KIND = "esd-datadir-snapshot"


def encode_snapshot(state: Dict[str, Any]) -> bytes:
    """Serialize an exported dynamic-index state to container bytes."""
    stat = {
        "graph_version": state["graph_version"],
        "insertions": state["insertions"],
        "deletions": state["deletions"],
        "n": len(state["vertices"]),
        "m": len(state["edges"]),
    }
    return encode_container(
        SNAPSHOT_KIND,
        [
            (b"STAT", encode_json(stat)),
            (b"VERT", encode_json(state["vertices"])),
            (b"EDGE", encode_json(state["edges"])),
        ],
    )


def write_snapshot(path, state: Dict[str, Any], *, fsync: bool = True) -> int:
    """Write a snapshot file; returns the byte size written.

    Callers wanting atomicity write to a temp name and ``os.replace``
    (that is what :class:`~repro.persistence.store.DataDirectory` does).
    """
    data = encode_snapshot(state)
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            import os

            os.fsync(handle.fileno())
    return len(data)


def read_snapshot(path) -> Dict[str, Any]:
    """Read + validate a snapshot file; return the state dict."""
    with open(path, "rb") as handle:
        data = handle.read()
    return decode_snapshot(data, path=path)


def decode_snapshot(data: bytes, *, path=None) -> Dict[str, Any]:
    """Validate snapshot bytes (file or wire) and return the state dict.

    Beyond the framing checks, cross-validates the section contents
    against each other (counts, canonical edge form) so a
    *logically* inconsistent snapshot fails loudly here rather than as a
    mystery during replay.  The replication path
    (:mod:`repro.cluster.replication`) ships these same bytes to
    replicas, so a snapshot that survives this function is loadable
    whether it arrived from disk or from the writer.
    """
    sections = decode_container(data, expect_kind=SNAPSHOT_KIND, path=path)
    stat = json_section(sections, b"STAT", path)
    vertices = json_section(sections, b"VERT", path)
    edges = json_section(sections, b"EDGE", path)

    for field in ("graph_version", "insertions", "deletions", "n", "m"):
        if not isinstance(stat.get(field), int) or stat[field] < 0:
            raise CorruptSnapshotError(
                "STAT field missing or invalid", field=field,
                value=stat.get(field), path=str(path),
            )
    if len(vertices) != stat["n"]:
        raise CorruptSnapshotError(
            "vertex count mismatch", declared=stat["n"],
            actual=len(vertices), path=str(path),
        )
    if len(edges) != stat["m"]:
        raise CorruptSnapshotError(
            "edge count mismatch", declared=stat["m"],
            actual=len(edges), path=str(path),
        )
    vertex_set = set(vertices)
    for i, pair in enumerate(edges):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CorruptSnapshotError(
                "malformed edge entry", index=i, entry=pair, path=str(path)
            )
        u, v = pair
        if u not in vertex_set or v not in vertex_set or not u < v:
            raise CorruptSnapshotError(
                "edge is not canonical over the vertex set",
                index=i, entry=pair, path=str(path),
            )
    return {
        "graph_version": stat["graph_version"],
        "insertions": stat["insertions"],
        "deletions": stat["deletions"],
        "vertices": vertices,
        "edges": [tuple(pair) for pair in edges],
    }
