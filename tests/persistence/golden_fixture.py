"""The golden fixture: one tiny, fully deterministic snapshot + WAL.

``make_golden_bytes()`` builds the byte-exact artifacts the files under
``tests/persistence/golden/`` were committed from.  The golden test
regenerates them and compares byte-for-byte: any change to the framing,
the canonical JSON encoding, the section layout, or the CRC algorithm
shows up as a diff and must be shipped with a format-version bump and
regenerated fixtures (run this module: ``python -m
tests.persistence.golden_fixture``).  The one exception is dropping a
section the reader still accepts and ignores: ``snapshot_v1_comp.esd``
pins the earlier layout, which also carried every edge's component
partition in a ``COMP`` section, and must keep recovering.
"""

from __future__ import annotations

import os

from repro.core.maintenance import DynamicESDIndex
from repro.graph.graph import Graph
from repro.persistence.snapshot import encode_snapshot
from repro.persistence.wal import WALRecord

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
SNAPSHOT_FILE = os.path.join(GOLDEN_DIR, "snapshot.esd")
#: The same state in the earlier layout (with ``COMP``); never regenerated.
LEGACY_SNAPSHOT_FILE = os.path.join(GOLDEN_DIR, "snapshot_v1_comp.esd")
WAL_FILE = os.path.join(GOLDEN_DIR, "wal.log")

#: The fixture graph: a 4-clique on {0,1,2,3} plus pendant edge (3, 4).
#: Small enough to eyeball, rich enough to exercise nonempty components.
GOLDEN_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]

#: The WAL tail: two mutations on top of the snapshot.
GOLDEN_RECORDS = [
    WALRecord(op="insert", u=2, v=4, version=1),
    WALRecord(op="delete", u=0, v=3, version=2),
]


def make_golden_bytes():
    """Return ``(snapshot_bytes, wal_bytes)`` for the fixture state."""
    from repro.persistence import wal as wal_format

    dyn = DynamicESDIndex(Graph(GOLDEN_EDGES))
    snapshot_bytes = encode_snapshot(dyn.export_state())
    wal_bytes = wal_format._HEADER.pack(
        wal_format.MAGIC, wal_format.FORMAT_VERSION
    ) + b"".join(record.encode() for record in GOLDEN_RECORDS)
    return snapshot_bytes, wal_bytes


def regenerate() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    snapshot_bytes, wal_bytes = make_golden_bytes()
    with open(SNAPSHOT_FILE, "wb") as handle:
        handle.write(snapshot_bytes)
    with open(WAL_FILE, "wb") as handle:
        handle.write(wal_bytes)
    print(
        f"wrote {SNAPSHOT_FILE} ({len(snapshot_bytes)} bytes) and "
        f"{WAL_FILE} ({len(wal_bytes)} bytes)"
    )


if __name__ == "__main__":
    regenerate()
