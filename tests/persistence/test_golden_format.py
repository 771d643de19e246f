"""Golden-file tests: on-disk format stability, byte for byte.

The committed fixtures under ``golden/`` pin the exact bytes the current
format version produces for a tiny known state.  If any of these tests
fail, the format changed: that is only allowed together with an explicit
``FORMAT_VERSION`` bump (plus migration/compat handling) and regenerated
fixtures (``python -m tests.persistence.golden_fixture``).
"""

import shutil
import struct
import zlib

from repro.core.maintenance import DynamicESDIndex
from repro.persistence import format as container
from repro.persistence import wal as wal_format
from repro.persistence import DataDirectory, fsck_data_dir
from repro.persistence.snapshot import read_snapshot
from repro.persistence.wal import scan_wal

from tests.persistence.golden_fixture import (
    GOLDEN_EDGES,
    GOLDEN_RECORDS,
    LEGACY_SNAPSHOT_FILE,
    SNAPSHOT_FILE,
    WAL_FILE,
    make_golden_bytes,
)


def test_snapshot_bytes_are_stable():
    regenerated, _ = make_golden_bytes()
    with open(SNAPSHOT_FILE, "rb") as handle:
        committed = handle.read()
    assert regenerated == committed, (
        "snapshot encoding changed; bump FORMAT_VERSION and regenerate "
        "the golden fixtures deliberately"
    )


def test_wal_bytes_are_stable():
    _, regenerated = make_golden_bytes()
    with open(WAL_FILE, "rb") as handle:
        committed = handle.read()
    assert regenerated == committed, (
        "WAL encoding changed; bump the WAL FORMAT_VERSION and "
        "regenerate the golden fixtures deliberately"
    )


def test_header_constants_pinned():
    """The magic numbers themselves are API; freezing them here means a
    rename cannot slip through as an 'internal' refactor."""
    assert container.MAGIC == b"ESDBIN\r\n"
    assert container.FORMAT_VERSION == 1
    assert wal_format.MAGIC == b"ESDWALOG"
    assert wal_format.FORMAT_VERSION == 1
    with open(SNAPSHOT_FILE, "rb") as handle:
        assert handle.read(12) == b"ESDBIN\r\n" + struct.pack(">I", 1)
    with open(WAL_FILE, "rb") as handle:
        assert handle.read(12) == b"ESDWALOG" + struct.pack(">I", 1)


def _verified_section_tags(path):
    """Walk a committed snapshot's framing by hand, verify every section
    CRC against an independent zlib.crc32 computation, return the tags."""
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 12
    seen = []
    while offset < len(data):
        tag, length, crc = struct.unpack_from(">4sQI", data, offset)
        payload = data[offset + 16 : offset + 16 + length]
        assert len(payload) == length
        assert zlib.crc32(payload) & 0xFFFFFFFF == crc
        seen.append(tag)
        offset += 16 + length
    return seen


def test_golden_section_checksums_verify():
    assert _verified_section_tags(SNAPSHOT_FILE) == [
        b"META", b"STAT", b"VERT", b"EDGE"
    ]


def test_legacy_golden_section_checksums_verify():
    assert _verified_section_tags(LEGACY_SNAPSHOT_FILE) == [
        b"META", b"STAT", b"VERT", b"EDGE", b"COMP"
    ]


def test_golden_snapshot_loads_and_answers():
    """The committed fixture must stay loadable, not just byte-stable."""
    state = read_snapshot(SNAPSHOT_FILE)
    assert state["graph_version"] == 0
    dyn = DynamicESDIndex.from_state(state)
    assert sorted(dyn.graph.edges()) == GOLDEN_EDGES
    dyn.check_invariants()
    # 4-clique edges each see one component of size 2 in their ego-net.
    assert dyn.index.score((0, 1), 1) == 1
    assert dyn.index.score((0, 1), 2) == 1


def test_golden_wal_replays_onto_snapshot():
    state = read_snapshot(SNAPSHOT_FILE)
    dyn = DynamicESDIndex.from_state(state)
    report = scan_wal(WAL_FILE)
    assert [
        (r.op, r.u, r.v, r.version) for r in report.records
    ] == [(r.op, r.u, r.v, r.version) for r in GOLDEN_RECORDS]
    from repro.persistence.store import replay_records

    replayed, skipped = replay_records(dyn, report.records)
    assert (replayed, skipped) == (2, 0)
    assert dyn.graph.has_edge(2, 4) and not dyn.graph.has_edge(0, 3)
    dyn.check_invariants()


def _recover(tmp_path, name, snapshot_file):
    data_dir = tmp_path / name
    data_dir.mkdir()
    shutil.copyfile(snapshot_file, data_dir / "snapshot.esd")
    shutil.copyfile(WAL_FILE, data_dir / "wal.log")
    report = fsck_data_dir(str(data_dir), deep=True)
    assert report.ok and report.deep_checked, report.render()
    dyn, _ = DataDirectory(str(data_dir), fsync=False).open()
    return dyn


def test_legacy_comp_snapshot_recovers_like_current(tmp_path):
    """A data directory written before snapshots dropped ``COMP`` passes
    ``fsck --deep`` and recovers to the same state and answers."""
    current = _recover(tmp_path, "current", SNAPSHOT_FILE)
    legacy = _recover(tmp_path, "legacy", LEGACY_SNAPSHOT_FILE)
    legacy.check_invariants()
    assert legacy.export_state() == current.export_state()
    for k, tau in ((1, 1), (5, 1), (5, 2), (10, 3)):
        assert legacy.topk(k, tau) == current.topk(k, tau)
