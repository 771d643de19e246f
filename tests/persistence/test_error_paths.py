"""Structured-error and edge-branch coverage for the persistence layer.

The happy paths and the headline fault modes live in
``test_store_recovery.py``; this module pins down the remaining error
branches -- every one must raise (or report) the *structured* error it
documents, because recovery code that fails with the wrong exception is
recovery code that a caller will mishandle.
"""

import json
import os
import struct
import zlib

import pytest

from repro.core.maintenance import DynamicESDIndex
from repro.graph.generators import gnm_random
from repro.graph.graph import Graph
from repro.persistence import (
    CorruptSnapshotError,
    CorruptWALError,
    DataDirectory,
    RecoveryError,
    WALRecord,
    WriteAheadLog,
    fsck_data_dir,
)
from repro.persistence import format as container
from repro.persistence import wal as wal_format
from repro.persistence.faults import (
    corrupt_snapshot_section,
    corrupt_wal_record,
    flip_byte,
    tear_wal_tail,
    FaultInjector,
)
from repro.persistence.snapshot import write_snapshot
from repro.persistence.store import RecoveryReport, replay_records
from repro.persistence.wal import scan_wal, truncate_torn_tail


class TestContainerErrors:
    def test_bad_tag_length_rejected(self):
        with pytest.raises(ValueError):
            container.encode_container("k", [(b"TOOLONG", b"x")])

    def test_manual_meta_rejected(self):
        with pytest.raises(ValueError):
            container.encode_container("k", [(container.META_TAG, b"{}")])

    def test_duplicate_section_rejected(self):
        good = container.encode_container("k", [(b"DATA", b"x")])
        # Append a second copy of the DATA section verbatim; also fix
        # META? No -- duplicate detection must fire before the declared
        # section list is consulted, so the raw append is enough.
        offset = container._HEADER.size
        tag, length, _ = container._SECTION.unpack_from(good, offset)
        assert tag == container.META_TAG
        offset += container._SECTION.size + length
        dup = good + good[offset:]
        with pytest.raises(CorruptSnapshotError) as info:
            container.decode_container(dup, expect_kind="k")
        assert "duplicate" in info.value.message

    def test_missing_meta_rejected(self):
        payload = b"x"
        section = (
            container._SECTION.pack(
                b"DATA", len(payload), zlib.crc32(payload) & 0xFFFFFFFF
            )
            + payload
        )
        raw = (
            container._HEADER.pack(
                container.MAGIC, container.FORMAT_VERSION
            )
            + section
        )
        with pytest.raises(CorruptSnapshotError) as info:
            container.decode_container(raw, expect_kind="k")
        assert "META" in info.value.message

    def test_meta_not_json_rejected(self):
        payload = b"not json {"
        section = (
            container._SECTION.pack(
                container.META_TAG,
                len(payload),
                zlib.crc32(payload) & 0xFFFFFFFF,
            )
            + payload
        )
        raw = (
            container._HEADER.pack(
                container.MAGIC, container.FORMAT_VERSION
            )
            + section
        )
        with pytest.raises(CorruptSnapshotError) as info:
            container.decode_container(raw, expect_kind="k")
        assert "not valid JSON" in info.value.message

    def test_json_section_missing_and_malformed(self):
        with pytest.raises(CorruptSnapshotError) as info:
            container.json_section({}, b"GONE")
        assert "missing required section" in info.value.message
        with pytest.raises(CorruptSnapshotError) as info:
            container.json_section({b"BADJ": b"{half"}, b"BADJ")
        assert "not valid JSON" in info.value.message


class TestWALErrors:
    def _write(self, path, body):
        with open(path, "wb") as handle:
            handle.write(body)

    def test_torn_at_file_birth(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, b"ESDW")  # shorter than the 12-byte header
        report = scan_wal(path)
        assert report.torn and report.torn_tail_bytes == 4
        assert report.records == []

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(path, wal_format._HEADER.pack(wal_format.MAGIC, 99))
        with pytest.raises(CorruptWALError) as info:
            scan_wal(path)
        assert "version" in info.value.message

    def test_implausible_length_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        body = wal_format._HEADER.pack(
            wal_format.MAGIC, wal_format.FORMAT_VERSION
        ) + wal_format._RECORD.pack(wal_format.MAX_RECORD_BYTES + 1, 0)
        self._write(path, body)
        with pytest.raises(CorruptWALError) as info:
            scan_wal(path)
        assert "implausible" in info.value.message

    def _framed(self, payload):
        return (
            wal_format._RECORD.pack(
                len(payload), zlib.crc32(payload) & 0xFFFFFFFF
            )
            + payload
        )

    def test_non_json_payload_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        self._write(
            path,
            wal_format._HEADER.pack(
                wal_format.MAGIC, wal_format.FORMAT_VERSION
            )
            + self._framed(b"garbage but CRC-valid"),
        )
        with pytest.raises(CorruptWALError) as info:
            scan_wal(path)
        assert "not valid JSON" in info.value.message

    def test_invalid_shape_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        payload = json.dumps({"op": "explode", "u": 1}).encode()
        self._write(
            path,
            wal_format._HEADER.pack(
                wal_format.MAGIC, wal_format.FORMAT_VERSION
            )
            + self._framed(payload),
        )
        with pytest.raises(CorruptWALError) as info:
            scan_wal(path)
        assert "invalid shape" in info.value.message

    def test_truncate_noop_when_not_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append("insert", 1, 2, 1)
        report = scan_wal(path)
        assert not report.torn
        assert truncate_torn_tail(path, report) == 0
        assert len(scan_wal(path).records) == 1

    def test_append_rejects_unknown_op(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log", fsync=False) as wal:
            with pytest.raises(ValueError):
                wal.append("upsert", 1, 2, 1)

    def test_close_is_idempotent(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=False)
        wal.close()
        wal.close()

    def test_fsync_append_and_reset(self, tmp_path):
        """Exercise the fsync=True branches (the tests above use
        fsync=False for speed)."""
        with WriteAheadLog(tmp_path / "wal.log", fsync=True) as wal:
            wal.append("insert", 1, 2, 1)
            wal.reset()
            assert wal.size_bytes() == wal_format._HEADER.size


class TestFaultToolErrors:
    def test_injector_disarm_and_visited(self):
        faults = FaultInjector().crash_at("p")
        assert faults.armed("p")
        faults.disarm("p")
        assert not faults.armed("p")
        faults.check("p")  # disarmed: records the visit, does not raise
        assert faults.visited == ["p"]

    def test_tear_empty_wal_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        WriteAheadLog(path, fsync=False).close()
        with pytest.raises(ValueError):
            tear_wal_tail(path)

    def test_flip_byte_bounds(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"abc")
        flip_byte(path, -1)
        assert path.read_bytes()[:2] == b"ab"
        with pytest.raises(ValueError):
            flip_byte(path, 3)

    def test_corrupt_wal_record_bounds(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, fsync=False) as wal:
            wal.append("insert", 1, 2, 1)
        with pytest.raises(ValueError):
            corrupt_wal_record(path, index=5)
        empty = tmp_path / "empty.log"
        WriteAheadLog(empty, fsync=False).close()
        with pytest.raises(ValueError):
            corrupt_wal_record(empty)

    def test_corrupt_snapshot_missing_section(self, tmp_path):
        path = tmp_path / "snap.esd"
        state = DynamicESDIndex(Graph([(0, 1)])).export_state()
        write_snapshot(path, state, fsync=False)
        with pytest.raises(ValueError):
            corrupt_snapshot_section(path, b"NOPE")


class TestSnapshotValidationErrors:
    def test_edge_count_mismatch(self, tmp_path):
        # STAT's counts are derived at encode time, so the only way this
        # branch fires is a file whose STAT bytes were altered with a
        # recomputed CRC -- patch "m" in place exactly like that.
        state = DynamicESDIndex(Graph([(0, 1), (1, 2)])).export_state()
        path = tmp_path / "bad.esd"
        write_snapshot(path, state, fsync=False)
        raw = path.read_bytes()
        offset = container._HEADER.size
        while True:
            tag, length, _crc = container._SECTION.unpack_from(raw, offset)
            if tag == b"STAT":
                break
            offset += container._SECTION.size + length
        start = offset + container._SECTION.size
        patched = raw[start : start + length].replace(b'"m":2', b'"m":3')
        assert patched != raw[start : start + length]
        path.write_bytes(
            raw[: offset + 4]
            + struct.pack(
                ">QI", len(patched), zlib.crc32(patched) & 0xFFFFFFFF
            )
            + patched
            + raw[start + length :]
        )
        from repro.persistence.snapshot import read_snapshot

        with pytest.raises(CorruptSnapshotError) as info:
            read_snapshot(path)
        assert "edge count" in info.value.message

    def test_malformed_edge_entry(self, tmp_path):
        state = DynamicESDIndex(Graph([(0, 1)])).export_state()
        state["edges"][0] = [0, 1, 2]
        path = tmp_path / "bad.esd"
        write_snapshot(path, state, fsync=False)
        from repro.persistence.snapshot import read_snapshot

        with pytest.raises(CorruptSnapshotError) as info:
            read_snapshot(path)
        assert "malformed edge" in info.value.message

    def test_fsync_write_path(self, tmp_path):
        from repro.persistence.snapshot import read_snapshot

        state = DynamicESDIndex(Graph([(0, 1)])).export_state()
        write_snapshot(tmp_path / "s.esd", state, fsync=True)
        assert read_snapshot(tmp_path / "s.esd")["edges"] == [(0, 1)]


class TestStoreErrors:
    def test_recovery_report_to_dict(self):
        report = RecoveryReport(bootstrapped=True, final_version=3)
        as_dict = report.to_dict()
        assert as_dict["bootstrapped"] is True
        assert as_dict["final_version"] == 3
        assert sorted(as_dict) == sorted(
            [
                "bootstrapped", "snapshot_version", "records_replayed",
                "records_skipped", "torn_tail_truncated_bytes",
                "final_version", "notes",
            ]
        )

    def test_replay_version_regression_mid_log(self):
        dyn = DynamicESDIndex(Graph([(0, 1)]))
        records = [
            WALRecord("insert", 5, 6, 1),
            WALRecord("insert", 7, 8, 1),  # backwards after a replay
        ]
        with pytest.raises(RecoveryError) as info:
            replay_records(dyn, records)
        assert "backwards" in info.value.message

    def test_replay_detects_version_divergence(self, monkeypatch):
        """If the index's version counter ever disagrees with the WAL
        after an apply, replay must halt rather than continue drifting."""
        dyn = DynamicESDIndex(Graph([(0, 1)]))
        real = DynamicESDIndex.insert_edge

        def double_bump(self, u, v):
            stats = real(self, u, v)
            self._version += 1
            return stats

        monkeypatch.setattr(DynamicESDIndex, "insert_edge", double_bump)
        with pytest.raises(RecoveryError) as info:
            replay_records(dyn, [WALRecord("insert", 5, 6, 1)])
        assert "diverged" in info.value.message

    def test_append_wal_requires_open(self, tmp_path):
        store = DataDirectory(str(tmp_path / "d"), fsync=False)
        with pytest.raises(RuntimeError):
            store.append_wal("insert", 1, 2, 1)

    def test_stats_and_context_manager(self, tmp_path):
        with DataDirectory(str(tmp_path / "d"), fsync=False) as store:
            dyn, _ = store.open(bootstrap_graph=Graph([(0, 1)]))
            store.append_wal("insert", 0, 2, 1)
            stats = store.stats()
            assert stats["wal_appends"] == 1
            assert stats["snapshots_written"] == 1  # the bootstrap one
            assert stats["fsync"] is False
        assert store.wal is None  # __exit__ closed it

    def test_fsync_true_end_to_end(self, tmp_path):
        """One full bootstrap → mutate → compact → recover cycle with
        real fsync calls (other tests disable them for speed)."""
        store = DataDirectory(str(tmp_path / "d"), fsync=True)
        dyn, _ = store.open(bootstrap_graph=gnm_random(8, 12, seed=1))
        store.append_wal("insert", 100, 101, 1)
        dyn.insert_edge(100, 101)
        store.compact(dyn)
        store.close()
        dyn2, report = DataDirectory(str(tmp_path / "d"), fsync=True).open()
        assert not report.bootstrapped
        assert dyn2.graph_version == 1
        assert dyn2.graph.has_edge(100, 101)


class TestFsckReportPaths:
    def _data_dir(self, tmp_path, graph=None):
        store = DataDirectory(str(tmp_path / "d"), fsync=False)
        dyn, _ = store.open(
            bootstrap_graph=graph or gnm_random(10, 20, seed=2)
        )
        return store, dyn, str(tmp_path / "d")

    def test_missing_snapshot_is_error(self, tmp_path):
        os.makedirs(tmp_path / "d")
        WriteAheadLog(tmp_path / "d" / "wal.log", fsync=False).close()
        report = fsck_data_dir(str(tmp_path / "d"))
        assert not report.ok
        assert any(i.code == "missing_snapshot" for i in report.errors)

    def test_missing_wal_is_warning_only(self, tmp_path):
        store, dyn, path = self._data_dir(tmp_path)
        store.close()
        os.remove(os.path.join(path, "wal.log"))
        report = fsck_data_dir(path)
        assert report.ok
        assert any(i.code == "missing_wal" for i in report.warnings)

    def test_wal_version_regression_reported(self, tmp_path):
        store, dyn, path = self._data_dir(tmp_path)
        store.append_wal("insert", 50, 51, 1)
        store.append_wal("insert", 52, 53, 0)  # regression after replayable
        store.close()
        report = fsck_data_dir(path)
        assert not report.ok
        assert any(
            i.code == "wal_version_regression" for i in report.errors
        )

    def test_deep_replay_failure_reported(self, tmp_path):
        store, dyn, path = self._data_dir(tmp_path)
        # Contiguous version, inapplicable op: passes the structural
        # phase, fails the deep replay.
        store.append_wal("delete", 900, 901, 1)
        store.close()
        report = fsck_data_dir(path, deep=True)
        assert not report.ok
        assert any(i.code == "replay_failed" for i in report.errors)

    @staticmethod
    def _k4_data_dir(tmp_path):
        os.makedirs(tmp_path / "d")
        dyn = DynamicESDIndex(
            Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        )
        write_snapshot(
            tmp_path / "d" / "snapshot.esd", dyn.export_state(), fsync=False
        )
        WriteAheadLog(tmp_path / "d" / "wal.log", fsync=False).close()
        return str(tmp_path / "d")

    @staticmethod
    def _split_one_partition(monkeypatch):
        """Make the restore derive one wrong ``M``: the first multi-member
        component is split into singletons, and the index is loaded from
        the wrong sizes.  A snapshot holds only the graph, so this is the
        one way a restore can disagree with its own graph."""
        from repro.core import maintenance
        from repro.core.build import index_from_sizes
        from repro.structures.dsu import EdgeComponentSets

        derive = maintenance.build_index_fast_with_components

        def split(graph):
            _index, components = derive(graph)
            for edge, m in components.items():
                if any(len(group) >= 2 for group in m.groups().values()):
                    components[edge] = EdgeComponentSets(m.members())
                    break
            else:
                pytest.fail("fixture graph has no multi-member component")
            sizes = {e: m.component_sizes() for e, m in components.items()}
            return index_from_sizes(sizes), components

        monkeypatch.setattr(
            maintenance, "build_index_fast_with_components", split
        )

    def test_deep_invariant_violation_reported(self, tmp_path, monkeypatch):
        """A restore whose derived partitions disagree with its own graph
        must be caught by the deep check, not served."""
        # K4: edge (0,1) sees the adjacent pair {2,3} as one component.
        path = self._k4_data_dir(tmp_path)
        self._split_one_partition(monkeypatch)
        report = fsck_data_dir(path, deep=True)
        assert not report.ok
        assert any(
            i.code == "invariant_violation" for i in report.errors
        )

    def test_deep_topk_mismatch_is_last_line_of_defense(
        self, tmp_path, monkeypatch
    ):
        """With invariant checking disabled, a wrong-partition restore
        must still fail the top-k comparison against a fresh rebuild."""
        monkeypatch.setattr(
            DynamicESDIndex, "check_invariants", lambda self: None
        )
        path = self._k4_data_dir(tmp_path)
        self._split_one_partition(monkeypatch)
        report = fsck_data_dir(path, deep=True)
        assert not report.ok
        assert any(i.code == "topk_mismatch" for i in report.errors)
