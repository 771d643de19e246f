"""Crash-recovery tests: every fault mode either recovers exactly or
fails loudly with a structured error -- never silently wrong scores.

The scenarios map one-to-one onto the failure taxonomy in
``docs/PERSISTENCE.md``: torn final WAL record (crash during append),
corrupted section/record checksums (bit rot), missing snapshot, stale
snapshot + long WAL (crash between snapshot rename and WAL compaction),
and injected crashes at every checkpoint of the write path.
"""

import os

import pytest

from repro.core.build import build_index_fast
from repro.graph.generators import gnm_random
from repro.persistence import (
    CorruptSnapshotError,
    CorruptWALError,
    DataDirectory,
    FaultInjector,
    InjectedCrash,
    MissingSnapshotError,
    RecoveryError,
)
from repro.persistence.faults import (
    corrupt_snapshot_section,
    corrupt_wal_record,
    tear_wal_tail,
)
from repro.persistence.fsck import fsck_data_dir
from repro.persistence.store import SNAPSHOT_NAME, WAL_NAME
from repro.persistence.wal import scan_wal
from repro.service.engine import QueryEngine

QUERIES = ((5, 1), (10, 2), (3, 3))


def _base_graph():
    return gnm_random(24, 90, seed=42)


def _run_engine(tmp_dir, mutations=12, snapshot_interval=1000, faults=None):
    """Bootstrap a persistent engine and churn some mutations through it.

    Returns ``(store, engine)`` still open -- tests decide whether to
    crash, mangle files, or close cleanly.
    """
    store = DataDirectory(tmp_dir, fsync=False, faults=faults)
    dyn, _ = store.open(bootstrap_graph=_base_graph())
    engine = QueryEngine(
        dynamic_index=dyn,
        store=store,
        snapshot_interval=snapshot_interval,
    )
    for i in range(mutations):
        engine.update("insert", 100 + i, 101 + i)
    return store, engine


def _assert_matches_rebuild(dyn):
    """The acceptance-criterion oracle: recovered ≡ fresh rebuild."""
    dyn.check_invariants()
    fresh = build_index_fast(dyn.graph)
    for k, tau in QUERIES:
        assert dyn.topk(k, tau) == fresh.topk(k, tau)


class TestCleanPaths:
    def test_bootstrap_then_reopen(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=0)
        store.close()
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert not report.bootstrapped
        assert report.final_version == 0
        _assert_matches_rebuild(dyn)

    def test_wal_replay_restores_acknowledged_mutations(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=7)
        version = engine.graph_version
        store.close()  # crash-style: no engine.close(), no compaction
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.records_replayed == 7
        assert dyn.graph_version == version == 7
        _assert_matches_rebuild(dyn)

    def test_compaction_truncates_wal(self, tmp_path):
        store, engine = _run_engine(
            str(tmp_path), mutations=10, snapshot_interval=4
        )
        # 10 mutations, interval 4 -> compactions at 4 and 8; 2 left over.
        assert store.snapshots_written >= 2
        assert len(scan_wal(store.wal_path).records) == 2
        store.close()
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.records_replayed == 2
        assert dyn.graph_version == 10
        _assert_matches_rebuild(dyn)

    def test_clean_shutdown_compacts(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=5)
        engine.close()
        assert len(scan_wal(os.path.join(str(tmp_path), WAL_NAME)).records) == 0
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.records_replayed == 0
        assert dyn.graph_version == 5
        _assert_matches_rebuild(dyn)


class TestTornWAL:
    def test_torn_final_record_truncated_and_recovered(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=6)
        store.close()
        tear_wal_tail(os.path.join(str(tmp_path), WAL_NAME))
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        # Only the final (by construction unacknowledged) mutation is lost.
        assert report.records_replayed == 5
        assert report.torn_tail_truncated_bytes > 0
        assert dyn.graph_version == 5
        _assert_matches_rebuild(dyn)

    def test_injected_partial_append_is_a_real_torn_tail(self, tmp_path):
        faults = FaultInjector().crash_at("wal.append.partial")
        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.faults = faults
        store.wal._faults = faults
        with pytest.raises(InjectedCrash):
            engine.update("insert", 200, 201)
        store.wal._file.close()  # simulate the process dying
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.torn_tail_truncated_bytes > 0
        assert report.records_replayed == 3
        assert not dyn.graph.has_edge(200, 201)
        _assert_matches_rebuild(dyn)

    def test_wal_logged_but_never_applied_replays(self, tmp_path):
        """Crash after the fsync, before the index mutation: the record
        is durable, so recovery must (re)apply it."""
        faults = FaultInjector().crash_at("wal.append.after")
        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.faults = faults
        store.wal._faults = faults
        with pytest.raises(InjectedCrash):
            engine.update("insert", 200, 201)
        store.wal._file.close()
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.records_replayed == 4
        assert dyn.graph.has_edge(200, 201)
        _assert_matches_rebuild(dyn)


class TestCorruption:
    def test_corrupt_snapshot_section_fails_loudly(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=2)
        store.close()
        corrupt_snapshot_section(
            os.path.join(str(tmp_path), SNAPSHOT_NAME), b"EDGE"
        )
        with pytest.raises(CorruptSnapshotError) as info:
            DataDirectory(str(tmp_path), fsync=False).open()
        assert info.value.details["section"] == "EDGE"
        report = fsck_data_dir(str(tmp_path))
        assert not report.ok
        assert any(i.code == "corrupt_snapshot" for i in report.errors)

    def test_corrupt_mid_wal_record_fails_loudly(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=5)
        store.close()
        corrupt_wal_record(os.path.join(str(tmp_path), WAL_NAME), index=2)
        with pytest.raises(CorruptWALError):
            DataDirectory(str(tmp_path), fsync=False).open()
        report = fsck_data_dir(str(tmp_path))
        assert any(i.code == "corrupt_wal" for i in report.errors)


class TestMissingAndInconsistent:
    def test_missing_snapshot_without_bootstrap(self, tmp_path):
        with pytest.raises(MissingSnapshotError) as info:
            DataDirectory(str(tmp_path / "empty"), fsync=False).open()
        assert "path" in info.value.details

    def test_wal_without_snapshot_refuses(self, tmp_path):
        store, engine = _run_engine(str(tmp_path), mutations=4)
        store.close()
        os.remove(os.path.join(str(tmp_path), SNAPSHOT_NAME))
        with pytest.raises(RecoveryError):
            DataDirectory(str(tmp_path), fsync=False).open(
                bootstrap_graph=_base_graph()
            )

    def test_version_gap_refuses(self, tmp_path):
        from repro.persistence.wal import WriteAheadLog

        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.close()
        # Forge a record that skips a version.
        with WriteAheadLog(
            os.path.join(str(tmp_path), WAL_NAME), fsync=False
        ) as wal:
            wal.append("insert", 300, 301, 99)
        with pytest.raises(RecoveryError) as info:
            DataDirectory(str(tmp_path), fsync=False).open()
        assert info.value.details["expected"] == 4
        report = fsck_data_dir(str(tmp_path))
        assert any(i.code == "wal_version_gap" for i in report.errors)

    def test_inapplicable_record_refuses(self, tmp_path):
        from repro.persistence.wal import WriteAheadLog

        store, engine = _run_engine(str(tmp_path), mutations=1)
        store.close()
        # Claims to delete an edge the recovered graph does not have.
        with WriteAheadLog(
            os.path.join(str(tmp_path), WAL_NAME), fsync=False
        ) as wal:
            wal.append("delete", 900, 901, 2)
        with pytest.raises(RecoveryError) as info:
            DataDirectory(str(tmp_path), fsync=False).open()
        assert info.value.details["op"] == "delete"


class TestStaleSnapshotLongWAL:
    def test_crash_between_snapshot_and_compaction(self, tmp_path):
        """The WAL still holds records the snapshot already contains;
        recovery must skip them and replay only the genuine tail."""
        faults = FaultInjector().crash_at("snapshot.after_replace")
        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.faults = faults
        with pytest.raises(InjectedCrash):
            store.compact(engine.dynamic_index)
        # Snapshot is at v3 but the WAL still lists records 1..3.
        store.wal._file.close()
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.snapshot_version == 3
        assert report.records_skipped == 3
        assert report.records_replayed == 0
        assert dyn.graph_version == 3
        _assert_matches_rebuild(dyn)

    def test_crash_before_snapshot_rename_keeps_old_snapshot(self, tmp_path):
        faults = FaultInjector().crash_at("snapshot.after_tmp")
        store, engine = _run_engine(str(tmp_path), mutations=4)
        store.faults = faults
        with pytest.raises(InjectedCrash):
            store.compact(engine.dynamic_index)
        store.wal._file.close()
        assert os.path.exists(
            os.path.join(str(tmp_path), SNAPSHOT_NAME + ".tmp")
        )
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        # Old snapshot (v0) + full WAL replay; stale temp file removed.
        assert report.snapshot_version == 0
        assert report.records_replayed == 4
        assert "removed stale snapshot temp file" in report.notes
        assert not os.path.exists(
            os.path.join(str(tmp_path), SNAPSHOT_NAME + ".tmp")
        )
        _assert_matches_rebuild(dyn)

    def test_long_wal_against_old_snapshot(self, tmp_path):
        """Stale snapshot + long WAL: many records replay correctly."""
        store, engine = _run_engine(
            str(tmp_path), mutations=40, snapshot_interval=10_000
        )
        store.close()
        dyn, report = DataDirectory(str(tmp_path), fsync=False).open()
        assert report.snapshot_version == 0
        assert report.records_replayed == 40
        _assert_matches_rebuild(dyn)


class TestFsckCLI:
    def test_fsck_clean_directory(self, tmp_path, capsys):
        from repro.cli import main

        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.close()
        assert main(["fsck", str(tmp_path), "--deep"]) == 0
        out = capsys.readouterr().out
        assert "deep check passed" in out

    def test_fsck_torn_tail_is_warning_exit_1(self, tmp_path, capsys):
        from repro.cli import main

        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.close()
        tear_wal_tail(os.path.join(str(tmp_path), WAL_NAME))
        assert main(["fsck", str(tmp_path)]) == 1
        assert "torn_wal_tail" in capsys.readouterr().out

    def test_fsck_corruption_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        store, engine = _run_engine(str(tmp_path), mutations=3)
        store.close()
        corrupt_snapshot_section(
            os.path.join(str(tmp_path), SNAPSHOT_NAME), b"EDGE"
        )
        assert main(["fsck", str(tmp_path)]) == 2
        assert "CORRUPT" in capsys.readouterr().out

    def test_fsck_missing_dir(self, tmp_path):
        from repro.cli import main

        assert main(["fsck", str(tmp_path / "nope")]) == 2
