"""State export/restore round-trips, including through disk bytes."""

import pytest

from repro.core.build import build_index_fast
from repro.core.maintenance import DynamicESDIndex
from repro.graph.generators import collaboration_network, gnm_random
from repro.graph.graph import Graph
from repro.persistence.errors import CorruptSnapshotError
from repro.persistence.snapshot import read_snapshot, write_snapshot


def _round_trip(graph, tmp_path, mutate=None):
    dyn = DynamicESDIndex(graph)
    if mutate:
        mutate(dyn)
    path = tmp_path / "snap.esd"
    write_snapshot(path, dyn.export_state(), fsync=False)
    restored = DynamicESDIndex.from_state(read_snapshot(path))
    return dyn, restored


class TestRoundTrip:
    def test_identical_queries_and_invariants(self, fig1, tmp_path):
        dyn, restored = _round_trip(fig1, tmp_path)
        restored.check_invariants()
        for k, tau in ((1, 1), (10, 2), (40, 1), (5, 4)):
            assert restored.topk(k, tau) == dyn.topk(k, tau)

    def test_preserves_version_and_counters(self, fig1, tmp_path):
        def mutate(dyn):
            dyn.insert_edge("a", "zz")
            dyn.insert_edge("b", "zz")
            dyn.delete_edge("a", "zz")

        dyn, restored = _round_trip(fig1, tmp_path, mutate)
        assert restored.graph_version == 3
        assert restored.mutation_counters.insertions == 2
        assert restored.mutation_counters.deletions == 1

    def test_restored_index_keeps_mutating_correctly(self, tmp_path):
        """The restored M structures must support further maintenance."""
        dyn, restored = _round_trip(gnm_random(18, 60, seed=9), tmp_path)
        for dyn_ in (dyn, restored):
            dyn_.insert_edge(0, 17)
            dyn_.insert_edge(1, 17)
        restored.check_invariants()
        assert restored.topk(10, 2) == dyn.topk(10, 2)

    def test_isolated_vertices_survive(self, tmp_path):
        graph = Graph([(0, 1)])
        graph.add_vertex(99)
        dyn, restored = _round_trip(graph, tmp_path)
        assert 99 in restored.graph
        assert restored.graph.n == 3

    def test_string_vertices(self, tmp_path):
        dyn, restored = _round_trip(
            collaboration_network(communities=3, community_size=8, seed=3),
            tmp_path,
        )
        restored.check_invariants()
        assert restored.topk(5, 2) == dyn.topk(5, 2)

    def test_empty_graph(self, tmp_path):
        dyn, restored = _round_trip(Graph(), tmp_path)
        assert restored.graph.n == 0
        assert restored.topk(3, 1) == []

    def test_matches_cold_rebuild(self, tmp_path):
        _, restored = _round_trip(gnm_random(25, 110, seed=4), tmp_path)
        fresh = build_index_fast(restored.graph)
        for tau in (1, 2, 3):
            assert restored.topk(50, tau) == fresh.topk(50, tau)


class TestValidation:
    def _state(self):
        return DynamicESDIndex(Graph([(0, 1), (1, 2), (0, 2)])).export_state()

    def test_count_mismatch_rejected(self, tmp_path):
        # Patch STAT's "n" in place *and* fix its CRC, so only the
        # logical cross-check (not the checksum) can catch it.
        import struct
        import zlib

        path = tmp_path / "bad.esd"
        write_snapshot(path, self._state(), fsync=False)
        raw = path.read_bytes()
        offset = 12  # walk the framing; .index() would hit META's JSON
        while True:
            tag, length, _crc = struct.unpack_from(">4sQI", raw, offset)
            if tag == b"STAT":
                break
            offset += 16 + length
        start = offset + 16
        patched = raw[start : start + length].replace(b'"n":3', b'"n":4')
        assert patched != raw[start : start + length]
        path.write_bytes(
            raw[: offset + 4]
            + struct.pack(">QI", len(patched), zlib.crc32(patched) & 0xFFFFFFFF)
            + patched
            + raw[start + length :]
        )
        with pytest.raises(CorruptSnapshotError) as info:
            read_snapshot(path)
        assert "vertex count" in info.value.message

    def test_noncanonical_edge_rejected(self, tmp_path):
        state = self._state()
        state["edges"][0] = [1, 0]
        path = tmp_path / "bad.esd"
        write_snapshot(path, state, fsync=False)
        with pytest.raises(CorruptSnapshotError) as info:
            read_snapshot(path)
        assert "canonical" in info.value.message

    def test_negative_version_rejected(self, tmp_path):
        state = self._state()
        state["graph_version"] = -1
        path = tmp_path / "bad.esd"
        write_snapshot(path, state, fsync=False)
        with pytest.raises(CorruptSnapshotError):
            read_snapshot(path)
