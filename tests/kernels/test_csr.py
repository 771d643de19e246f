"""Unit tests for the interning table and the CSR snapshot."""

import gc

import pytest

from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.kernels.csr import CSRGraph, _SNAPSHOT_CACHE, snapshot_csr
from repro.kernels.dispatch import (
    KERNEL_MODES,
    kernel_mode,
    kernels_enabled,
    set_kernel_mode,
    use_kernels,
)
from repro.kernels.intern import VertexInterner


class TestVertexInterner:
    def test_round_trip(self):
        labels = ["b", "a", "c"]
        interner = VertexInterner(labels)
        assert len(interner) == 3
        for i, label in enumerate(labels):
            assert interner.intern(label) == i
            assert interner.label(i) == label

    def test_many_and_views(self):
        interner = VertexInterner([10, 20, 30])
        assert interner.intern_many([30, 10]) == [2, 0]
        assert interner.labels_of([1, 2]) == [20, 30]
        assert interner.labels == [10, 20, 30]
        assert interner.ids == {10: 0, 20: 1, 30: 2}

    def test_duplicate_label_rejected(self):
        with pytest.raises(ValueError):
            VertexInterner(["x", "y", "x"])

    def test_unknown_label_raises(self):
        with pytest.raises(KeyError):
            VertexInterner(["a"]).intern("zzz")


class TestCSRGraph:
    def test_degree_rank_interning(self):
        # ids must be assigned in (degree, label) order -- the paper's
        # total order, so integer comparison of ids IS the ordering.
        g = Graph([(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)])
        csr = CSRGraph.from_graph(g)
        ranked = sorted(g.vertices(), key=lambda u: (g.degree(u), u))
        assert [csr.label(i) for i in range(csr.n)] == ranked

    def test_rows_sorted_and_complete(self):
        g = erdos_renyi(60, 0.15, seed=11)
        csr = CSRGraph.from_graph(g)
        assert csr.n == g.n and csr.m == g.m
        for u in range(csr.n):
            row = list(csr.neighbor_ids(u))
            assert row == sorted(row)
            labels = {csr.label(v) for v in row}
            assert labels == g.neighbors(csr.label(u))

    def test_out_neighbors_are_higher_ranked(self):
        g = erdos_renyi(50, 0.2, seed=5)
        csr = CSRGraph.from_graph(g)
        for u in range(csr.n):
            outs = list(csr.out_neighbor_ids(u))
            assert all(v > u for v in outs)
            ins = [v for v in csr.neighbor_ids(u) if v < u]
            assert len(ins) + len(outs) == csr.degree(u)

    def test_ship_round_trip(self):
        g = erdos_renyi(40, 0.2, seed=2)
        csr = CSRGraph.from_graph(g)
        clone = CSRGraph.from_arrays(*csr.ship())
        assert clone.n == csr.n and clone.m == csr.m
        assert list(clone.offsets) == list(csr.offsets)
        assert list(clone.neighbors) == list(csr.neighbors)
        assert list(clone.dag_start) == list(csr.dag_start)
        assert clone.interner.labels == csr.interner.labels

    def test_bitset_layer(self):
        g = erdos_renyi(40, 0.25, seed=3)
        csr = CSRGraph.from_graph(g)
        assert not csr.bits_built
        adj = csr.adj_bits
        assert csr.bits_built
        for u in range(csr.n):
            members = set()
            bits = adj[u]
            while bits:
                low = bits & -bits
                members.add(low.bit_length() - 1)
                bits ^= low
            assert members == set(csr.neighbor_ids(u))
            assert csr.out_bits[u] == (adj[u] >> (u + 1)) << (u + 1)

    def test_canonical_label_edge_recompares_labels(self):
        # id order is degree order, which can invert label order.
        g = Graph([(5, 1), (5, 2), (5, 3), (1, 2)])
        csr = CSRGraph.from_graph(g)
        a, b = csr.intern(5), csr.intern(1)
        assert csr.canonical_label_edge(a, b) == (1, 5)
        assert csr.canonical_label_edge(b, a) == (1, 5)

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.n == 0 and csr.m == 0
        assert csr.bits_built  # vacuously
        assert csr.max_degree() == 0
        assert csr.directed_edge_ids() == []


class TestSnapshotCache:
    def test_cache_hit_until_mutation(self):
        g = erdos_renyi(30, 0.2, seed=1)
        first = snapshot_csr(g)
        assert snapshot_csr(g) is first
        g.add_edge(0, 29) if not g.has_edge(0, 29) else g.remove_edge(0, 29)
        second = snapshot_csr(g)
        assert second is not first
        assert snapshot_csr(g) is second

    def test_every_mutation_kind_invalidates(self):
        g = Graph([(0, 1), (1, 2)])
        for mutate in (
            lambda: g.add_vertex(99),
            lambda: g.add_edge(0, 2),
            lambda: g.remove_edge(0, 2),
            lambda: g.remove_vertex(99),
        ):
            before = snapshot_csr(g)
            revision = g.revision
            mutate()
            assert g.revision > revision
            assert snapshot_csr(g) is not before

    def test_cache_evicts_on_gc(self):
        g = Graph([(0, 1)])
        snapshot_csr(g)
        key = id(g)
        assert key in _SNAPSHOT_CACHE
        del g
        gc.collect()
        assert key not in _SNAPSHOT_CACHE

    def test_snapshot_matches_rebuild(self):
        g = erdos_renyi(30, 0.2, seed=4)
        cached = snapshot_csr(g)
        fresh = CSRGraph.from_graph(g)
        assert list(cached.neighbors) == list(fresh.neighbors)


class TestDispatch:
    def test_default_is_csr(self, monkeypatch):
        monkeypatch.delenv("ESD_KERNELS", raising=False)
        set_kernel_mode(None)
        assert kernel_mode() == "csr"
        assert kernels_enabled()

    @pytest.mark.parametrize("value", ["set", "off", "0", "false", "none", "no"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("ESD_KERNELS", value)
        set_kernel_mode(None)
        assert kernel_mode() == "set"
        assert not kernels_enabled()

    def test_unknown_env_falls_back_to_csr(self, monkeypatch):
        monkeypatch.setenv("ESD_KERNELS", "turbo-mode")
        set_kernel_mode(None)
        assert kernel_mode() == "csr"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("ESD_KERNELS", "set")
        set_kernel_mode("csr")
        try:
            assert kernel_mode() == "csr"
        finally:
            set_kernel_mode(None)

    def test_context_manager_restores(self):
        set_kernel_mode(None)
        before = kernel_mode()
        with use_kernels("set"):
            assert kernel_mode() == "set"
            with use_kernels("csr"):
                assert kernel_mode() == "csr"
            assert kernel_mode() == "set"
        assert kernel_mode() == before

    def test_modes_constant(self):
        assert set(KERNEL_MODES) == {"csr", "set"}


class TestSnapshotPatchPath:
    """Small revision deltas patch the cached CSR; large ones rebuild."""

    def _counters(self):
        from repro.kernels.counters import KERNEL_COUNTERS

        return KERNEL_COUNTERS

    def test_small_delta_patches_instead_of_rebuilding(self):
        g = erdos_renyi(40, 0.15, seed=6)
        snapshot_csr(g)
        counters = self._counters()
        patches, builds = counters.csr_patches, counters.csr_builds
        g.add_edge(0, 39) if not g.has_edge(0, 39) else g.remove_edge(0, 39)
        g.add_vertex(999)
        patched = snapshot_csr(g)
        assert counters.csr_patches == patches + 1
        assert counters.csr_builds == builds
        fresh = CSRGraph.from_graph(g)
        assert list(patched.offsets) == list(fresh.offsets)
        assert list(patched.neighbors) == list(fresh.neighbors)
        assert list(patched.dag_start) == list(fresh.dag_start)
        assert patched.interner.labels == fresh.interner.labels

    def test_patched_snapshot_is_cached(self):
        g = erdos_renyi(30, 0.2, seed=2)
        snapshot_csr(g)
        g.add_edge(0, 29) if not g.has_edge(0, 29) else g.remove_edge(0, 29)
        patched = snapshot_csr(g)
        assert snapshot_csr(g) is patched

    def test_delta_beyond_patch_limit_rebuilds(self):
        from repro.kernels.csr import PATCH_OPS_LIMIT

        g = erdos_renyi(30, 0.1, seed=3)
        snapshot_csr(g)
        counters = self._counters()
        patches, builds = counters.csr_patches, counters.csr_builds
        for i in range(PATCH_OPS_LIMIT + 1):
            g.add_vertex(10_000 + i)
        snapshot_csr(g)
        assert counters.csr_patches == patches
        assert counters.csr_builds == builds + 1

    def test_rapid_mutation_past_changelog_limit_rebuilds(self):
        """The graph's changelog is bounded; outrunning it forces a
        rebuild rather than serving a wrong patch."""
        from repro.graph.graph import CHANGELOG_LIMIT

        g = erdos_renyi(30, 0.1, seed=5)
        snapshot_csr(g)
        counters = self._counters()
        patches, builds = counters.csr_patches, counters.csr_builds
        for i in range(CHANGELOG_LIMIT + 8):
            g.add_vertex(20_000 + i)
            g.add_edge(20_000 + i, i % 30)
        assert g.changes_since(g.revision - 2 * (CHANGELOG_LIMIT + 8)) is None
        rebuilt = snapshot_csr(g)
        assert counters.csr_patches == patches
        assert counters.csr_builds == builds + 1
        fresh = CSRGraph.from_graph(g)
        assert list(rebuilt.neighbors) == list(fresh.neighbors)

    def test_interleaved_patch_chain_stays_exact(self):
        """Many small patch steps never drift from a cold rebuild."""
        import random as _random

        g = erdos_renyi(25, 0.2, seed=9)
        rng = _random.Random(13)
        snapshot_csr(g)
        for _ in range(30):
            u, v = rng.sample(sorted(g.vertices()), 2)
            if g.has_edge(u, v):
                g.remove_edge(u, v)
            else:
                g.add_edge(u, v)
            patched = snapshot_csr(g)
            fresh = CSRGraph.from_graph(g)
            assert list(patched.offsets) == list(fresh.offsets)
            assert list(patched.neighbors) == list(fresh.neighbors)
            assert patched.interner.labels == fresh.interner.labels


class TestFromEdgelist:
    """``from_edgelist`` (the snapshot-install path) ≡ ``from_graph``."""

    def test_matches_from_graph(self):
        g = erdos_renyi(35, 0.15, seed=8)
        a = CSRGraph.from_graph(g)
        b = CSRGraph.from_edgelist(sorted(g.vertices()), sorted(g.edges()))
        assert list(a.offsets) == list(b.offsets)
        assert list(a.neighbors) == list(b.neighbors)
        assert list(a.dag_start) == list(b.dag_start)
        assert a.interner.labels == b.interner.labels

    def test_isolated_vertices_keep_slots(self):
        g = Graph([(0, 1), (1, 2)])
        g.add_vertex(7)
        g.add_vertex(8)
        a = CSRGraph.from_graph(g)
        b = CSRGraph.from_edgelist(sorted(g.vertices()), sorted(g.edges()))
        assert b.n == 5 and b.m == 2
        assert list(a.offsets) == list(b.offsets)
        assert a.interner.labels == b.interner.labels
