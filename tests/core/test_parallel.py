"""Tests for the parallel index construction (PESDIndex+)."""

import pytest

from repro.core import (
    build_index_fast,
    build_index_parallel,
    parallel_component_sizes,
    parallel_four_cliques,
    simulate_parallel_speedup,
)
from repro.cliques import iter_four_cliques
from repro.core.diversity import ego_component_sizes
from repro.graph import Graph, erdos_renyi, load_dataset


def indexes_equal(a, b) -> bool:
    if a.size_classes != b.size_classes:
        return False
    return all(a.class_list(c) == b.class_list(c) for c in a.size_classes)


def _failing_chunk(chunk):
    """Pool worker stand-in that always raises (module level: picklable)."""
    raise RuntimeError("worker failed")


class TestParallelBuild:
    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_matches_sequential(self, threads):
        g = load_dataset("youtube", scale=0.3)
        assert indexes_equal(
            build_index_fast(g), build_index_parallel(g, threads=threads)
        )

    def test_fig1(self, fig1):
        assert indexes_equal(
            build_index_fast(fig1), build_index_parallel(fig1, threads=2)
        )

    def test_empty_graph(self):
        index = build_index_parallel(Graph(), threads=2)
        assert index.size_classes == []

    def test_thread_validation(self, triangle):
        with pytest.raises(ValueError):
            build_index_parallel(triangle, threads=-1)

    def test_default_thread_count(self, triangle):
        # threads=0 -> cpu count; must still be correct.
        assert indexes_equal(
            build_index_fast(triangle), build_index_parallel(triangle, threads=0)
        )


class TestParallelComponentSizes:
    def test_matches_direct(self, fig1):
        sizes = parallel_component_sizes(fig1, threads=2)
        for (u, v), s in sizes.items():
            assert sorted(s) == sorted(ego_component_sizes(fig1, u, v))

    def test_edges_without_common_neighbors_absent(self):
        g = Graph([(0, 1), (1, 2)])
        assert parallel_component_sizes(g, threads=1) == {}


class TestParallelFourCliques:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_sequential_enumeration(self, fig1, threads):
        expected = {tuple(sorted(c)) for c in iter_four_cliques(fig1)}
        got = {tuple(sorted(c)) for c in parallel_four_cliques(fig1, threads=threads)}
        assert got == expected

    def test_random_graph(self):
        g = erdos_renyi(40, 0.25, seed=7)
        expected = sorted(tuple(sorted(c)) for c in iter_four_cliques(g))
        got = sorted(tuple(sorted(c)) for c in parallel_four_cliques(g, threads=2))
        assert got == expected


class TestSpeedupSimulation:
    def test_monotone_and_bounded(self):
        g = load_dataset("pokec", scale=0.4)
        results = [simulate_parallel_speedup(g, t) for t in (1, 2, 4)]
        speedups = [r["speedup"] for r in results]
        assert speedups[0] == pytest.approx(1.0, abs=0.05)
        assert speedups == sorted(speedups)
        for t, r in zip((1, 2, 4), results):
            assert r["speedup"] <= t + 0.5

    def test_reports_phases(self):
        g = load_dataset("youtube", scale=0.2)
        r = simulate_parallel_speedup(g, 2)
        assert set(r) >= {
            "threads", "serial_work", "parallel_work", "speedup"
        }
        assert r["parallel_work"] > 0


class TestPoolLifecycle:
    """Regression: the pool used to be created inside a generator, so an
    abandoned iterator suspended mid-``with`` kept the worker processes
    alive and ``_WORKER_DAG`` pinned until GC ran the generator's
    finalizer.  Enumeration is eager now: by the time the iterator is
    handed back, the pool is torn down and the module state cleared."""

    def test_abandoned_iterator_leaks_no_workers(self):
        import multiprocessing
        import time as _time

        from repro.core import parallel as parallel_mod

        g = erdos_renyi(40, 0.25, seed=7)
        before = {p.pid for p in multiprocessing.active_children()}
        iterator = parallel_four_cliques(g, threads=2)
        next(iterator, None)  # partially consume ...
        # ... then abandon it.  No GC needed: the pool must already be
        # gone and the fork-inherited module state already cleared.
        assert parallel_mod._WORKER_DAG is None
        deadline = _time.time() + 10
        while _time.time() < deadline:
            leaked = {
                p.pid for p in multiprocessing.active_children()
            } - before
            if not leaked:
                break
            _time.sleep(0.05)
        assert not leaked, f"worker processes outlived the call: {leaked}"

    def test_inline_path_also_clears_state(self, fig1):
        from repro.core import parallel as parallel_mod

        iterator = parallel_four_cliques(fig1, threads=1)
        assert parallel_mod._WORKER_DAG is None
        assert list(iterator)  # the results themselves are still intact

    def test_kernel_pool_clears_worker_csr(self):
        from repro.core import parallel as parallel_mod
        from repro.kernels.dispatch import use_kernels

        g = erdos_renyi(120, 0.12, seed=8)
        with use_kernels("csr"):
            assert parallel_component_sizes(g, threads=2)
        assert parallel_mod._WORKER_CSR is None

    def test_kernel_pool_clears_worker_csr_when_a_worker_raises(
        self, monkeypatch
    ):
        from repro.core import parallel as parallel_mod
        from repro.kernels.dispatch import use_kernels

        monkeypatch.setattr(
            parallel_mod, "_component_sizes_chunk_ids", _failing_chunk
        )
        g = erdos_renyi(120, 0.12, seed=8)
        with use_kernels("csr"):
            with pytest.raises(RuntimeError, match="worker failed"):
                parallel_component_sizes(g, threads=2)
        assert parallel_mod._WORKER_CSR is None


class TestCostBalancedChunks:
    """LPT scheduling of edges by |N(u) ∩ N(v)|-proportional cost."""

    @staticmethod
    def _skew_graph():
        # One hub pair with a huge common neighborhood (a single very
        # heavy edge), its cost-2 spokes, and a tail of disjoint cost-1
        # path edges: the shape that broke the old round-robin dealing.
        edges = [(0, 1)]
        for w in range(2, 22):
            edges += [(0, w), (1, w)]
        for i in range(30):
            edges.append((100 + 2 * i, 100 + 2 * i + 1))
        return Graph(edges)

    def test_chunks_partition_edges(self):
        from repro.core.parallel import _cost_balanced_chunks

        g = self._skew_graph()
        chunks = _cost_balanced_chunks(g, 4)
        flat = [e for chunk in chunks for e in chunk]
        assert len(flat) == g.m
        assert set(flat) == set(g.edges())

    def test_deterministic(self):
        from repro.core.parallel import _cost_balanced_chunks

        g = erdos_renyi(50, 0.15, seed=21)
        assert _cost_balanced_chunks(g, 3) == _cost_balanced_chunks(g, 3)

    def test_lpt_beats_round_robin_on_skew(self):
        from repro.core.parallel import _cost_balanced_chunks, _edge_costs

        g = self._skew_graph()
        parts = 4
        costs = _edge_costs(g)

        def makespan(chunks):
            return max(sum(costs[e] for e in chunk) for chunk in chunks)

        lpt = makespan(_cost_balanced_chunks(g, parts))
        # The replaced strategy: deal the descending-cost edges
        # round-robin.  The stride after the one heavy edge lands every
        # heavy spoke of its residue class on the same worker.
        ordered = sorted(costs, key=lambda e: (-costs[e], e))
        round_robin = makespan(ordered[i::parts] for i in range(parts))
        assert lpt < round_robin

    def test_greedy_makespan_bound(self):
        # List scheduling guarantees makespan <= avg + max single cost;
        # LPT is strictly stronger, so the bound must hold everywhere.
        from repro.core.parallel import _cost_balanced_chunks, _edge_costs

        for seed in (1, 5, 9):
            g = erdos_renyi(60, 0.2, seed=seed)
            for parts in (2, 3, 8):
                costs = _edge_costs(g)
                chunks = _cost_balanced_chunks(g, parts)
                makespan = max(
                    sum(costs[e] for e in chunk) for chunk in chunks
                )
                assert makespan <= sum(costs.values()) / parts + max(
                    costs.values()
                )

    def test_both_modes_agree_on_chunks(self):
        # Kernel and set cost estimates are the same numbers, so the
        # schedule must be identical in both modes.
        from repro.core.parallel import _cost_balanced_chunks
        from repro.kernels.dispatch import use_kernels

        g = erdos_renyi(40, 0.2, seed=12)
        with use_kernels("csr"):
            a = _cost_balanced_chunks(g, 3)
        with use_kernels("set"):
            b = _cost_balanced_chunks(g, 3)
        assert a == b


class TestKernelPoolRoute:
    """The CSR kernel route fans id-pair chunks out to a fork pool whose
    workers inherit the parent's bit-packed CSR snapshot."""

    def test_pool_route_matches_sequential(self):
        from repro.kernels.dispatch import use_kernels

        # Large enough that m >= 4 * threads engages the pool route.
        g = erdos_renyi(120, 0.12, seed=8)
        assert g.m >= 4 * 2
        with use_kernels("csr"):
            sizes = parallel_component_sizes(g, threads=2)
        expected = {
            (u, v): sorted(ego_component_sizes(g, u, v))
            for u, v in g.edges()
            if g.common_neighbors(u, v)
        }
        assert {e: sorted(s) for e, s in sizes.items()} == expected

    def test_bitsets_packed_before_fork(self):
        # Workers read adj_bits straight away; packing them in the parent
        # means no worker repeats the work after the fork.
        from repro.kernels.csr import snapshot_csr
        from repro.kernels.dispatch import use_kernels

        g = erdos_renyi(120, 0.12, seed=8)
        with use_kernels("csr"):
            parallel_component_sizes(g, threads=2)
            assert snapshot_csr(g).bits_built
