"""QueryEngine tests: correctness, caching, snapshot consistency, feeds."""

import threading

import pytest

from repro.core import build_index_fast
from repro.core.maintenance import DynamicESDIndex
from repro.core.monitor import TopKMonitor
from repro.graph import Graph, paper_example_graph
from repro.graph.generators import erdos_renyi
from repro.service.engine import QueryEngine
from repro.service.verify import graph_at_version, verify_topk_responses


def _items(index_topk):
    return [[u, v, s] for (u, v), s in index_topk]


class TestTopK:
    def test_matches_fresh_index(self, fig1):
        engine = QueryEngine(fig1)
        fresh = build_index_fast(fig1)
        for k, tau in [(1, 1), (5, 1), (10, 2), (3, 3)]:
            payload = engine.topk(k, tau)
            assert payload["items"] == _items(fresh.topk(k, tau))
            assert payload["graph_version"] == 0

    def test_repeat_query_hits_cache(self, fig1):
        engine = QueryEngine(fig1)
        first = engine.topk(5, 2)
        second = engine.topk(5, 2)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["items"] == first["items"]

    def test_validation(self, fig1):
        engine = QueryEngine(fig1)
        for bad in [(0, 1), (1, 0), ("5", 1), (1, True)]:
            with pytest.raises(ValueError):
                engine.topk(*bad)


class TestUpdateAndInvalidation:
    def test_update_bumps_version_and_invalidates(self, fig1):
        engine = QueryEngine(fig1)
        before = engine.topk(5, 1)
        result = engine.update("insert", "a", "p")
        assert result["graph_version"] == 1
        after = engine.topk(5, 1)
        assert after["cached"] is False  # version key changed
        assert after["graph_version"] == 1
        # and the new answer matches a from-scratch rebuild
        expected = build_index_fast(engine.dynamic_index.graph)
        assert after["items"] == _items(expected.topk(5, 1))
        assert before["graph_version"] == 0

    def test_update_errors_do_not_bump_version(self, fig1):
        engine = QueryEngine(fig1)
        with pytest.raises(ValueError):
            engine.update("insert", "a", "b")  # already present
        with pytest.raises(KeyError):
            engine.update("delete", "zz", "zy")  # absent
        with pytest.raises(ValueError):
            engine.update("upsert", "a", "b")  # unknown action
        assert engine.graph_version == 0

    def test_score_and_stats_track_updates(self, fig1):
        engine = QueryEngine(fig1)
        assert engine.stats()["mutations"]["total"] == 0
        engine.update("delete", "a", "b")
        stats = engine.stats()
        assert stats["graph_version"] == 1
        assert stats["mutations"] == {
            "insertions": 0, "deletions": 1, "total": 1,
        }
        score = engine.score("a", "b")
        assert score["in_graph"] is False and score["score"] == 0


class TestLoadIndex:
    def test_swap_serves_the_new_index_and_keeps_metrics(self, fig1):
        engine = QueryEngine(fig1)
        engine.topk(5, 2)
        other = erdos_renyi(30, 0.2, seed=3)
        engine.load_index(DynamicESDIndex(other))
        # Both indexes are at version 0: the cache must not answer.
        reply = engine.topk(5, 2)
        assert reply["cached"] is False
        assert reply["items"] == _items(build_index_fast(other).topk(5, 2))
        engine.update("insert", 1000, 1001)  # hooks follow the new index
        assert engine.topk(5, 2)["graph_version"] == 1
        assert engine.metrics_snapshot()["endpoints"]["topk"]["requests"] == 3

    def test_refused_under_a_watch(self, fig1):
        engine = QueryEngine(fig1)
        engine.watch(3, 2)
        with pytest.raises(RuntimeError):
            engine.load_index(DynamicESDIndex(paper_example_graph()))


class TestSnapshotConsistency:
    def test_concurrent_reads_audit_clean_against_replay(self):
        graph = erdos_renyi(40, 0.15, seed=7)
        engine = QueryEngine(graph)
        edges = sorted(graph.edges())
        updates = []
        payloads = []
        lock = threading.Lock()

        def writer():
            # Toggle a private slice of edges: delete then re-insert.
            for edge in edges[:20]:
                for action in ("delete", "insert"):
                    result = engine.update(action, *edge)
                    with lock:
                        updates.append((result["graph_version"], action, edge))

        def reader():
            for _ in range(12):
                payload = engine.topk(5, 1)
                with lock:
                    payloads.append((5, 1, payload))

        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(updates) == 40
        assert payloads, "readers never completed a query"
        mismatches = verify_topk_responses(graph, updates, payloads)
        assert mismatches == []

    def test_graph_at_version_detects_log_gaps(self):
        graph = Graph([(0, 1)])
        with pytest.raises(ValueError):
            graph_at_version(graph, [(2, "insert", (1, 2))], 2)
        with pytest.raises(ValueError):
            graph_at_version(graph, [(1, "insert", (1, 2))], 5)


class TestWatches:
    def test_watch_feed_matches_independent_monitor(self, fig1):
        engine = QueryEngine(fig1)
        reference = TopKMonitor(fig1, k=3, tau=1)
        watch_id = engine.watch(3, 1)["watch_id"]

        script = [("insert", ("a", "p")), ("delete", ("b", "c")),
                  ("insert", ("b", "c"))]
        expected = []
        for action, (u, v) in script:
            engine.update(action, u, v)
            change = (
                reference.insert(u, v) if action == "insert"
                else reference.delete(u, v)
            )
            if change.changed:
                expected.append(change)

        feed = engine.changes(watch_id)["changes"]
        assert len(feed) == len(expected)
        for served, truth in zip(feed, expected):
            assert served["update"] == truth.update
            assert served["entered"] == [[u, v, s] for (u, v), s in truth.entered]
            assert served["left"] == [[u, v, s] for (u, v), s in truth.left]
        # the feed is drained
        assert engine.changes(watch_id)["changes"] == []

    def test_unwatch_and_missing_watch(self, fig1):
        engine = QueryEngine(fig1)
        watch_id = engine.watch(2, 1)["watch_id"]
        assert engine.unwatch(watch_id)["removed"] is True
        with pytest.raises(KeyError):
            engine.changes(watch_id)
        with pytest.raises(KeyError):
            engine.unwatch(watch_id)

    def test_metrics_snapshot_shape(self, fig1):
        engine = QueryEngine(fig1)
        engine.topk(5, 2)
        engine.topk(5, 2)
        snapshot = engine.metrics_snapshot()
        assert snapshot["cache"]["hits"] >= 1
        assert snapshot["cache"]["computes"] == 1  # one miss, one compute
        assert "batcher" not in snapshot
        assert "topk" in snapshot["endpoints"]
        assert snapshot["graph_version"] == 0

    def test_metrics_include_kernel_counters(self, fig1):
        from repro.kernels.counters import KERNEL_COUNTERS

        engine = QueryEngine(fig1)
        snapshot = engine.obs.snapshot()
        assert snapshot["kernels"] == KERNEL_COUNTERS.snapshot()
        assert "merge_intersections" in snapshot["kernels"]
