"""The ``metric=`` surface: engine keys, single-flight isolation, protocol."""

import json
import threading

import pytest

from tests.conftest import wait_until

from repro.core import build_index_fast
from repro.graph import paper_example_graph
from repro.metrics import get_metric
from repro.service.cache import ResultCache
from repro.service.engine import QueryEngine
from repro.service.server import ESDServer, ServerConfig


def _items(index_topk):
    return [[u, v, s] for (u, v), s in index_topk]


class TestEngineMetricSurface:
    def test_default_metric_is_bit_identical_to_explicit_esd(self, fig1):
        engine = QueryEngine(fig1)
        implicit = engine.topk(5, 2)
        engine_two = QueryEngine(paper_example_graph())
        explicit = engine_two.topk(5, 2, metric="esd")
        assert implicit["items"] == explicit["items"]
        assert implicit["items"] == _items(build_index_fast(fig1).topk(5, 2))

    def test_each_metric_answers_through_its_scorer(self, fig1):
        engine = QueryEngine(fig1)
        for name in ("truss", "betweenness", "common_neighbors"):
            payload = engine.topk(5, 2, metric=name)
            expected = get_metric(name).topk(engine.dynamic_index.graph, 5)
            assert payload["metric"] == name
            assert payload["items"] == _items(expected)

    def test_cross_metric_cache_isolation(self, fig1):
        engine = QueryEngine(fig1)
        esd = engine.topk(5, 2, metric="esd")
        truss = engine.topk(5, 2, metric="truss")
        assert esd["cached"] is False and truss["cached"] is False
        assert esd["items"] != truss["items"]
        # Repeats hit their own entries -- same (k, tau), different metric.
        assert engine.topk(5, 2, metric="esd")["cached"] is True
        assert engine.topk(5, 2, metric="truss")["cached"] is True
        assert engine.topk(5, 2, metric="truss")["items"] == truss["items"]

    def test_mutation_invalidates_every_metric(self, fig1):
        engine = QueryEngine(fig1)
        engine.topk(5, 2, metric="esd")
        engine.topk(5, 2, metric="truss")
        engine.update("insert", "a", "p")
        for name in ("esd", "truss"):
            after = engine.topk(5, 2, metric=name)
            assert after["cached"] is False
            assert after["graph_version"] == 1

    def test_unknown_metric_raises_before_touching_the_index(self, fig1):
        engine = QueryEngine(fig1)
        with pytest.raises(ValueError, match="unknown metric 'pagerank'"):
            engine.topk(5, 2, metric="pagerank")
        with pytest.raises(ValueError, match="metric must be a string"):
            engine.topk(5, 2, metric=7)  # type: ignore[arg-type]

    def test_score_carries_metric(self, fig1):
        engine = QueryEngine(fig1)
        default = engine.score("a", "b")
        assert default["metric"] == "esd"
        truss = engine.score("a", "b", metric="truss")
        assert truss["metric"] == "truss"
        assert truss["score"] == get_metric("truss").score(
            engine.dynamic_index.graph, ("a", "b")
        )

    def test_watch_is_esd_only(self, fig1):
        engine = QueryEngine(fig1)
        assert "watch_id" in engine.watch(5, 2, metric="esd")
        with pytest.raises(ValueError, match="watch supports only"):
            engine.watch(5, 2, metric="truss")

    def test_per_metric_latency_labels(self, fig1):
        engine = QueryEngine(fig1)
        engine.topk(5, 2, metric="esd")
        engine.topk(5, 2, metric="truss")
        endpoints = engine.metrics.snapshot()["endpoints"]
        assert endpoints["topk"]["requests"] == 2  # aggregate stays exact
        assert endpoints["topk|metric=esd"]["requests"] == 1
        assert endpoints["topk|metric=truss"]["requests"] == 1

    def test_labeled_series_stay_out_of_the_slow_log(self, fig1):
        engine = QueryEngine(
            fig1, slow_query_threshold=1e-9
        )
        engine.topk(5, 2, metric="truss")
        entries = engine.slow_log.snapshot()["entries"]
        assert entries  # the aggregate endpoint recorded the slow query
        assert all("|" not in entry["endpoint"] for entry in entries)


class TestCacheKeySchema:
    def test_purge_stale_with_metric_prefixed_keys(self):
        cache = ResultCache(16)
        cache.put(("esd", 5, 2, 3), {"v": 1})
        cache.put(("truss", 5, 2, 3), {"v": 2})
        cache.put(("esd", 5, 2, 7), {"v": 3})
        assert cache.purge_stale(7) == 2  # both version-3 entries, any metric
        assert cache.get(("esd", 5, 2, 7)) == (True, {"v": 3})
        assert cache.get(("esd", 5, 2, 3))[0] is False
        assert cache.get(("truss", 5, 2, 3))[0] is False


class TestSingleFlightMetricKeys:
    def test_metrics_never_coalesce_into_one_result(self):
        cache = ResultCache(16)
        gate = threading.Event()
        results = {}

        def query(metric):
            def compute():
                gate.wait(timeout=5)
                return metric

            results[metric] = cache.get_or_compute((metric, 5, 2, 0), compute)

        threads = [
            threading.Thread(target=query, args=(m,))
            for m in ("esd", "truss")
        ]
        for thread in threads:
            thread.start()
        # Both computations are in flight at once: distinct keys, even
        # for the same (k, τ, version).
        wait_until(lambda: cache.computes == 2, timeout=5,
                   message="two concurrent computations")
        gate.set()
        for thread in threads:
            thread.join()
        assert results == {"esd": ("esd", 1), "truss": ("truss", 1)}
        assert cache.coalesced == 0


class TestSingleFlightPerWaiterErrors:
    def test_concurrent_waiters_get_distinct_exception_instances(self):
        cache = ResultCache(16)
        gate = threading.Event()

        def compute():
            gate.wait(timeout=5)
            raise RuntimeError("index on fire")

        caught = {}

        def query(name):
            try:
                cache.get_or_compute(("esd", 5, 2, 0), compute)
            except RuntimeError as exc:
                caught[name] = exc

        threads = [threading.Thread(target=query, args=(n,)) for n in "ab"]
        for thread in threads:
            thread.start()
        # Both callers share the one flight whose failure they observe.
        wait_until(lambda: cache.coalesced == 1, timeout=5,
                   message="the follower joining the flight")
        gate.set()
        for thread in threads:
            thread.join()
        assert set(caught) == {"a", "b"}
        a, b = caught["a"], caught["b"]
        # Each waiter raised its own instance (no shared __traceback__
        # mutation across threads), same type and message, chained to
        # one shared original.
        assert a is not b
        assert str(a) == str(b) == "index on fire"
        assert a.__cause__ is b.__cause__
        assert str(a.__cause__) == "index on fire"
        assert a.__traceback__ is not b.__traceback__


class TestServerMetricProtocol:
    @pytest.fixture
    def server(self):
        with ESDServer(
            paper_example_graph(),
            ServerConfig(port=0),
        ) as instance:
            yield instance

    def _request(self, server, **message):
        return server.handle_line(json.dumps(message).encode())

    def test_topk_metric_roundtrip(self, server):
        ok = self._request(server, op="topk", k=3, metric="truss")
        assert ok["ok"] is True
        assert ok["result"]["metric"] == "truss"
        default = self._request(server, op="topk", k=3)
        assert default["result"]["metric"] == "esd"

    def test_unknown_metric_maps_to_invalid_argument(self, server):
        bad = self._request(server, op="topk", k=3, metric="pagerank")
        assert bad["ok"] is False
        assert bad["error"]["code"] == "invalid_argument"
        wrong_type = self._request(server, op="topk", k=3, metric=5)
        assert wrong_type["error"]["code"] == "invalid_argument"

    def test_score_and_watch_metric_fields(self, server):
        score = self._request(server, op="score", u="a", v="b", metric="truss")
        assert score["result"]["metric"] == "truss"
        watch = self._request(server, op="watch", k=3, metric="truss")
        assert watch["ok"] is False
        assert watch["error"]["code"] == "invalid_argument"

    def test_metrics_text_has_disjoint_per_metric_series(self, server):
        self._request(server, op="topk", k=3, metric="esd")
        self._request(server, op="topk", k=3, metric="truss")
        text = server.metrics_text()
        assert 'esd_endpoint_requests{endpoint="topk"} 2' in text
        assert (
            'esd_endpoint_requests{endpoint="topk",metric="esd"} 1' in text
        )
        assert (
            'esd_endpoint_requests{endpoint="topk",metric="truss"} 1' in text
        )
