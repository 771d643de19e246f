"""The ``metric`` field: only ``esd`` is served.

``topk``, ``score`` and ``watch`` accept an absent ``metric`` or
``"esd"``; any other value is ``invalid_argument``, refused by the
protocol layer before the request is timed, takes a lock or touches
the index.  The other edge rankings are offline (``esd topk --metric``,
covered in tests/test_cli.py).
"""

import json
import threading

import pytest

from tests.conftest import wait_until

from repro.core import build_index_fast
from repro.graph import paper_example_graph
from repro.service.cache import ResultCache
from repro.service.dispatch import engine_ops
from repro.service.engine import QueryEngine
from repro.service.protocol import INVALID_ARGUMENT, ProtocolError
from repro.service.server import ESDServer, ServerConfig


def _items(index_topk):
    return [[u, v, s] for (u, v), s in index_topk]


class TestEngineMetricSurface:
    def test_default_metric_is_bit_identical_to_explicit_esd(self, fig1):
        implicit = engine_ops(QueryEngine(fig1))["topk"](
            {"op": "topk", "k": 5, "tau": 2}
        )
        explicit = engine_ops(QueryEngine(paper_example_graph()))["topk"](
            {"op": "topk", "k": 5, "tau": 2, "metric": "esd"}
        )
        assert implicit == explicit
        assert implicit["metric"] == "esd"
        assert implicit["items"] == _items(build_index_fast(fig1).topk(5, 2))

    def test_unknown_metric_raises_before_touching_the_index(
        self, fig1, monkeypatch
    ):
        engine = QueryEngine(fig1)

        def untouchable(*args, **kwargs):
            raise AssertionError("a refused request reached the engine")

        monkeypatch.setattr(engine._lock, "acquire_read", untouchable)
        monkeypatch.setattr(engine.dynamic_index, "topk", untouchable)
        ops = engine_ops(engine)
        for op in ("topk", "score", "watch"):
            for bad in ("pagerank", "truss", 7, "", None):
                message = {"op": op, "metric": bad, "u": "a", "v": "b"}
                with pytest.raises(ProtocolError) as info:
                    ops[op](message)
                assert info.value.code == INVALID_ARGUMENT
        assert engine.metrics.snapshot()["endpoints"] == {}

    def test_score_carries_metric(self, fig1):
        engine = QueryEngine(fig1)
        score = engine.score("a", "b")
        assert score["metric"] == "esd"
        assert score["score"] == engine.dynamic_index.index.score(
            ("a", "b"), 2
        )

    def test_watch_is_esd_only(self, fig1):
        ops = engine_ops(QueryEngine(fig1))
        assert "watch_id" in ops["watch"]({"op": "watch", "metric": "esd"})
        with pytest.raises(ProtocolError, match="must be 'esd'"):
            ops["watch"]({"op": "watch", "metric": "truss"})


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
                cache.get_or_compute((5, 2, 0), compute)
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
        explicit = self._request(server, op="topk", k=3, metric="esd")
        assert explicit["ok"] is True
        assert explicit["result"]["metric"] == "esd"
        default = self._request(server, op="topk", k=3)
        assert default["result"]["metric"] == "esd"
        assert default["result"]["items"] == explicit["result"]["items"]

    def test_unknown_metric_maps_to_invalid_argument(self, server):
        bad = self._request(server, op="topk", k=3, metric="pagerank")
        assert bad["ok"] is False
        assert bad["error"]["code"] == "invalid_argument"
        wrong_type = self._request(server, op="topk", k=3, metric=5)
        assert wrong_type["error"]["code"] == "invalid_argument"

    def test_score_and_watch_metric_fields(self, server):
        for op in ("score", "watch"):
            refused = self._request(
                server, op=op, u="a", v="b", k=3, metric="truss"
            )
            assert refused["ok"] is False
            assert refused["error"]["code"] == "invalid_argument"

    def test_refused_metrics_create_no_series(self, server):
        self._request(server, op="topk", k=3, metric="esd")
        self._request(server, op="topk", k=3)
        before = server.engine.metrics.snapshot()
        for name in ("truss", "betweenness", "made_up"):
            self._request(server, op="topk", k=3, metric=name)
        after = server.engine.metrics.snapshot()
        assert after["endpoints"] == before["endpoints"]
        assert set(after["counters"]) == set(before["counters"])
        text = server.metrics_text()
        assert 'esd_endpoint_requests{endpoint="topk"} 2' in text
        assert "metric=" not in text
