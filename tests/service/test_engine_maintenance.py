"""Engine-side batch hook: the result-cache purge per commit group.

The index fires ``subscribe_batch`` once per single update and once per
``apply_batch``, with the whole ordered event list -- and, when a batch
fails part-way, still for the prefix that did commit.  The engine's
hook purges the cached answers of superseded versions, so the purge is
where that contract shows.
"""

from __future__ import annotations

import pytest

from repro.core.maintenance import DynamicESDIndex
from repro.graph import Graph, paper_example_graph
from repro.service.engine import QueryEngine


@pytest.fixture
def purges(monkeypatch):
    """``attach(engine)`` records the version of every cache purge."""
    calls = []

    def attach(engine):
        cache = engine._cache
        purge = cache.purge_stale

        def spy(version):
            calls.append(version)
            return purge(version)

        monkeypatch.setattr(cache, "purge_stale", spy)
        return engine

    attach.calls = calls
    return attach


class TestBatchFanOut:
    def test_apply_batch_purges_the_cache_once(self, purges):
        dyn = DynamicESDIndex(paper_example_graph())
        engine = purges(QueryEngine(dynamic_index=dyn))
        engine.topk(5, 2)
        dyn.apply_batch(
            deletions=[("a", "b")],
            insertions=[("x", "y"), ("y", "z")],
        )
        assert purges.calls == [dyn.graph_version] == [3]
        assert engine.metrics.snapshot()["counters"][
            "cache_purged_entries"
        ] == 1
        assert engine.topk(5, 2)["cached"] is False

    def test_single_update_is_a_one_event_group(self, purges):
        engine = purges(QueryEngine(paper_example_graph()))
        engine.update("insert", "x", "y")
        engine.update("delete", "x", "y")
        assert purges.calls == [1, 2]

    def test_failed_batch_still_reports_applied_prefix(self, purges):
        dyn = DynamicESDIndex(Graph([("a", "b"), ("b", "c")]))
        engine = purges(QueryEngine(dynamic_index=dyn))
        engine.topk(5, 1)
        with pytest.raises(ValueError):
            dyn.apply_batch(
                insertions=[("c", "d"), ("c", "d")]  # duplicate fails
            )
        # The committed prefix moved the version, so the answer cached
        # at version 0 must go, failure or not.
        assert purges.calls == [1]
        assert engine.metrics.snapshot()["counters"][
            "cache_purged_entries"
        ] == 1
