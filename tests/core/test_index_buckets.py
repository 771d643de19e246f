"""Bucketed ``H(c)`` with delta rescoring.

Incremental ``set_edge``/``remove_edge`` must leave exactly the index a
fresh ``bulk_load`` of the final multisets builds -- including traces
that create a size class (back-fill) and drop one -- and an update
touches only the classes whose score for the edge changed.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DynamicESDIndex, ESDIndex, VertexESDIndex, build_index_fast
from repro.core.index import _ScoreBuckets
from repro.graph import load_dataset

EDGE_KEYS = [(a, b) for a in range(6) for b in range(a + 1, 6)]
SIZES = st.lists(st.integers(1, 7), max_size=4)


def assert_same_as_bulk_load(index, final):
    fresh = type(index).bulk_load(final)
    assert index.size_classes == fresh.size_classes
    for c in fresh.size_classes:
        assert index.class_list(c) == fresh.class_list(c), f"H({c})"
    index.check_invariants()


def replay(index, ops):
    """Apply ``(key, sizes)`` ops; ``None`` removes.  Returns final sizes."""
    final = {}
    for key, sizes in ops:
        if sizes is None:
            index.remove_edge(key)
            final.pop(key, None)
        else:
            index.set_edge(key, sizes)
            if sizes:
                final[key] = sizes
            else:
                final.pop(key, None)
    return final


class TestDifferentialAgainstBulkLoad:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(EDGE_KEYS), st.none() | SIZES), max_size=40
    ))
    def test_edge_index(self, ops):
        index = ESDIndex()
        assert_same_as_bulk_load(index, replay(index, ops))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 9), st.none() | SIZES), max_size=40
    ))
    def test_vertex_index(self, ops):
        index = VertexESDIndex()
        assert_same_as_bulk_load(index, replay(index, ops))

    def test_class_created_with_back_fill_then_dropped(self):
        index = ESDIndex.bulk_load({(0, 1): [1, 4], (1, 2): [2, 2], (2, 3): [1]})
        assert index.size_classes == [1, 2, 4]
        # Size 3 is new: every edge with a component >= 3 enters H(3).
        index.set_edge((2, 3), [3])
        assert index.size_classes == [1, 2, 3, 4]
        assert index.class_list(3) == [((0, 1), 1), ((2, 3), 1)]
        assert_same_as_bulk_load(
            index, {(0, 1): [1, 4], (1, 2): [2, 2], (2, 3): [3]}
        )
        # Sizes 1 and 4 lose their last holder, so H(1) and H(4) go.
        index.remove_edge((0, 1))
        assert index.size_classes == [2, 3]
        assert_same_as_bulk_load(index, {(1, 2): [2, 2], (2, 3): [3]})

    def test_maintained_index_matches_fresh_build(self):
        dyn = DynamicESDIndex(load_dataset("youtube", scale=0.2))
        rng = random.Random(11)
        for u, v in rng.sample(sorted(dyn.graph.edges()), 15):
            dyn.delete_edge(u, v)
        fresh = build_index_fast(dyn.graph)
        assert dyn.index.size_classes == fresh.size_classes
        for c in fresh.size_classes:
            assert dyn.index.class_list(c) == fresh.class_list(c)


class TestDeltaRescoring:
    def _count_moves(self, monkeypatch):
        moves = []
        for name in ("add", "remove"):
            original = getattr(_ScoreBuckets, name)

            def record(self, item, score, _original=original, _name=name):
                moves.append((_name, item, score))
                _original(self, item, score)

            monkeypatch.setattr(_ScoreBuckets, name, record)
        return moves

    def test_unchanged_multiset_modifies_no_class(self, fig1, monkeypatch):
        index = build_index_fast(fig1)
        before = {c: index.class_list(c) for c in index.size_classes}
        moves = self._count_moves(monkeypatch)
        for u, v in fig1.edges():
            # Reversed endpoints and a reordered multiset: still equal.
            index.set_edge((v, u), list(reversed(index.component_sizes((u, v)))))
        assert moves == []
        assert {c: index.class_list(c) for c in index.size_classes} == before

    def test_growth_touches_only_the_classes_in_between(self, monkeypatch):
        index = ESDIndex.bulk_load(
            {(0, 1): [1, 2], (1, 2): [1, 2, 3, 4, 5], (2, 3): [6]}
        )
        moves = self._count_moves(monkeypatch)
        # 2 -> 5: the score changes only in classes 3, 4 and 5 (0 -> 1).
        index.set_edge((0, 1), [1, 5])
        assert moves == [
            ("add", (0, 1), 1), ("add", (0, 1), 1), ("add", (0, 1), 1)
        ]
        assert [index.score((0, 1), c) for c in range(1, 7)] == [2, 1, 1, 1, 1, 0]
        index.check_invariants()


def test_edges_rescored_total_is_pinned():
    """perfbench's ``maintenance.edges_rescored_per_write`` keeps its meaning.

    ``UpdateStats.edges_rescored`` counts the ``set_edge`` calls a write
    makes (Ĝ_N(uv)'s edges), not the ``H(c)`` moves; the no-op fast path
    must not change it.  The total was recorded on this trace before the
    buckets replaced the treap.
    """
    dyn = DynamicESDIndex(load_dataset("dblp", scale=0.5))
    rng = random.Random(2020)
    total = 0
    for u, v in rng.sample(sorted(dyn.graph.edges()), 40):
        total += dyn.delete_edge(u, v).edges_rescored
        total += dyn.insert_edge(u, v).edges_rescored
    assert total == 3254


@pytest.mark.parametrize("bad", [[0], [2, -1]])
def test_sizes_below_one_rejected_without_mutation(bad):
    index = ESDIndex.bulk_load({(0, 1): [2]})
    with pytest.raises(ValueError):
        index.set_edge((0, 1), bad)
    assert index.component_sizes((0, 1)) == [2]
    index.check_invariants()
