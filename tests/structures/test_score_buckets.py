"""Tests for the score buckets backing each ESDIndex ``H(c)`` list."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import _ScoreBuckets


def ranked(model):
    """Reference order: ``(-score, item)`` ascending, as ``(item, score)``."""
    return [(item, -neg) for neg, item in sorted(
        (-score, item) for item, score in model.items()
    )]


class TestScoreBucketsBasics:
    def test_empty(self):
        b = _ScoreBuckets()
        assert len(b) == 0
        assert list(b) == []
        assert b.top(5) == []

    def test_insert_and_iterate_sorted(self):
        b = _ScoreBuckets()
        for item, score in ((5, 1), (1, 2), (4, 1), (2, 2), (3, 3)):
            b.add(item, score)
        assert list(b) == [(3, 3), (1, 2), (2, 2), (4, 1), (5, 1)]
        assert len(b) == 5
        b.check_invariants()

    def test_duplicate_insert_raises(self):
        b = _ScoreBuckets()
        b.add(1, 2)
        with pytest.raises(KeyError):
            b.add(1, 2)

    def test_remove(self):
        b = _ScoreBuckets()
        for item in (1, 2, 3):
            b.add(item, 1)
        b.remove(2, 1)
        assert list(b) == [(1, 1), (3, 1)]
        with pytest.raises(KeyError):
            b.remove(2, 1)
        with pytest.raises(KeyError):
            b.remove(1, 7)  # present, but not at that score
        b.remove(1, 1)
        b.remove(3, 1)
        assert len(b) == 0
        b.check_invariants()  # the emptied bucket and its score are gone

    def test_top_prefix(self):
        b = _ScoreBuckets.from_buckets({1: list(range(5, 10)), 2: list(range(5))})
        assert b.top(3) == [(0, 2), (1, 2), (2, 2)]
        assert b.top(7) == [(i, 2) for i in range(5)] + [(5, 1), (6, 1)]
        assert b.top(100) == list(b)

    def test_edge_items_ordered_by_score_then_edge(self):
        """ESDIndex order is (-score, edge): best score, then smallest edge."""
        b = _ScoreBuckets()
        b.add((1, 5), 2)
        b.add((9, 9), 3)
        b.add((0, 7), 2)
        assert b.top(2) == [((9, 9), 3), ((0, 7), 2)]

    def test_from_buckets_sorts_each_bucket(self):
        b = _ScoreBuckets.from_buckets({2: [9, 1, 5], 1: [3, 0]})
        assert list(b) == [(1, 2), (5, 2), (9, 2), (0, 1), (3, 1)]
        b.check_invariants()


class TestScoreBucketsProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(-100, 100), st.integers(1, 8),
                           max_size=120))
    def test_matches_sorted_list(self, model):
        grouped = {}
        for item, score in model.items():
            grouped.setdefault(score, []).append(item)
        b = _ScoreBuckets.from_buckets(grouped)
        assert list(b) == ranked(model)
        b.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 40),
                      st.integers(1, 4)),
            max_size=120,
        )
    )
    def test_random_insert_delete_script(self, ops):
        """Arbitrary insert/delete scripts keep the buckets consistent."""
        b = _ScoreBuckets()
        model = {}
        for op, item, score in ops:
            present = model.get(item) == score
            if op == "ins" and item not in model:
                b.add(item, score)
                model[item] = score
            elif op == "ins" and present:
                with pytest.raises(KeyError):
                    b.add(item, score)
            elif op == "del" and present:
                b.remove(item, score)
                del model[item]
            elif op == "del":
                with pytest.raises(KeyError):
                    b.remove(item, score)
        assert list(b) == ranked(model)
        b.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 200), st.integers(1, 5),
                           min_size=1, max_size=80),
           st.integers(0, 90))
    def test_top_agrees_with_slice(self, model, k):
        b = _ScoreBuckets()
        for item, score in model.items():
            b.add(item, score)
        assert b.top(k) == ranked(model)[:k]
