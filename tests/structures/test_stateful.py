"""Stateful (model-based) hypothesis tests for the core data structures.

Each machine drives the structure under test through arbitrary operation
sequences while mirroring them on a trivially-correct Python model, then
checks full agreement after every step.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.index import _ScoreBuckets
from repro.structures import DisjointSet, LazyMaxHeap


class ScoreBucketsMachine(RuleBasedStateMachine):
    """``H(c)``'s score buckets vs a sorted list of ``(-score, item)``."""

    def __init__(self):
        super().__init__()
        self.buckets = _ScoreBuckets()
        self.model = {}  # item -> score

    def _reference(self):
        return sorted((-score, item) for item, score in self.model.items())

    @rule(item=st.integers(-20, 20), score=st.integers(1, 6))
    def add(self, item, score):
        if self.model.get(item) == score:
            try:
                self.buckets.add(item, score)
                raise AssertionError("duplicate add must raise")
            except KeyError:
                pass
        elif item not in self.model:
            self.buckets.add(item, score)
            self.model[item] = score

    @rule(item=st.integers(-20, 20), score=st.integers(1, 6))
    def remove(self, item, score):
        if self.model.get(item) == score:
            self.buckets.remove(item, score)
            del self.model[item]
        else:
            try:
                self.buckets.remove(item, score)
                raise AssertionError("removing an absent entry must raise")
            except KeyError:
                pass

    @rule(item=st.integers(-20, 20), score=st.integers(1, 6))
    def move(self, item, score):
        if item in self.model:
            self.buckets.remove(item, self.model[item])
            self.buckets.add(item, score)
            self.model[item] = score

    @rule(k=st.integers(1, 45))
    def top(self, k):
        expected = [(item, -neg) for neg, item in self._reference()[:k]]
        assert self.buckets.top(k) == expected

    @rule(buckets=st.dictionaries(
        st.integers(1, 6), st.lists(st.integers(-20, 20), unique=True)
    ))
    def rebuild(self, buckets):
        self.model = {}
        for score, items in buckets.items():
            for item in items:
                self.model.setdefault(item, score)
        grouped = {}
        for item, score in self.model.items():
            grouped.setdefault(score, []).append(item)
        self.buckets = _ScoreBuckets.from_buckets(grouped)

    @invariant()
    def matches_model(self):
        assert len(self.buckets) == len(self.model)
        assert list(self.buckets) == [
            (item, -neg) for neg, item in self._reference()
        ]
        self.buckets.check_invariants()


class DisjointSetMachine(RuleBasedStateMachine):
    """DisjointSet vs a list-of-sets model."""

    def __init__(self):
        super().__init__()
        self.dsu = DisjointSet()
        self.model = []  # list of sets

    def _model_find(self, x):
        return next((s for s in self.model if x in s), None)

    @rule(x=st.integers(0, 25))
    def add(self, x):
        self.dsu.add(x)
        if self._model_find(x) is None:
            self.model.append({x})

    @rule(x=st.integers(0, 25), y=st.integers(0, 25))
    def union(self, x, y):
        self.dsu.union(x, y)
        sx = self._model_find(x)
        if sx is None:
            sx = {x}
            self.model.append(sx)
        sy = self._model_find(y)
        if sy is None:
            if y not in sx:
                sy = {y}
                self.model.append(sy)
            else:
                sy = sx
        if sx is not sy:
            sx |= sy
            self.model.remove(sy)

    @invariant()
    def matches_model(self):
        assert self.dsu.set_count == len(self.model)
        assert sorted(self.dsu.component_sizes()) == sorted(
            len(s) for s in self.model
        )
        for s in self.model:
            members = sorted(s)
            for a, b in zip(members, members[1:]):
                assert self.dsu.connected(a, b)


class HeapMachine(RuleBasedStateMachine):
    """LazyMaxHeap vs a dict model."""

    def __init__(self):
        super().__init__()
        self.heap = LazyMaxHeap()
        self.model = {}

    @rule(item=st.integers(0, 15), priority=st.integers(-30, 30))
    def push(self, item, priority):
        self.heap.push(item, priority)
        self.model[item] = priority

    @rule()
    def pop(self):
        if not self.model:
            return
        item, priority = self.heap.pop()
        best = max(self.model.values())
        assert priority == best
        # Deterministic tie-break: the smallest item among the best.
        assert item == min(i for i, p in self.model.items() if p == best)
        del self.model[item]

    @rule(item=st.integers(0, 15))
    def discard(self, item):
        assert self.heap.discard(item) == (item in self.model)
        self.model.pop(item, None)

    @invariant()
    def matches_model(self):
        assert len(self.heap) == len(self.model)
        for item, priority in self.model.items():
            assert self.heap.priority_of(item) == priority


TestScoreBucketsStateful = ScoreBucketsMachine.TestCase
TestDisjointSetStateful = DisjointSetMachine.TestCase
TestHeapStateful = HeapMachine.TestCase

for case in (TestScoreBucketsStateful, TestDisjointSetStateful, TestHeapStateful):
    case.settings = settings(max_examples=40, stateful_step_count=30,
                             deadline=None)
