"""The ESDIndex structure and its query algorithm (paper §IV-A/B).

For every component size ``c`` that occurs in some edge ego-network
(``c ∈ C``), the index keeps a list ``H(c)`` of all edges whose
ego-network has a component of size >= ``c``, sorted by the edge's
structural diversity at threshold ``c``.  A top-k query is:
binary-search the smallest ``c* ∈ C`` with ``c* >= τ`` (Theorem 4
guarantees scores at τ and c* coincide), then read the first k entries
of ``H(c*)``.

The paper stores each ``H(c)`` in a self-balancing binary search tree.
Here a score in ``H(c)`` is a small integer (at most ``|N(uv)| / c``),
so ``H(c)`` is a :class:`_ScoreBuckets`: a map from score to a sorted
edge list plus the sorted list of non-empty scores.  Reading the top k
walks the buckets from the highest score down -- ``O(k + log n)`` for
the query.  Moving one edge costs ``O(log b + b)`` for a bucket of ``b``
edges (a bisect and a list memmove) against the BST's ``O(log m)``, but
the memmove runs in C over one score's edges only, and building the
buckets is one grouping pass with no tree.

Beyond the paper's static picture, this implementation keeps the
per-edge component sizes inside the index (a sorted tuple per edge).
That makes three things possible:

* ``set_edge``/``remove_edge`` for dynamic maintenance (Algorithms 4/5);
* *delta rescoring*: an edge's score at class ``c`` is the number of its
  components of size >= ``c``, so an update changes the score only in
  the classes between an old and a new size.  ``set_edge`` touches just
  those ``H(c)`` and returns at once when the multiset is unchanged;
* correct *class back-fill*: when an update introduces a component size
  ``c`` never seen before (the paper's Example 7 creates ``H(3)``), every
  existing edge with a component >= c must enter the new list, otherwise
  τ = c queries would miss them.  The paper does not spell this step out,
  but Theorem 4's correctness argument requires it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.graph.graph import Edge, Graph, canonical_edge
from repro.obs.trace import TRACER


class _ScoreBuckets:
    """One ``H(c)``: its edges grouped by score, best first.

    ``_buckets`` maps a score to the sorted list of edges holding it and
    ``_scores`` is the ascending list of non-empty scores, so walking
    ``_scores`` from its end yields entries in ``(-score, edge)`` order.
    An edge holds one score per class; the index guarantees that.
    """

    __slots__ = ("_buckets", "_scores", "_count")

    def __init__(self) -> None:
        self._buckets: Dict[int, List] = {}
        self._scores: List[int] = []
        self._count = 0

    @classmethod
    def from_buckets(cls, buckets: Dict[int, List]) -> "_ScoreBuckets":
        """Adopt ``{score: edges}`` lists (sorted in place here)."""
        self = cls()
        for items in buckets.values():
            items.sort()
        self._buckets = buckets
        self._scores = sorted(buckets)
        self._count = sum(len(items) for items in buckets.values())
        return self

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Tuple[object, int]]:
        """``(edge, score)`` in non-increasing score order."""
        buckets = self._buckets
        for score in reversed(self._scores):
            for item in buckets[score]:
                yield item, score

    def top(self, k: int) -> List[Tuple[object, int]]:
        """The first ``min(k, n)`` entries as ``[(edge, score), ...]``."""
        out: List[Tuple[object, int]] = []
        buckets = self._buckets
        for score in reversed(self._scores):
            for item in buckets[score][: k - len(out)]:
                out.append((item, score))
            if len(out) >= k:
                break
        return out

    def add(self, item, score: int) -> None:
        """Insert ``item`` at ``score``; KeyError if already there."""
        bucket = self._buckets.get(score)
        if bucket is None:
            self._buckets[score] = [item]
            insort(self._scores, score)
        else:
            pos = bisect_left(bucket, item)
            if pos < len(bucket) and bucket[pos] == item:
                raise KeyError(f"duplicate entry: {item!r} at score {score}")
            bucket.insert(pos, item)
        self._count += 1

    def remove(self, item, score: int) -> None:
        """Remove ``item`` from ``score``; KeyError if absent."""
        bucket = self._buckets.get(score)
        pos = bisect_left(bucket, item) if bucket else 0
        if not bucket or pos == len(bucket) or bucket[pos] != item:
            raise KeyError(f"entry not found: {item!r} at score {score}")
        del bucket[pos]
        if not bucket:
            del self._buckets[score]
            del self._scores[bisect_left(self._scores, score)]
        self._count -= 1

    def check_invariants(self) -> None:
        """Validate bucket order, score list and count (testing)."""
        assert self._scores == sorted(self._buckets), "score list mismatch"
        for score, bucket in self._buckets.items():
            assert bucket, f"empty bucket at score {score}"
            assert all(a < b for a, b in zip(bucket, bucket[1:])), (
                f"bucket {score} not strictly sorted"
            )
        assert self._count == sum(map(len, self._buckets.values())), "count"


class ESDIndex:
    """Top-k edge structural diversity index.

    Build with :func:`repro.core.build.build_index_basic` /
    :func:`~repro.core.build.build_index_fast` (or incrementally through
    :meth:`set_edge`); query with :meth:`topk` / :meth:`query`.
    """

    #: Canonicalization hook for keyed items.  The edge index normalizes
    #: to (small, large); the vertex variant (repro.core.vertex_index)
    #: overrides this with the identity.
    @staticmethod
    def _canon(item):
        return canonical_edge(*item)

    def __init__(self) -> None:
        # c -> H(c), best score first.
        self._classes: Dict[int, _ScoreBuckets] = {}
        self._class_keys: List[int] = []  # sorted members of C
        # edge -> sorted tuple of its component sizes
        self._sizes: Dict[Edge, Tuple[int, ...]] = {}
        # size -> number of edges whose multiset contains that exact size
        self._support: Dict[int, int] = {}

    # -- inspection -------------------------------------------------------

    @property
    def edge_count(self) -> int:
        """Number of edges with a nonempty ego-network in the index."""
        return len(self._sizes)

    @property
    def size_classes(self) -> List[int]:
        """The sorted set ``C`` of occurring component sizes."""
        return list(self._class_keys)

    @property
    def entry_count(self) -> int:
        """Total entries across all ``H(c)`` -- the index size of Fig. 6(a),
        bounded by ``O(α m)`` (Theorem 3)."""
        return sum(len(h) for h in self._classes.values())

    def component_sizes(self, edge: Edge) -> List[int]:
        """Stored component-size multiset of ``edge`` ([] if untracked)."""
        return list(self._sizes.get(self._canon(edge), ()))

    def score(self, edge: Edge, tau: int) -> int:
        """Structural diversity of ``edge`` at threshold ``tau`` (O(log |C_uv|))."""
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        sizes = self._sizes.get(self._canon(edge), ())
        return len(sizes) - bisect_left(sizes, tau)

    def class_list(self, c: int) -> List[Tuple[Edge, int]]:
        """The full sorted content of ``H(c)`` as ``[(edge, score), ...]``."""
        buckets = self._classes.get(c)
        if buckets is None:
            return []
        return list(buckets)

    # -- queries ----------------------------------------------------------------

    def topk(self, k: int, tau: int) -> List[Tuple[Edge, int]]:
        """Top-k edges with the highest structural diversity at ``tau``.

        Implements §IV-B: binary search for the smallest ``c* ∈ C`` with
        ``c* >= τ``, then the first k entries of ``H(c*)``.  Returns fewer
        than ``k`` pairs when fewer edges have a positive score (edges with
        score 0 are by definition in no ``H(c)``).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        with TRACER.span("index.topk", k=k, tau=tau) as span:
            pos = bisect_left(self._class_keys, tau)
            if pos == len(self._class_keys):
                span.set(c_star=None, results=0)
                return []
            c_star = self._class_keys[pos]
            results = self._classes[c_star].top(k)
            span.set(c_star=c_star, results=len(results))
            return results

    def query(self, k: int, tau: int) -> List[Edge]:
        """Like :meth:`topk` but returning edges only."""
        return [edge for edge, _ in self.topk(k, tau)]

    def iter_ranked(self, tau: int):
        """Lazily yield ``(edge, score)`` in non-increasing score order.

        Useful when the consumer decides on the fly how many results it
        needs; each step is O(1), walking the buckets from the top score.
        """
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        pos = bisect_left(self._class_keys, tau)
        if pos == len(self._class_keys):
            return
        yield from self._classes[self._class_keys[pos]]

    def edges_with_score_at_least(
        self, threshold: int, tau: int
    ) -> List[Tuple[Edge, int]]:
        """All edges whose structural diversity at ``tau`` is >= threshold.

        A range scan over the relevant ``H(c*)`` list: stops at the first
        entry below the threshold, so the cost is O(result + log m).
        """
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        out: List[Tuple[Edge, int]] = []
        for edge, score in self.iter_ranked(tau):
            if score < threshold:
                break
            out.append((edge, score))
        return out

    # -- mutation -----------------------------------------------------------

    def set_edge(self, edge: Edge, sizes: Iterable[int]) -> None:
        """Insert or update ``edge`` with its component-size multiset.

        Surgical: an unchanged multiset returns at once, and otherwise
        only the ``H(c)`` whose score for this edge changes are touched
        (see :meth:`_rescore`).  An empty multiset removes the edge.
        Creates (with back-fill) and drops size classes as the global
        ``C`` changes.
        """
        edge = self._canon(edge)
        new = tuple(sorted(sizes))
        if new and new[0] < 1:
            raise ValueError(f"component sizes must be >= 1, got {sorted(set(new))}")
        old = self._sizes.get(edge, ())
        if new == old:
            return
        if new:
            self._sizes[edge] = new
        else:
            del self._sizes[edge]
        born, vanished = self._update_support(old, new)
        self._rescore(edge, old, new, vanished)
        for c in born:
            self._create_class(c)
        for c in vanished:
            del self._classes[c]
            self._class_keys.remove(c)

    def remove_edge(self, edge: Edge) -> None:
        """Remove ``edge`` from the index entirely (no-op if untracked)."""
        self.set_edge(edge, ())

    @classmethod
    def bulk_load(cls, sizes: Dict[Edge, Iterable[int]]) -> "ESDIndex":
        """Build an index from per-edge size multisets in one pass.

        Equivalent to calling :meth:`set_edge` per edge but avoids the
        repeated class back-fill: the global ``C`` is known up front, so
        every edge is appended to each of its buckets exactly once
        (Algorithm 2 lines 5-15), and each bucket is sorted once.
        """
        index = cls()
        canon = cls._canon
        stored = index._sizes
        for edge, edge_sizes in sizes.items():
            # Most real-world edges have an empty ego-network; skipping
            # them before sorted() keeps bulk loading cheap on sparse
            # graphs.  Empty containers are falsy; non-container
            # iterables are truthy and take the normal path.
            if edge_sizes:
                edge_sizes = tuple(sorted(edge_sizes))
                if edge_sizes:
                    if edge_sizes[0] < 1:
                        raise ValueError(
                            "component sizes must be >= 1, got "
                            f"{sorted(set(edge_sizes))}"
                        )
                    stored[canon(edge)] = edge_sizes
        support = index._support
        for edge_sizes in stored.values():
            for size in set(edge_sizes):
                support[size] = support.get(size, 0) + 1
        class_keys = sorted(support)
        index._class_keys = class_keys
        # Position just past each size in C, so a run of classes is a slice.
        past = {c: i + 1 for i, c in enumerate(class_keys)}
        grouped: Dict[int, Dict[int, List]] = {c: {} for c in class_keys}
        for edge, edge_sizes in stored.items():
            # Classes in (previous size, size] share one score: the
            # number of components >= size.
            total = len(edge_sizes)
            lo = 0
            for pos, size in enumerate(edge_sizes):
                if pos and edge_sizes[pos - 1] == size:
                    continue
                score = total - pos
                for c in class_keys[lo : past[size]]:
                    bucket = grouped[c].get(score)
                    if bucket is None:
                        grouped[c][score] = [edge]
                    else:
                        bucket.append(edge)
                lo = past[size]
        index._classes = {
            c: _ScoreBuckets.from_buckets(buckets)
            for c, buckets in grouped.items()
        }
        return index

    # -- internals --------------------------------------------------------------

    def _rescore(
        self,
        edge: Edge,
        old: Tuple[int, ...],
        new: Tuple[int, ...],
        dropping: List[int],
    ) -> None:
        """Move ``edge`` in exactly the ``H(c)`` where its score changed.

        The score at class ``c`` is the suffix count ``#sizes >= c``.
        Between two consecutive values of ``old ∪ new`` neither suffix
        count changes, so each range ``(previous value, value]`` is
        compared once and only the classes inside a differing range are
        touched.  Classes in ``dropping`` are skipped -- ``set_edge``
        deletes them whole right after.
        """
        keys = self._class_keys
        classes = self._classes
        n_old = len(old)
        n_new = len(new)
        lo = 0
        for size in sorted(set(old).union(new)):
            before = n_old - bisect_left(old, size)
            after = n_new - bisect_left(new, size)
            if before != after:
                for c in keys[bisect_right(keys, lo) : bisect_right(keys, size)]:
                    if c in dropping:
                        continue
                    buckets = classes[c]
                    if before:
                        buckets.remove(edge, before)
                    if after:
                        buckets.add(edge, after)
            lo = size

    def _update_support(
        self, old: Tuple[int, ...], new: Tuple[int, ...]
    ) -> Tuple[List[int], List[int]]:
        """Adjust per-size edge support.

        Returns ``(born, vanished)``: the sizes (ascending) whose support
        rose from 0, and those whose support fell to 0.
        """
        support = self._support
        old_set = set(old)
        new_set = set(new)
        vanished: List[int] = []
        for size in old_set - new_set:
            left = support[size] - 1
            if left:
                support[size] = left
            else:
                del support[size]
                vanished.append(size)
        born: List[int] = []
        for size in sorted(new_set - old_set):
            had = support.get(size, 0)
            support[size] = had + 1
            if not had:
                born.append(size)
        return born, vanished

    def _create_class(self, c: int) -> None:
        """Create ``H(c)`` for a size new to ``C``, back-filling all edges.

        Every edge whose maximum component size is >= c must then appear
        in ``H(c)`` (see module docstring).
        """
        grouped: Dict[int, List] = {}
        for other, sizes in self._sizes.items():
            if sizes[-1] >= c:
                score = len(sizes) - bisect_left(sizes, c)
                grouped.setdefault(score, []).append(other)
        self._classes[c] = _ScoreBuckets.from_buckets(grouped)
        insort(self._class_keys, c)

    def diversity_profile(self, edge: Edge) -> Dict[int, int]:
        """Score at every meaningful threshold: ``{tau: score}``.

        Keys are the occurring component sizes of the edge's ego-network;
        the score at any other ``tau`` equals the score at the next key up
        (or 0 above the max) -- Theorem 4's argument applied per edge.
        """
        sizes = self._sizes.get(self._canon(edge), ())
        return {c: len(sizes) - bisect_left(sizes, c) for c in sorted(set(sizes))}

    def stats(self) -> Dict[str, object]:
        """Introspection snapshot: sizes of the index's moving parts."""
        return {
            "edges": self.edge_count,
            "entries": self.entry_count,
            "size_classes": list(self._class_keys),
            "class_sizes": {c: len(h) for c, h in self._classes.items()},
            "histogram_cells": sum(len(set(s)) for s in self._sizes.values()),
        }

    # -- persistence ---------------------------------------------------------

    #: ``kind`` tag inside the binary container header (see
    #: :mod:`repro.persistence.format`).
    _CONTAINER_KIND = "esd-index"

    def save(self, path) -> None:
        """Serialize the index to ``path`` in the checksummed binary format.

        Stores the per-edge histograms (the compact O(α m) core) in one
        CRC32-guarded container section and rebuilds the buckets on load
        -- small files, no pickle compatibility risk, and bit rot is
        detected instead of silently mis-scoring queries.
        """
        from repro.persistence.format import encode_container, encode_json

        histograms = [
            [list(edge), list(sizes)]
            for edge, sizes in sorted(self._sizes.items())
        ]
        data = encode_container(
            self._CONTAINER_KIND, [(b"HIST", encode_json(histograms))]
        )
        with open(path, "wb") as handle:
            handle.write(data)

    @classmethod
    def load(cls, path) -> "ESDIndex":
        """Load an index previously written by :meth:`save`.

        Reads the binary container format; files from the pre-container
        era (plain JSON) are still accepted for one release.
        """
        import json

        from repro.persistence.format import json_section, read_container

        with open(path, "rb") as handle:
            head = handle.read(1)
        if head == b"{":  # legacy JSON index file
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("version") != 1:
                raise ValueError(
                    f"unsupported index file version: {payload.get('version')!r}"
                )
            histograms = payload["edges"]
        else:
            sections = read_container(path, expect_kind=cls._CONTAINER_KIND)
            histograms = json_section(sections, b"HIST", path)
        return cls.bulk_load(
            {tuple(edge): sizes for edge, sizes in histograms}
        )

    # -- integrity ----------------------------------------------------------

    def check_invariants(self, graph: Optional[Graph] = None) -> None:
        """Validate internal consistency (and, given ``graph``, ground truth).

        Testing hook: asserts that C matches the stored histograms, every
        ``H(c)`` holds exactly the right edges with the right scores, and
        -- when the source graph is provided -- that the histograms match
        a from-scratch BFS recomputation.
        """
        from repro.core.diversity import ego_component_sizes  # avoid cycle

        expected_support: Dict[int, int] = {}
        for sizes in self._sizes.values():
            assert list(sizes) == sorted(sizes), "unsorted size tuple"
            for size in set(sizes):
                expected_support[size] = expected_support.get(size, 0) + 1
        assert sorted(expected_support) == self._class_keys, "C mismatch"
        assert self._support == expected_support, "support mismatch"
        assert set(self._classes) == set(self._class_keys), "H(c) key mismatch"

        for c in self._class_keys:
            expected_members = {
                edge: len(sizes) - bisect_left(sizes, c)
                for edge, sizes in self._sizes.items()
                if sizes[-1] >= c
            }
            actual = dict(self.class_list(c))
            assert actual == expected_members, f"H({c}) content mismatch"
            self._classes[c].check_invariants()

        if graph is not None:
            tracked = set(self._sizes)
            for u, v in graph.edges():
                sizes = sorted(ego_component_sizes(graph, u, v))
                edge = canonical_edge(u, v)
                if sizes:
                    assert (
                        self.component_sizes(edge) == sizes
                    ), f"histogram mismatch for {edge}"
                    tracked.discard(edge)
                else:
                    assert edge not in self._sizes, f"phantom edge {edge}"
            assert not tracked, f"stale edges in index: {tracked}"
