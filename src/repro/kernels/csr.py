"""``CSRGraph``: an interned, degree-rank-ordered CSR adjacency snapshot.

The dict-of-set :class:`~repro.graph.graph.Graph` is the right store for
mutation, but every hot loop in this repository -- triangle and 4-clique
enumeration, index construction, online BFS scoring -- only *reads* a
frozen adjacency.  ``CSRGraph`` is that frozen read path:

* vertices are interned to dense ids ``0..n-1`` **in degree-rank order**
  (degree, then label -- exactly the paper's total order ``≺``), so id
  comparison *is* the ordering and the oriented DAG needs no extra
  structure: the out-neighbors ``N+(u)`` are simply the tail of ``u``'s
  sorted adjacency slice;
* the adjacency lives in two flat ``array('l')`` buffers (``offsets`` of
  length ``n + 1`` and ``neighbors`` of length ``2m``), each slice
  sorted ascending -- the layout the sorted-intersection kernels in
  :mod:`repro.kernels.intersect` run on;
* for high-degree work the snapshot lazily packs rows into big-int
  bitsets (the :mod:`repro.graph.bitset` idiom), giving word-parallel
  AND/OR for the intersection fallback and the ego-network flood fill.

The snapshot does not track later mutations of the source graph, same
as :class:`~repro.graph.ordering.OrientedGraph`.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_right
from itertools import chain
from typing import Dict, Hashable, List, Tuple

from repro.graph.graph import Graph
from repro.graph.ordering import vertex_sort_key
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.intern import VertexInterner

__all__ = ["CSRGraph", "snapshot_csr"]

#: Vertex degree at or above which an intersection kernel may build the
#: bitset layer on demand (the "very high-degree" fallback).
BITSET_DEGREE_FALLBACK = 256

#: Largest changelog (``Graph.changes_since``) the snapshot cache will
#: absorb by patching the previous CSR instead of rebuilding it.  Beyond
#: this the dirty set approaches the whole graph and a counting-sort
#: rebuild is cheaper than bookkeeping.
PATCH_OPS_LIMIT = 128


class CSRGraph:
    """Immutable CSR view of an undirected graph, interned by degree rank."""

    __slots__ = (
        "n",
        "m",
        "offsets",
        "neighbors",
        "dag_start",
        "interner",
        "_adj_bits",
        "_out_bits",
    )

    def __init__(
        self,
        offsets: array,
        neighbors: array,
        dag_start: array,
        interner: VertexInterner,
    ) -> None:
        self.n = len(interner)
        self.m = len(neighbors) // 2
        self.offsets = offsets
        self.neighbors = neighbors
        self.dag_start = dag_start
        self.interner = interner
        self._adj_bits: List[int] = []
        self._out_bits: List[int] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Snapshot ``graph`` into CSR form (O(n log n + m)).

        Rows come out sorted without a per-row sort: vertices are
        visited in ascending id order and appended to each *neighbor's*
        row, a counting-sort pass over the directed edges.

        Label ties break on the type-tagged :func:`vertex_sort_key`, so
        a graph mixing ``int`` and ``str`` components (legal: only each
        *edge* must be homogeneous) still interns deterministically.
        Same relative order as the raw label for homogeneous graphs.
        """
        order = sorted(
            graph.vertices(),
            key=lambda u: (graph.degree(u), vertex_sort_key(u)),
        )
        interner = VertexInterner(order)
        ids = interner.ids
        n = len(order)
        rows: List[List[int]] = [[] for _ in range(n)]
        for u, label in enumerate(order):
            for w_id in map(ids.__getitem__, graph.neighbors(label)):
                rows[w_id].append(u)
        offsets = array("l", [0] * (n + 1))
        dag_start = array("l", [0] * n)
        total = 0
        for i, row in enumerate(rows):
            dag_start[i] = total + bisect_right(row, i)
            total += len(row)
            offsets[i + 1] = total
        neighbors = array("l", chain.from_iterable(rows)) if n else array("l")
        KERNEL_COUNTERS.csr_builds += 1
        return cls(offsets, neighbors, dag_start, interner)

    @classmethod
    def from_graph_patched(
        cls, graph: Graph, old: "CSRGraph", changes: List[Tuple]
    ) -> "CSRGraph":
        """Snapshot ``graph`` by patching ``old`` with a small changelog.

        The degree-rank id order must still be recomputed (any edge
        mutation shifts two degrees, and with them the permutation), but
        most *rows* survive: a row's content -- the sorted ids of its
        neighbors -- changes only if the vertex's neighborhood changed
        or one of its neighbors was assigned a new id.  Clean rows are
        copied out of ``old`` as C-level array slices; only dirty rows
        are rebuilt from the graph.  Cost is ``O(n)`` plus the dirty
        rows, versus ``O(n log n + m)`` for :meth:`from_graph`.
        """
        dirty = set()
        for entry in changes:
            tag = entry[0]
            if tag == "+e" or tag == "-e":
                dirty.add(entry[1])
                dirty.add(entry[2])
            elif tag == "+v":
                dirty.add(entry[1])
            else:  # "-v": the vertex is gone, its neighbors lost a row entry
                dirty.update(entry[2])
        order = sorted(
            graph.vertices(),
            key=lambda u: (graph.degree(u), vertex_sort_key(u)),
        )
        interner = VertexInterner(order)
        ids = interner.ids
        old_ids = old.interner.ids
        # A clean row additionally requires every neighbor to keep its
        # old id: collect moved/new labels, then spread to neighbors.
        moved = [
            label for label, i in ids.items() if old_ids.get(label) != i
        ]
        rebuild = {label for label in dirty if label in ids}
        for label in moved:
            rebuild.add(label)
            rebuild.update(graph.neighbors(label))
        n = len(order)
        offsets = array("l", [0] * (n + 1))
        dag_start = array("l", [0] * n)
        neighbors = array("l")
        old_offsets, old_neighbors = old.offsets, old.neighbors
        total = 0
        for uid, label in enumerate(order):
            if label in rebuild:
                row = sorted(map(ids.__getitem__, graph.neighbors(label)))
            else:
                o = old_ids[label]
                row = old_neighbors[old_offsets[o] : old_offsets[o + 1]]
            dag_start[uid] = total + bisect_right(row, uid)
            total += len(row)
            offsets[uid + 1] = total
            neighbors.extend(row)
        KERNEL_COUNTERS.csr_patches += 1
        return cls(offsets, neighbors, dag_start, interner)

    # -- id plumbing --------------------------------------------------------

    def intern(self, label: Hashable) -> int:
        """Dense id of a vertex label."""
        return self.interner.intern(label)

    def label(self, vid: int) -> Hashable:
        """Vertex label of a dense id."""
        return self.interner.label(vid)

    def canonical_label_edge(self, a: int, b: int) -> Tuple:
        """The canonical ``(small, large)`` *label* edge for ids ``a, b``.

        Id order is degree-rank order, not label order, so the labels are
        re-compared here.
        """
        la, lb = self.interner.label(a), self.interner.label(b)
        return (la, lb) if la < lb else (lb, la)

    # -- adjacency ----------------------------------------------------------

    def degree(self, u: int) -> int:
        """``d(u)`` for an interned id."""
        return self.offsets[u + 1] - self.offsets[u]

    def row_bounds(self, u: int) -> Tuple[int, int]:
        """``[lo, hi)`` bounds of ``u``'s slice in ``neighbors``."""
        return self.offsets[u], self.offsets[u + 1]

    def out_bounds(self, u: int) -> Tuple[int, int]:
        """``[lo, hi)`` bounds of the out-neighbor tail ``N+(u)``."""
        return self.dag_start[u], self.offsets[u + 1]

    def neighbor_ids(self, u: int) -> array:
        """``N(u)`` as a sorted id array (a copy; mutate freely)."""
        return self.neighbors[self.offsets[u] : self.offsets[u + 1]]

    def out_neighbor_ids(self, u: int) -> array:
        """``N+(u)``: neighbors ranked after ``u`` (sorted id array copy)."""
        return self.neighbors[self.dag_start[u] : self.offsets[u + 1]]

    def directed_edge_ids(self) -> List[Tuple[int, int]]:
        """All DAG edges ``(u, v)`` with ``u < v`` in id (rank) order."""
        neighbors = self.neighbors
        out = []
        for u in range(self.n):
            for idx in range(self.dag_start[u], self.offsets[u + 1]):
                out.append((u, neighbors[idx]))
        return out

    def max_degree(self) -> int:
        """``d_max`` of the snapshot."""
        offsets = self.offsets
        return max(
            (offsets[u + 1] - offsets[u] for u in range(self.n)), default=0
        )

    # -- bitset layer --------------------------------------------------------

    @property
    def bits_built(self) -> bool:
        """Whether the lazy bitset layer has been materialized."""
        return bool(self._adj_bits) or self.n == 0

    def ensure_bits(self, *, fallback: bool = False) -> None:
        """Materialize the per-vertex adjacency/out-neighbor bitsets.

        ``fallback=True`` marks the build as triggered by the
        high-degree fallback (counted separately); kernels that always
        want word-parallel rows call it unconditionally.
        """
        if self._adj_bits or self.n == 0:
            return
        if fallback:
            KERNEL_COUNTERS.bitset_fallbacks += 1
        n = self.n
        adj = [0] * n
        offsets, neighbors = self.offsets, self.neighbors
        # Pack each row into a little-endian byte buffer and convert
        # once: per-neighbor work is a couple of small-int ops instead
        # of a big-int shift/OR pair that reallocates the whole row.
        nbytes = (n + 7) >> 3
        from_bytes = int.from_bytes
        for u in range(n):
            buf = bytearray(nbytes)
            for v in neighbors[offsets[u] : offsets[u + 1]]:
                buf[v >> 3] |= 1 << (v & 7)
            adj[u] = from_bytes(buf, "little")
        # N+(u) = neighbors ranked after u = the high bits above u.
        self._adj_bits = adj
        self._out_bits = [(adj[u] >> (u + 1)) << (u + 1) for u in range(n)]

    @property
    def adj_bits(self) -> List[int]:
        """Per-vertex adjacency bitsets (built on first access)."""
        self.ensure_bits()
        return self._adj_bits

    @property
    def out_bits(self) -> List[int]:
        """Per-vertex out-neighbor (``N+``) bitsets."""
        self.ensure_bits()
        return self._out_bits

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m}, bits={self.bits_built})"


# -- snapshot cache ----------------------------------------------------------
#
# "Built once from Graph": repeated kernel entry points (a top-k query
# followed by a triangle count, every call of a benchmark loop) reuse
# one CSR snapshot per graph as long as the graph has not mutated.  The
# cache is keyed by object identity with a weakref guard -- Graph is
# deliberately unhashable -- and validated against Graph.revision, so a
# mutation (or an id-reused new graph) can never serve a stale view.

_SNAPSHOT_CACHE: Dict[int, Tuple["weakref.ref", int, CSRGraph]] = {}


def snapshot_csr(graph: Graph) -> CSRGraph:
    """The cached CSR snapshot of ``graph`` at its current revision.

    When the graph advanced by a small revision delta since the cached
    snapshot, the new snapshot is produced by patching the old one
    (:meth:`CSRGraph.from_graph_patched`) instead of a full rebuild --
    the delta-CSR fast path the maintenance loop leans on.
    """
    key = id(graph)
    cached = _SNAPSHOT_CACHE.get(key)
    stale = None
    if cached is not None:
        ref, revision, csr = cached
        if ref() is graph:
            if revision == graph.revision:
                return csr
            stale = (revision, csr)
    csr = None
    if stale is not None:
        changes = graph.changes_since(stale[0])
        if changes is not None and len(changes) <= PATCH_OPS_LIMIT:
            csr = CSRGraph.from_graph_patched(graph, stale[1], changes)
    if csr is None:
        csr = CSRGraph.from_graph(graph)

    def _evict(_ref, _key=key):
        _SNAPSHOT_CACHE.pop(_key, None)

    _SNAPSHOT_CACHE[key] = (weakref.ref(graph, _evict), graph.revision, csr)
    return csr
