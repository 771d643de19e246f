"""Vertex orderings and DAG orientation (paper §II).

The paper's degree ordering ``≺`` is a total order: ``u ≺ v`` iff
``d(u) < d(v)``, ties broken by vertex id.  Orienting each edge from its
low-rank to its high-rank endpoint yields a DAG whose out-degrees are
bounded by ``O(α)`` on average, which is what makes the 4-clique
enumeration of Algorithm 3 fast.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.graph.graph import Edge, Graph, Vertex


def vertex_sort_key(u: Vertex) -> Tuple[str, Vertex]:
    """A total-order key over vertex labels of *mixed* types.

    Python refuses ``1 < "a"``, so any ranking that tie-breaks on raw
    vertex labels blows up the moment a graph holds both ``int`` and
    ``str`` vertices (two disjoint components with differently-typed
    labels are perfectly legal).  Tagging each label with its type name
    groups same-typed labels together (where ``<`` is defined) and
    orders across types lexically by type name -- deterministic, and
    consistent with plain label order on homogeneous graphs.
    """
    return (type(u).__name__, u)


def edge_sort_key(edge: Edge) -> Tuple[Tuple[str, Vertex], Tuple[str, Vertex]]:
    """Type-tagged total-order key for canonical edges (see
    :func:`vertex_sort_key`); the tie-break used by every ranked-edge
    listing that must survive mixed-type vertex labels."""
    u, v = edge
    return (vertex_sort_key(u), vertex_sort_key(v))


def rank_edges(scores: Dict[Edge, Any], k: int) -> List[Tuple[Edge, Any]]:
    """Top-k of a whole-graph score table, highest score first.

    Ties break on :func:`edge_sort_key`, never the raw edge tuple, so
    mixed ``int``/``str`` vertex labels (legal: the types live in
    disjoint components) rank deterministically instead of raising
    ``TypeError``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return heapq.nsmallest(
        k, scores.items(), key=lambda item: (-item[1], edge_sort_key(item[0]))
    )


def degree_order_key(graph: Graph) -> Callable[[Vertex], Tuple[int, Vertex]]:
    """Return a key function realizing the paper's total order ``≺``.

    ``key(u) < key(v)`` iff ``u ≺ v``.
    """
    def key(u: Vertex) -> Tuple[int, Vertex]:
        return (graph.degree(u), u)

    return key


def precedes(graph: Graph, u: Vertex, v: Vertex) -> bool:
    """``u ≺ v`` under the degree ordering (degree, then id)."""
    return (graph.degree(u), u) < (graph.degree(v), v)


class OrientedGraph:
    """DAG orientation ``G→`` of an undirected graph.

    Each undirected edge ``(u, v)`` with ``u ≺ v`` becomes the directed
    edge ``u -> v``.  Out-neighbor sets ``N+`` support the set
    intersections at the heart of oriented triangle/4-clique listing.

    Two total orders are supported: the paper's ``"degree"`` ordering
    (§II, degree then id) and the ``"degeneracy"`` (smallest-degree-last)
    ordering used by kClist (Danisch et al.), which bounds out-degrees by
    the degeneracy δ instead of merely on average.

    The orientation is a *snapshot*: it does not track later mutations of
    the source graph.  The dynamic-maintenance algorithms re-derive local
    orientations on the fly instead (see :mod:`repro.core.maintenance`).
    """

    __slots__ = ("_out", "_rank")

    def __init__(self, graph: Graph, order: str = "degree") -> None:
        if order == "degree":
            key = degree_order_key(graph)
            self._rank: Dict[Vertex, Tuple] = {
                u: key(u) for u in graph.vertices()
            }
        elif order == "degeneracy":
            removal_order, _delta = degeneracy_ordering(graph)
            self._rank = {u: (i,) for i, u in enumerate(removal_order)}
        else:
            raise ValueError(
                f"order must be 'degree' or 'degeneracy', got {order!r}"
            )
        self._out: Dict[Vertex, Set[Vertex]] = {u: set() for u in graph.vertices()}
        for u, v in graph.edges():
            if self._rank[u] < self._rank[v]:
                self._out[u].add(v)
            else:
                self._out[v].add(u)

    @property
    def n(self) -> int:
        return len(self._out)

    def out_neighbors(self, u: Vertex) -> Set[Vertex]:
        """``N+(u)`` -- out-neighbors of ``u`` in the DAG."""
        return self._out[u]

    def out_degree(self, u: Vertex) -> int:
        """``d+(u)``."""
        return len(self._out[u])

    def max_out_degree(self) -> int:
        return max((len(s) for s in self._out.values()), default=0)

    def vertices(self) -> List[Vertex]:
        return list(self._out)

    def directed_edges(self) -> List[Tuple[Vertex, Vertex]]:
        """All directed edges ``u -> v`` (u ≺ v)."""
        return [(u, v) for u, outs in self._out.items() for v in outs]

    def precedes(self, u: Vertex, v: Vertex) -> bool:
        """``u ≺ v`` using the snapshotted ranks."""
        return self._rank[u] < self._rank[v]


def degeneracy_ordering(graph: Graph) -> Tuple[List[Vertex], int]:
    """Smallest-degree-last ordering and the degeneracy ``δ``.

    Repeatedly removes a minimum-degree vertex (bucket queue, O(n + m)).
    Returns ``(order, degeneracy)`` where ``order`` lists vertices in
    removal order and ``degeneracy`` is the largest degree seen at removal
    time.  The degeneracy sandwiches the arboricity:
    ``⌈δ/2⌉ <= α <= δ`` (Eppstein et al.).
    """
    degrees: Dict[Vertex, int] = {u: graph.degree(u) for u in graph.vertices()}
    max_deg = max(degrees.values(), default=0)
    buckets: List[Set[Vertex]] = [set() for _ in range(max_deg + 1)]
    for u, d in degrees.items():
        buckets[d].add(u)

    order: List[Vertex] = []
    removed: Set[Vertex] = set()
    degeneracy = 0
    cursor = 0
    for _ in range(graph.n):
        while cursor <= max_deg and not buckets[cursor]:
            cursor += 1
        u = buckets[cursor].pop()
        degeneracy = max(degeneracy, cursor)
        order.append(u)
        removed.add(u)
        for v in graph.neighbors(u):
            if v in removed:
                continue
            d = degrees[v]
            buckets[d].discard(v)
            degrees[v] = d - 1
            buckets[d - 1].add(v)
        # Removing u may have created lower-degree vertices.
        cursor = max(cursor - 1, 0)
    return order, degeneracy
