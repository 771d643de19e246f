"""k-truss decomposition.

The paper's related work builds on truss decomposition (Wang & Cheng;
Huang et al.), and the quantity it iterates on -- the *support* of an
edge, ``|N(u) ∩ N(v)|`` -- is exactly the numerator of the paper's
common-neighbor upper bound.  The truss number of an edge is the largest
``k`` such that the edge survives in the k-truss (the maximal subgraph
where every edge closes at least ``k - 2`` triangles), a classic measure
of tie strength that the case studies contrast with structural
diversity: high-truss edges are strong but context-poor, while
high-diversity edges are strong *and* context-rich.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.ordering import rank_edges
from repro.kernels.dispatch import kernels_enabled


def truss_numbers(graph: Graph) -> Dict[Edge, int]:
    """The truss number of every edge (peeling algorithm, O(m^1.5)-ish).

    Edges are iteratively removed in order of lowest support; the truss
    number records the peel level: ``truss(e) = k`` means ``e`` is in the
    k-truss but not the (k+1)-truss.  Edges in no triangle get truss 2.

    With kernels enabled the peel runs in id space on the CSR snapshot
    (:func:`repro.kernels.truss.csr_truss_numbers`); truss numbers are
    peel-order independent, so both paths return identical tables.
    """
    if kernels_enabled() and graph.m:
        from repro.kernels.csr import snapshot_csr
        from repro.kernels.truss import csr_truss_numbers

        return csr_truss_numbers(snapshot_csr(graph))
    work = graph.copy()
    support: Dict[Edge, int] = {
        edge: len(work.common_neighbors(*edge)) for edge in work.edges()
    }
    # Bucket queue over support values.
    max_support = max(support.values(), default=0)
    buckets: List[set] = [set() for _ in range(max_support + 1)]
    for edge, s in support.items():
        buckets[s].add(edge)

    truss: Dict[Edge, int] = {}
    k = 2
    cursor = 0
    remaining = len(support)
    while remaining:
        while cursor <= max_support and not buckets[cursor]:
            cursor += 1
        if cursor > max_support:
            break
        # All edges with support <= k - 2 belong to the current truss level.
        k = max(k, cursor + 2)
        edge = buckets[cursor].pop()
        u, v = edge
        truss[edge] = k
        # Removing (u, v) lowers the support of edges in its triangles.
        for w in work.common_neighbors(u, v):
            for other in (canonical_edge(u, w), canonical_edge(v, w)):
                s = support[other]
                if s > cursor:
                    buckets[s].discard(other)
                    support[other] = s - 1
                    buckets[s - 1].add(other)
        work.remove_edge(u, v)
        del support[edge]
        remaining -= 1
        cursor = max(cursor - 1, 0)
    return truss


def max_truss(graph: Graph) -> int:
    """The largest k such that the k-truss is nonempty (0 if no edges)."""
    numbers = truss_numbers(graph)
    return max(numbers.values(), default=0)


def k_truss_subgraph(graph: Graph, k: int) -> Graph:
    """The k-truss: maximal subgraph whose edges all have truss >= k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    numbers = truss_numbers(graph)
    return Graph(edge for edge, t in numbers.items() if t >= k)


def topk_truss_edges(graph: Graph, k: int) -> List[Tuple[Edge, int]]:
    """Top-k edges by truss number -- a strength baseline (ties break
    as in :func:`~repro.graph.ordering.rank_edges`)."""
    return rank_edges(truss_numbers(graph), k)
