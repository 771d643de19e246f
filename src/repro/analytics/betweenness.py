"""Edge betweenness: global Brandes and the local ego-net variant.

The paper's case studies (Exp-7/8) compare the top-k structural-diversity
edges against the top-k edges by betweenness (``BT``).  Brandes'
accumulation computes exact edge betweenness in ``O(n m)`` for unweighted
graphs -- fine at case-study scale.  :func:`edge_ego_betweenness` is the
local alternative (following the top-k ego-betweenness line of work):
the same shortest-path-fraction accounting restricted to the edge's own
2-hop neighborhood, computable per edge in ``O(d(u) + d(v))``
intersections.
"""

from __future__ import annotations

from collections import deque
from math import fsum
from typing import Dict, List, Tuple

from repro.graph.graph import Edge, Graph, Vertex, canonical_edge
from repro.graph.ordering import rank_edges
from repro.kernels.dispatch import kernels_enabled


def betweenness_normalization(n: int) -> float:
    """The ``normalized=True`` divisor for an ``n``-vertex graph.

    ``n (n - 1) / 2`` -- the number of unordered vertex pairs -- whenever
    at least one pair exists, else ``0.0`` (nothing to normalize: a
    graph with fewer than 2 vertices has no edges).  The previous guard
    skipped normalization for every ``n <= 2``, so a 2-vertex graph
    silently took the unnormalized branch on the ``normalized=True``
    path instead of dividing by this documented denominator.
    """
    if n < 2:
        return 0.0
    return n * (n - 1) / 2.0


def edge_betweenness(graph: Graph, normalized: bool = True) -> Dict[Edge, float]:
    """Exact edge betweenness of every edge.

    The betweenness of edge ``e`` is the sum over vertex pairs ``(s, t)``
    of the fraction of shortest s-t paths passing through ``e``.  With
    ``normalized`` the scores are divided by
    :func:`betweenness_normalization` (``n (n - 1) / 2``) for every
    ``n >= 2``, including the 2-vertex boundary.
    """
    scores: Dict[Edge, float] = {edge: 0.0 for edge in graph.edges()}
    for s in graph.vertices():
        _accumulate_from_source(graph, s, scores)
    # Each undirected pair (s, t) is counted from both endpoints.
    for edge in scores:
        scores[edge] /= 2.0
    if normalized:
        norm = betweenness_normalization(graph.n)
        if norm > 0:
            for edge in scores:
                scores[edge] /= norm
    return scores


def _accumulate_from_source(
    graph: Graph, s: Vertex, scores: Dict[Edge, float]
) -> None:
    """One source of Brandes' algorithm: BFS + dependency accumulation."""
    sigma: Dict[Vertex, float] = {s: 1.0}
    dist: Dict[Vertex, int] = {s: 0}
    predecessors: Dict[Vertex, List[Vertex]] = {s: []}
    order: List[Vertex] = []
    queue = deque([s])
    while queue:
        v = queue.popleft()
        order.append(v)
        for w in graph.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0.0
                predecessors[w] = []
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
                predecessors[w].append(v)
    delta: Dict[Vertex, float] = {v: 0.0 for v in order}
    for w in reversed(order):
        for v in predecessors[w]:
            contribution = sigma[v] / sigma[w] * (1.0 + delta[w])
            scores[canonical_edge(v, w)] += contribution
            delta[v] += contribution


def edge_ego_betweenness(graph: Graph, u: Vertex, v: Vertex) -> float:
    """Ego-betweenness of one edge: betweenness over distance-<=2 pairs.

    ``1 + sum_{a in N(u)\\N[v]} 1/|N(a) ∩ N(v)|
       + sum_{b in N(v)\\N[u]} 1/|N(u) ∩ N(b)|`` --
    each term is the fraction of length-2 shortest paths between the
    pair that route through ``(u, v)``; the ``1`` is the pair
    ``(u, v)`` itself.  ``u`` witnesses every ``(a, v)`` pair (and
    symmetrically), so no denominator is zero.  Local: touches only the
    edge's 2-hop neighborhood, in ``O(d(u) + d(v))`` intersections.

    The reduction uses :func:`math.fsum` (correctly rounded, hence
    summation-order independent), so the value is bit-identical to the
    CSR kernel's (:func:`repro.kernels.betweenness.csr_ego_betweenness`).
    """
    nu = graph.neighbors(u)
    nv = graph.neighbors(v)
    terms = [1.0]
    for a in nu:
        if a != v and a not in nv:
            terms.append(1.0 / len(graph.common_neighbors(a, v)))
    for b in nv:
        if b != u and b not in nu:
            terms.append(1.0 / len(graph.common_neighbors(u, b)))
    return fsum(terms)


def all_edge_ego_betweenness(graph: Graph) -> Dict[Edge, float]:
    """Ego-betweenness of every edge (kernel-dispatched).

    With kernels enabled the whole table is computed on the CSR
    snapshot's packed bitsets; the set path calls
    :func:`edge_ego_betweenness` per edge.  Identical floats either way.
    """
    if kernels_enabled() and graph.m:
        from repro.kernels.betweenness import csr_ego_betweenness
        from repro.kernels.csr import snapshot_csr

        return csr_ego_betweenness(snapshot_csr(graph))
    return {
        canonical_edge(u, v): edge_ego_betweenness(graph, u, v)
        for u, v in graph.edges()
    }


def topk_edge_betweenness(
    graph: Graph, k: int
) -> List[Tuple[Edge, float]]:
    """Top-k edges by betweenness (the ``BT`` baseline of Exp-7/8; ties
    break as in :func:`~repro.graph.ordering.rank_edges`)."""
    return rank_edges(edge_betweenness(graph), k)


def topk_ego_betweenness(
    graph: Graph, k: int
) -> List[Tuple[Edge, float]]:
    """Top-k edges by ego-betweenness (:func:`all_edge_ego_betweenness`)."""
    return rank_edges(all_edge_ego_betweenness(graph), k)
