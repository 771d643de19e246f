"""The offline edge rankings of ``esd topk --metric``.

A plain name -> ``fn(graph, k)`` table over the case-study analytics.
None of these rankings has a maintained top-k, so none is served: each
call scores the whole graph once and ranks it with
:func:`~repro.graph.ordering.rank_edges`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.analytics.betweenness import (
    topk_edge_betweenness,
    topk_ego_betweenness,
)
from repro.analytics.truss import topk_truss_edges
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.ordering import rank_edges


def topk_common_neighbors(graph: Graph, k: int) -> List[Tuple[Edge, int]]:
    """Top-k edges by ``|N(u) ∩ N(v)|``, the numerator of the paper's
    common-neighbour upper bound."""
    return rank_edges(
        {
            canonical_edge(u, v): len(graph.common_neighbors(u, v))
            for u, v in graph.edges()
        },
        k,
    )


EDGE_RANKINGS: Dict[str, Callable[[Graph, int], List[Tuple[Edge, Any]]]] = {
    "truss": topk_truss_edges,
    "betweenness": topk_ego_betweenness,
    "betweenness_global": topk_edge_betweenness,
    "common_neighbors": topk_common_neighbors,
}
