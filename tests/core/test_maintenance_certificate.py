"""The certified-unchanged rule for ego edges on the kernel route.

Inserting or deleting ``(u, v)`` touches every ego edge ``(w1, w2)``
inside ``N(uv)``: ``u`` and ``v`` are both members of ``M_{w1 w2}``.  If
some ``x`` is a common neighbour of all four, the path ``u-x-v`` joins
``u`` and ``v`` inside ``G_N(w1 w2)`` with or without the edge, so the
kernel route skips that pair's reflood (delete), ``union(u, v)``
(insert) and index refresh.  These tests pin when the rule may fire and
that skipping it leaves ``M`` and the top-k answers exact.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Set, Tuple

import pytest

from repro.core.index import ESDIndex
from repro.core.maintenance import DynamicESDIndex
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.kernels.dispatch import use_kernels
from repro.structures.dsu import EdgeComponentSets

QUERY_PAIRS = ((1, 1), (5, 1), (10, 2), (10, 3))


def clique(vertices) -> List[Edge]:
    return [canonical_edge(a, b) for a, b in itertools.combinations(vertices, 2)]


#: name -> (edges, the ego edges of N(01) with no witness).  In every
#: graph (0, 1) is the edge deleted and re-inserted.
GRAPHS: Dict[str, Tuple[List[Edge], Set[Edge]]] = {
    # K4: (0, 1) is the only 0-1 link inside N(23) = {0, 1}, so M_23
    # splits on delete and merges back on insert.
    "k4_splits": (clique(range(4)), {(2, 3)}),
    # K5: every ego pair of N(01) = {2, 3, 4} has the third as witness.
    "k5_witnessed": (clique(range(5)), set()),
    # K5 plus vertex 5 joined to 0, 1, 2: (2, 5) has N(25) = {0, 1} and
    # no witness; the K5 pairs keep theirs.
    "k5_with_tail": (clique(range(5)) + [(0, 5), (1, 5), (2, 5)], {(2, 5)}),
}


def ego_edges(graph: Graph, u, v) -> Set[Edge]:
    """The edges of ``G_N(uv)``."""
    common = graph.common_neighbors(u, v)
    return {
        canonical_edge(a, b)
        for a, b in itertools.combinations(sorted(common), 2)
        if graph.has_edge(a, b)
    }


def sorted_groups(m: EdgeComponentSets) -> List[List]:
    return sorted(sorted(group) for group in m.groups().values())


def assert_matches_fresh(dyn: DynamicESDIndex) -> None:
    """``M`` groups and top-k equal a from-scratch build of the graph."""
    fresh = DynamicESDIndex(dyn.graph)
    for edge in sorted(dyn.graph.edges()):
        assert sorted_groups(dyn.components_of(edge)) == sorted_groups(
            fresh.components_of(edge)
        ), edge
    for k, tau in QUERY_PAIRS:
        assert dyn.topk(k, tau) == fresh.topk(k, tau)
    dyn.check_invariants()


class Recorder:
    """Which ego edges of ``N(uv)`` took the uncertified path in one update.

    Records the index refreshes (``set_edge``), the refloods
    (``replace_partition``) and the ``union(u, v)`` calls, then maps
    them back to ego edges (edges with neither endpoint in ``{u, v}``).
    """

    def __init__(self, dyn: DynamicESDIndex, monkeypatch) -> None:
        self.dyn = dyn
        self.refreshed: List[Edge] = []
        self.reflooded: List[int] = []
        self.unions: List[Tuple[int, frozenset]] = []
        set_edge = ESDIndex.set_edge

        def record_set_edge(index, edge, sizes):
            self.refreshed.append(canonical_edge(*edge))
            return set_edge(index, edge, sizes)

        replace = EdgeComponentSets.replace_partition
        union = EdgeComponentSets.union

        def record_replace(m, groups):
            self.reflooded.append(id(m))
            return replace(m, groups)

        def record_union(m, a, b):
            self.unions.append((id(m), frozenset((a, b))))
            return union(m, a, b)

        monkeypatch.setattr(ESDIndex, "set_edge", record_set_edge)
        monkeypatch.setattr(EdgeComponentSets, "replace_partition", record_replace)
        monkeypatch.setattr(EdgeComponentSets, "union", record_union)

    def refreshed_ego(self, u, v) -> Set[Edge]:
        return {e for e in self.refreshed if u not in e and v not in e}

    def reflooded_ego(self, u, v) -> Set[Edge]:
        ids = set(self.reflooded)
        return {
            e for e in ego_edges(self.dyn.graph, u, v)
            if id(self.dyn.components_of(e)) in ids
        }

    def united_ego(self, u, v) -> Set[Edge]:
        ids = {m for m, pair in self.unions if pair == frozenset((u, v))}
        return {
            e for e in ego_edges(self.dyn.graph, u, v)
            if id(self.dyn.components_of(e)) in ids
        }


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_delete_refloods_exactly_the_uncertified_pairs(name, monkeypatch):
    edges, uncertified = GRAPHS[name]
    with use_kernels("csr"):
        dyn = DynamicESDIndex(Graph(edges))
        ego = ego_edges(dyn.graph, 0, 1)
        recorder = Recorder(dyn, monkeypatch)
        stats = dyn.delete_edge(0, 1)
        assert recorder.refreshed_ego(0, 1) == uncertified
        assert recorder.reflooded_ego(0, 1) == uncertified
        # Every edge of the closed ego-network still counts as rescored.
        common = dyn.graph.common_neighbors(0, 1)
        assert stats.ego_edges == len(ego)
        assert stats.edges_rescored == 2 * len(common) + len(ego)
        monkeypatch.undo()
        assert_matches_fresh(dyn)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_insert_unites_exactly_the_uncertified_pairs(name, monkeypatch):
    edges, uncertified = GRAPHS[name]
    with use_kernels("csr"):
        dyn = DynamicESDIndex(Graph(edges))
        dyn.delete_edge(0, 1)
        recorder = Recorder(dyn, monkeypatch)
        stats = dyn.insert_edge(0, 1)
        ego = ego_edges(dyn.graph, 0, 1)
        assert recorder.refreshed_ego(0, 1) == uncertified
        assert recorder.united_ego(0, 1) == uncertified
        common = dyn.graph.common_neighbors(0, 1)
        assert stats.ego_edges == len(ego)
        assert stats.edges_rescored == 1 + 2 * len(common) + len(ego)
        monkeypatch.undo()
        assert_matches_fresh(dyn)


def clique_rich_graph(seed: int) -> Graph:
    """A few overlapping random 5- to 7-cliques plus sparse noise edges."""
    rng = random.Random(seed)
    n = rng.randint(8, 16)
    edges: Set[Edge] = set()
    for _ in range(rng.randint(2, 4)):
        members = rng.sample(range(n), rng.randint(5, 7))
        edges.update(clique(members))
    for _ in range(rng.randint(0, n)):
        a, b = rng.sample(range(n), 2)
        edges.add(canonical_edge(a, b))
    return Graph(sorted(edges))


def certified_pairs(graph: Graph, u, v) -> int:
    """Ego edges of ``N(uv)`` with a witness in ``graph``."""
    common = graph.common_neighbors(u, v)
    return sum(
        1 for a, b in ego_edges(graph, u, v)
        if common & graph.common_neighbors(a, b)
    )


@pytest.mark.parametrize("seed", range(12))
def test_real_edge_churn_keeps_invariants(seed):
    """Delete/re-insert traces over real edges, checked after every op."""
    rng = random.Random(seed)
    graph = clique_rich_graph(seed)
    certified = 0
    with use_kernels("csr"):
        dyn = DynamicESDIndex(graph)
        for _ in range(6):
            batch = rng.sample(
                sorted(dyn.graph.edges()), min(3, dyn.graph.m)
            )
            for u, v in batch:
                certified += certified_pairs(dyn.graph, u, v)
                dyn.delete_edge(u, v)
                dyn.check_invariants()
            rng.shuffle(batch)
            for u, v in batch:
                dyn.insert_edge(u, v)
                dyn.check_invariants()
        assert_matches_fresh(dyn)
    # Each seeded trace exercises the certificate, not only the fallback.
    assert certified > 0
