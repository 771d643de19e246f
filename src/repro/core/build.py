"""ESDIndex construction: Algorithm 2 (basic) and Algorithm 3 (4-clique).

Both builders produce identical indexes; they differ in how the connected
components of all edge ego-networks are computed:

* :func:`build_index_basic` (Algorithm 2) runs one BFS per edge over its
  ego-network -- ``O((d_max + log m) α m)``.  Each 4-clique is traversed
  six times (once from each of its edges).
* :func:`build_index_fast` (Algorithm 3) enumerates every 4-clique exactly
  once on the degree-ordered DAG and applies six Union operations on the
  per-edge disjoint-set structures ``M`` (Observation 1) --
  ``O((α γ(n) + log m) α m)``.

With kernels enabled (``ESD_KERNELS=csr``, the default) both the static
build and the ``M`` structures of :func:`compute_components_fast` come
from one bitset flood fill per edge over the shared CSR snapshot instead;
the set route keeps Algorithm 3 as the reference.

The shared second phase loads the component-size multisets into the
:class:`~repro.core.index.ESDIndex` (Algorithm 2 lines 5-15).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.diversity import all_ego_component_sizes
from repro.core.index import ESDIndex
from repro.graph.graph import Edge, Graph, canonical_edge
from repro.graph.ordering import OrientedGraph
from repro.kernels.dispatch import kernels_enabled
from repro.structures.dsu import EdgeComponentSets


def index_from_sizes(sizes: Dict[Edge, Iterable[int]]) -> ESDIndex:
    """Assemble an ESDIndex from per-edge component-size multisets."""
    return ESDIndex.bulk_load(sizes)


def build_index_basic(graph: Graph) -> ESDIndex:
    """Algorithm 2: BFS per edge, then load the index."""
    return index_from_sizes(all_ego_component_sizes(graph))


def initialize_component_sets(graph: Graph) -> Dict[Edge, EdgeComponentSets]:
    """Algorithm 3 lines 1-4: one disjoint-set per edge, seeded with the
    common neighborhood as singletons."""
    return {
        (u, v): EdgeComponentSets(graph.common_neighbors(u, v))
        for u, v in graph.edges()
    }


def apply_four_clique(
    components: Dict[Edge, EdgeComponentSets], a, b, c, d
) -> None:
    """The six Union operations for one 4-clique (Algorithm 3 lines 10-15).

    For every edge of the clique, the two remaining vertices lie in the
    same connected component of that edge's ego-network.
    """
    components[canonical_edge(a, b)].union(c, d)
    components[canonical_edge(a, c)].union(b, d)
    components[canonical_edge(a, d)].union(b, c)
    components[canonical_edge(b, c)].union(a, d)
    components[canonical_edge(b, d)].union(a, c)
    components[canonical_edge(c, d)].union(a, b)


def _union_raw(state: tuple, a, b) -> None:
    """Union on the raw (parent, size) dict pair, path halving + by size.

    The build hot loop performs six of these per 4-clique; bypassing the
    :class:`EdgeComponentSets` method layers roughly halves construction
    time in CPython.
    """
    parent, size = state
    ra = a
    while parent[ra] != ra:
        parent[ra] = parent[parent[ra]]
        ra = parent[ra]
    rb = b
    while parent[rb] != rb:
        parent[rb] = parent[parent[rb]]
        rb = parent[rb]
    if ra == rb:
        return
    if size[ra] < size[rb]:
        ra, rb = rb, ra
    parent[rb] = ra
    size[ra] += size.pop(rb)


def _raw_components(graph: Graph) -> Dict[Edge, tuple]:
    """Algorithm 3's M structures as raw (parent, size) dict pairs.

    Lines 1-4 (init from common neighborhoods) fused with lines 6-15 (the
    single-pass 4-clique enumeration and its six unions per clique).
    """
    raw: Dict[Edge, tuple] = {}
    for u, v in graph.edges():
        common = graph.common_neighbors(u, v)
        raw[(u, v)] = ({w: w for w in common}, {w: 1 for w in common})

    dag = OrientedGraph(graph)
    for u in dag.vertices():
        outs_u = dag.out_neighbors(u)
        for v in outs_u:
            common = outs_u & dag.out_neighbors(v)
            if len(common) < 2:
                continue
            uv_state = raw[(u, v) if u < v else (v, u)]
            for w1 in common:
                # Hoist the two states involving w1 out of the inner loop.
                uw1_state = raw[(u, w1) if u < w1 else (w1, u)]
                vw1_state = raw[(v, w1) if v < w1 else (w1, v)]
                for w2 in dag.out_neighbors(w1):
                    if w2 not in common:
                        continue
                    # 4-clique {u, v, w1, w2}: six unions (Observation 1).
                    _union_raw(uv_state, w1, w2)
                    _union_raw(raw[(w1, w2) if w1 < w2 else (w2, w1)], u, v)
                    _union_raw(uw1_state, v, w2)
                    _union_raw(raw[(u, w2) if u < w2 else (w2, u)], v, w1)
                    _union_raw(vw1_state, u, w2)
                    _union_raw(raw[(v, w2) if v < w2 else (w2, v)], u, w1)
    return raw


def compute_components_fast(graph: Graph) -> Dict[Edge, EdgeComponentSets]:
    """The ``M`` structure of every edge, in ``graph.edges()`` order.

    The set route is Algorithm 3's single-pass 4-clique listing with six
    unions per clique.  The kernel route derives each partition directly
    by the bitset flood fill over the shared CSR snapshot
    (:func:`repro.kernels.components.csr_all_ego_partitions`): ``M_uv``
    is by definition the component partition of ``G_N(uv)``, so the
    fill yields the same groups with no per-clique unions.
    """
    if kernels_enabled() and graph.m:
        from repro.kernels.components import csr_all_ego_partitions
        from repro.kernels.csr import snapshot_csr

        raw = csr_all_ego_partitions(snapshot_csr(graph))
    else:
        raw = _raw_components(graph)
    adopt = EdgeComponentSets.adopt
    return {edge: adopt(*raw[edge]) for edge in graph.edges()}


def build_index_fast(graph: Graph) -> ESDIndex:
    """Algorithm 3 (ESDIndex+): 4-clique enumeration + union-find.

    The kernel route takes the bitset flood fill over the shared CSR
    snapshot instead: it produces the same component-size multisets,
    already keyed by canonical label edge.
    """
    if kernels_enabled() and graph.m:
        from repro.kernels.components import csr_all_ego_component_sizes
        from repro.kernels.csr import snapshot_csr

        return index_from_sizes(
            csr_all_ego_component_sizes(snapshot_csr(graph))
        )
    return index_from_sizes(
        {
            edge: list(size.values())
            for edge, (_parent, size) in _raw_components(graph).items()
        }
    )


def build_index_bitset(graph: Graph) -> ESDIndex:
    """Bitset-accelerated construction (extension; fastest in pure Python).

    Packs adjacency into big-integer bitsets
    (:class:`repro.graph.bitset.BitsetAdjacency`) so the per-edge
    ego-network component computation runs on word-parallel AND/OR
    operations.  Produces an index identical to the other builders.

    With kernels enabled the bitset layer lives on the shared CSR
    snapshot instead of a private :class:`BitsetAdjacency`, so repeated
    builds of an unchanged graph skip the packing entirely.
    """
    if kernels_enabled() and graph.m:
        return index_from_sizes(all_ego_component_sizes(graph))
    from repro.graph.bitset import BitsetAdjacency

    bits = BitsetAdjacency(graph)
    return index_from_sizes(bits.all_ego_component_sizes(graph))


def build_index_fast_with_components(
    graph: Graph,
) -> Tuple[ESDIndex, Dict[Edge, EdgeComponentSets]]:
    """Like :func:`build_index_fast` but also return the ``M`` structures.

    The dynamic maintenance algorithms (§V) keep ``M`` alive between
    updates; :class:`repro.core.maintenance.DynamicESDIndex` starts from
    this function's output, both on a fresh build and on a restore from
    a snapshot (which stores only the graph).
    """
    components = compute_components_fast(graph)
    index = index_from_sizes(
        {edge: m.component_sizes() for edge, m in components.items()}
    )
    return index, components
