"""Common-neighborhood component labeling on the CSR snapshot.

Algorithm 2's per-edge BFS, replaced by a bitset flood fill: the
frontier expansion is one word-parallel OR over member adjacency rows
per step (the :mod:`repro.graph.bitset` technique, now living on the
shared interned snapshot).  Two readouts of the same fill:

* :func:`csr_ego_component_sizes_ids` / :func:`csr_all_ego_component_sizes`
  -- the component-size multisets, all the static index needs;
* :func:`csr_all_ego_partitions` -- the partitions themselves, as the
  raw ``(parent, size)`` dicts of the paper's ``M`` structures, which
  dynamic maintenance keeps alive between updates.

Since ``M_uv`` is by definition the component partition of
``G_N(uv)``, the flood fill derives exactly what Algorithm 3's
4-clique union-find would, without the per-clique unions (the set
route in :mod:`repro.core.build` keeps that union-find as the
reference).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.csr import CSRGraph

__all__ = [
    "csr_ego_component_sizes_ids",
    "csr_all_ego_component_sizes",
    "csr_all_ego_partitions",
    "flood_fill_groups",
]


def flood_fill_groups(adj_bits: List[int], members: int) -> List[int]:
    """Components of the subgraph induced on ``members``, one bitmask each.

    Each expansion step ORs whole adjacency rows, masked back to
    ``members``, and stops early once a component has absorbed every
    remaining member (the common case: an ego-network that is one
    clique needs one step, not two).  Components come out in order of
    their lowest id.
    """
    groups: List[int] = []
    while members:
        seed = members & -members
        component = seed
        frontier = seed
        while frontier and component != members:
            reach = 0
            bits = frontier
            while bits:
                low = bits & -bits
                reach |= adj_bits[low.bit_length() - 1]
                bits ^= low
            frontier = reach & members & ~component
            component |= frontier
        groups.append(component)
        members &= ~component
    return groups


def _flood_fill_sizes(adj_bits: List[int], members: int) -> List[int]:
    """Component sizes of the subgraph induced on the ``members`` bitset."""
    return [group.bit_count() for group in flood_fill_groups(adj_bits, members)]


def csr_ego_component_sizes_ids(csr: CSRGraph, a: int, b: int) -> List[int]:
    """Component sizes of ``G_N(ab)`` for interned ids (unordered)."""
    adj_bits = csr.adj_bits
    KERNEL_COUNTERS.component_kernels += 1
    KERNEL_COUNTERS.bitset_intersections += 1
    return _flood_fill_sizes(adj_bits, adj_bits[a] & adj_bits[b])


def csr_all_ego_component_sizes(csr: CSRGraph) -> Dict[Tuple, List[int]]:
    """Component-size multiset for every edge, keyed by canonical label edge.

    Matches :func:`repro.core.diversity.all_ego_component_sizes`: every
    edge appears, including those with an empty common neighborhood.
    """
    adj_bits = csr.adj_bits
    canon = csr.canonical_label_edge
    out: Dict[Tuple, List[int]] = {}
    KERNEL_COUNTERS.component_kernels += 1
    offsets, neighbors, dag_start = csr.offsets, csr.neighbors, csr.dag_start
    pairs = 0
    for u in range(csr.n):
        lo, hi = dag_start[u], offsets[u + 1]
        if lo >= hi:
            continue
        bits_u = adj_bits[u]
        pairs += hi - lo
        for idx in range(lo, hi):
            v = neighbors[idx]
            out[canon(u, v)] = _flood_fill_sizes(adj_bits, bits_u & adj_bits[v])
    KERNEL_COUNTERS.bitset_intersections += pairs
    return out


def csr_all_ego_partitions(
    csr: CSRGraph,
) -> Dict[Tuple, Tuple[Dict[Hashable, Hashable], Dict[Hashable, int]]]:
    """Every edge's ``M`` as raw label-keyed union-find dicts.

    Keyed by canonical label edge like
    :func:`csr_all_ego_component_sizes`; the value is ``(parent, size)``
    where each component's first member (lowest id) is its root, every
    member points straight at it, and ``size`` maps roots to component
    sizes -- already fully compressed, ready to install into an
    :class:`~repro.structures.dsu.EdgeComponentSets`.
    """
    adj_bits = csr.adj_bits
    canon = csr.canonical_label_edge
    labels = csr.interner.labels
    out: Dict[Tuple, Tuple[Dict[Hashable, Hashable], Dict[Hashable, int]]] = {}
    KERNEL_COUNTERS.component_kernels += 1
    offsets, neighbors, dag_start = csr.offsets, csr.neighbors, csr.dag_start
    pairs = 0
    for u in range(csr.n):
        lo, hi = dag_start[u], offsets[u + 1]
        if lo >= hi:
            continue
        bits_u = adj_bits[u]
        pairs += hi - lo
        for idx in range(lo, hi):
            v = neighbors[idx]
            parent: Dict[Hashable, Hashable] = {}
            size: Dict[Hashable, int] = {}
            out[canon(u, v)] = (parent, size)
            common = bits_u & adj_bits[v]
            if not common:
                continue  # empty ego-network (most edges of a sparse graph)
            for group in flood_fill_groups(adj_bits, common):
                root = labels[(group & -group).bit_length() - 1]
                size[root] = group.bit_count()
                while group:
                    low = group & -group
                    parent[labels[low.bit_length() - 1]] = root
                    group ^= low
    KERNEL_COUNTERS.bitset_intersections += pairs
    return out
