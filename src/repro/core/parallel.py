"""Parallel ESDIndex construction -- PESDIndex+ (paper §IV-E).

The paper parallelizes Algorithm 3 *per directed edge* because the
out-degree skew makes vertex-parallel partitioning unbalanced while
per-edge workloads are nearly uniform.  We keep that edge-parallel
strategy but apply it to where pure Python actually spends its time: the
per-edge ego-network component computation (on our synthetic stand-ins
the 4-clique enumeration itself is a small fraction of construction, so
parallelizing only it -- as a C++ implementation would -- cannot show the
Fig. 7 trend; see DESIGN.md §3).

Pipeline:

1. undirected edges are costed by their ego-network size
   ``|N(u) ∩ N(v)| + 1`` and scheduled LPT (longest processing time
   first: each edge goes to the currently least-loaded chunk) into one
   chunk per worker -- the load balancing §IV-E exists for,
2. a ``multiprocessing`` fork pool computes each chunk's per-edge
   component-size multisets (true parallelism; Python threads would
   serialize on the GIL); with kernels enabled the workers inherit the
   parent's bit-packed CSR snapshot through fork and chunks travel as
   packed ``array('l')`` id pairs,
3. the parent bulk-loads the ESDIndex from the merged multisets.

``threads=1`` runs inline with zero pool overhead so speedup ratios
against it are fair.  :func:`parallel_four_cliques` additionally exposes
the paper's literal clique-parallel enumeration as a library feature.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
from array import array
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.build import index_from_sizes
from repro.core.index import ESDIndex
from repro.graph.components import components_of_subset
from repro.graph.graph import Edge, Graph, Vertex
from repro.graph.ordering import OrientedGraph
from repro.kernels.dispatch import kernels_enabled

# Worker-side state, inherited through fork (set before pool creation,
# cleared once the pool is gone).
_WORKER_GRAPH: Graph = None  # type: ignore[assignment]
_WORKER_DAG: OrientedGraph = None  # type: ignore[assignment]
_WORKER_CSR = None  # CSR snapshot with its adjacency bitsets packed


def _resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


def _edge_costs(graph: Graph) -> Dict[Edge, int]:
    """Per-edge work estimate ``|N(u) ∩ N(v)| + 1``.

    The ego-network component computation is linear-ish in the common
    neighborhood, so its size is the right LPT weight; ``+ 1`` keeps
    empty-neighborhood edges from being free.  With kernels enabled all
    counts come from one bitset pass over the CSR snapshot.
    """
    if kernels_enabled() and graph.m:
        from repro.kernels.csr import snapshot_csr
        from repro.kernels.triangles import csr_triangle_count_per_edge

        counts = csr_triangle_count_per_edge(snapshot_csr(graph))
        return {edge: c + 1 for edge, c in counts.items()}
    return {
        (u, v): len(graph.common_neighbors(u, v)) + 1
        for u, v in graph.edges()
    }


def _cost_balanced_chunks(graph: Graph, parts: int) -> List[List[Edge]]:
    """LPT-schedule edges into ``parts`` chunks by ego-network cost.

    Longest processing time first: edges are sorted by descending
    ``|N(u) ∩ N(v)| + 1`` and each goes to the currently least-loaded
    chunk (a heap of ``(load, chunk)`` pairs).  This is the classic
    4/3-approximation to minimum makespan -- the edge-parallel load
    balancing of §IV-E.  An earlier version dealt the sorted edges
    round-robin, which on skewed graphs can pile every heavy edge of a
    stride onto one worker; see ``tests/core/test_parallel.py``.
    """
    costs = _edge_costs(graph)
    edges = sorted(costs, key=lambda e: (-costs[e], e))
    chunks: List[List[Edge]] = [[] for _ in range(parts)]
    heap: List[Tuple[int, int]] = [(0, i) for i in range(parts)]
    for edge in edges:
        load, i = heapq.heappop(heap)
        chunks[i].append(edge)
        heapq.heappush(heap, (load + costs[edge], i))
    return chunks


def _component_sizes_chunk(chunk: Sequence[Edge]) -> Dict[Edge, Tuple[int, ...]]:
    """Worker: component-size multiset of every edge in the chunk."""
    graph = _WORKER_GRAPH
    out: Dict[Edge, Tuple[int, ...]] = {}
    for u, v in chunk:
        common = graph.common_neighbors(u, v)
        if common:
            out[(u, v)] = tuple(
                len(c) for c in components_of_subset(graph, common)
            )
    return out


def _component_sizes_chunk_ids(chunk: array) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    """Worker: flood-fill sizes for a packed ``array('l')`` of id pairs."""
    from repro.kernels.components import _flood_fill_sizes

    csr = _WORKER_CSR
    adj = csr.adj_bits
    out: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    it = iter(chunk)
    for a, b in zip(it, it):
        common = adj[a] & adj[b]
        if common:
            out[(a, b)] = tuple(_flood_fill_sizes(adj, common))
    return out


def _parallel_component_sizes_kernel(
    graph: Graph, threads: int
) -> Dict[Edge, Tuple[int, ...]]:
    """Kernel route: workers inherit the CSR by fork, chunks are id pairs.

    The parent packs the snapshot's bitsets once before the pool forks,
    so no worker rebuilds or unpickles it.  Each chunk is a packed
    ``array('l')`` of interned id pairs -- a few machine words per edge
    on the wire instead of a pickled label tuple.
    """
    global _WORKER_CSR
    from repro.kernels.csr import snapshot_csr

    csr = snapshot_csr(graph)
    csr.ensure_bits()
    intern = csr.intern
    chunks = _cost_balanced_chunks(graph, threads)
    id_chunks = [
        array(
            "l",
            chain.from_iterable((intern(u), intern(v)) for u, v in chunk),
        )
        for chunk in chunks
    ]
    canon = csr.canonical_label_edge
    merged: Dict[Edge, Tuple[int, ...]] = {}
    _WORKER_CSR = csr
    try:
        ctx = mp.get_context("fork")
        with ctx.Pool(processes=threads) as pool:
            for part in pool.map(_component_sizes_chunk_ids, id_chunks):
                for (a, b), sizes in part.items():
                    merged[canon(a, b)] = sizes
    finally:
        _WORKER_CSR = None
    return merged


def parallel_component_sizes(
    graph: Graph, threads: int = 0
) -> Dict[Edge, Tuple[int, ...]]:
    """All per-edge ego-network component sizes, computed in parallel."""
    global _WORKER_GRAPH
    threads = _resolve_threads(threads)
    use_kernels = kernels_enabled() and graph.m
    if threads == 1 or graph.m < 4 * threads:
        if use_kernels:
            from repro.kernels.components import csr_all_ego_component_sizes
            from repro.kernels.csr import snapshot_csr

            return {
                edge: tuple(sizes)
                for edge, sizes in csr_all_ego_component_sizes(
                    snapshot_csr(graph)
                ).items()
                if sizes
            }
        _WORKER_GRAPH = graph
        try:
            return _component_sizes_chunk(list(graph.edges()))
        finally:
            _WORKER_GRAPH = None

    if use_kernels:
        return _parallel_component_sizes_kernel(graph, threads)

    _WORKER_GRAPH = graph
    try:
        ctx = mp.get_context("fork")
        chunks = _cost_balanced_chunks(graph, threads)
        merged: Dict[Edge, Tuple[int, ...]] = {}
        with ctx.Pool(processes=threads) as pool:
            for part in pool.map(_component_sizes_chunk, chunks):
                merged.update(part)
        return merged
    finally:
        _WORKER_GRAPH = None


def build_index_parallel(graph: Graph, threads: int = 0) -> ESDIndex:
    """PESDIndex+: edge-parallel construction (§IV-E).

    Produces an index identical to
    :func:`repro.core.build.build_index_fast`.  ``threads=0`` uses all
    cores; ``threads=1`` is the sequential baseline of Fig. 7's speedup
    ratio.
    """
    sizes = parallel_component_sizes(graph, threads=threads)
    return index_from_sizes(sizes)


def _edge_work(graph: Graph, u: Vertex, v: Vertex) -> int:
    """Counted work units of one edge's share of PESDIndex+.

    One unit per adjacency entry the per-edge computation scans: the
    intersection ``N(u) ∩ N(v)`` probes the smaller endpoint's set, the
    flood over the ego-network scans each common neighbour's adjacency,
    and one unit inserts the edge's result into the index.
    """
    degree = graph.degree
    work = min(degree(u), degree(v)) + 1
    for w in graph.common_neighbors(u, v):
        work += degree(w)
    return work


def simulate_parallel_speedup(graph: Graph, threads: int) -> Dict[str, float]:
    """Counted-work simulation of the PESDIndex+ speedup (Fig. 7).

    On a multi-core host :func:`build_index_parallel` gives real wall-clock
    speedups; this container may expose a single core, making measured
    ratios meaningless (DESIGN.md §3 documents the substitution).  This
    routine splits the edges into the same LPT chunks the pool would get,
    counts every chunk's work in units (see :func:`_edge_work`) plus the
    serial shard merge (one unit per merged entry), and reports the
    speedup ``threads`` perfectly-overlapped workers would achieve:

        speedup(t) = (serial + sum(chunks)) / (serial + max(chunk_i))

    The chunk work is the actual work of the actual partition, so the
    skew the paper's edge-parallel partitioning is designed to avoid
    shows up faithfully -- and the same graph always gives the same
    answer, whatever else the host is running.
    """
    threads = _resolve_threads(threads)
    chunk_work = [
        sum(_edge_work(graph, u, v) for u, v in chunk)
        for chunk in _cost_balanced_chunks(graph, threads)
    ]
    # Serial remainder: merging the shard outputs, one per edge whose
    # ego-network is non-empty.
    serial = sum(1 for u, v in graph.edges() if graph.common_neighbors(u, v))
    total = serial + sum(chunk_work)
    overlapped = serial + max(chunk_work)
    return {
        "threads": float(threads),
        "serial_work": float(serial),
        "parallel_work": float(sum(chunk_work)),
        "sequential_total": float(total),
        "overlapped_total": float(overlapped),
        "speedup": total / overlapped if overlapped > 0 else 1.0,
    }


def _enumerate_chunk(
    chunk: Sequence[Tuple[Vertex, Vertex]]
) -> List[Tuple[Vertex, Vertex, Vertex, Vertex]]:
    """Worker: list the 4-cliques rooted at each directed edge in chunk."""
    dag = _WORKER_DAG
    cliques: List[Tuple[Vertex, Vertex, Vertex, Vertex]] = []
    for u, v in chunk:
        common = dag.out_neighbors(u) & dag.out_neighbors(v)
        if len(common) < 2:
            continue
        for w1 in common:
            for w2 in dag.out_neighbors(w1):
                if w2 in common:
                    cliques.append((u, v, w1, w2))
    return cliques


def parallel_four_cliques(
    graph: Graph, threads: int = 0
) -> Iterable[Tuple[Vertex, Vertex, Vertex, Vertex]]:
    """Enumerate all 4-cliques with ``threads`` worker processes.

    The paper's literal directed-edge-parallel enumeration (§IV-E step
    two).  ``threads=0`` uses all cores; ``threads=1`` runs inline.

    Results are materialized eagerly and returned as an iterator.  An
    earlier version built the pool inside a generator; an abandoned
    iterator then suspended mid-``with``, leaking the worker processes
    and leaving ``_WORKER_DAG`` pinned until GC.  ``pool.map`` is eager
    anyway, so laziness bought nothing -- now the pool is torn down and
    the module state cleared before this function returns, no matter
    what the caller does with the iterator.
    """
    global _WORKER_DAG
    threads = _resolve_threads(threads)
    dag = OrientedGraph(graph)
    directed = dag.directed_edges()
    _WORKER_DAG = dag
    try:
        if threads == 1 or len(directed) < 2 * threads:
            return iter(_enumerate_chunk(directed))
        ctx = mp.get_context("fork")
        chunks: List[List[Tuple[Vertex, Vertex]]] = [[] for _ in range(threads)]
        for i, edge in enumerate(directed):
            chunks[i % threads].append(edge)
        cliques: List[Tuple[Vertex, Vertex, Vertex, Vertex]] = []
        with ctx.Pool(processes=threads) as pool:
            for part in pool.map(_enumerate_chunk, chunks):
                cliques.extend(part)
        return iter(cliques)
    finally:
        _WORKER_DAG = None
