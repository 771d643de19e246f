"""Dynamic ESDIndex maintenance under edge insertions/deletions (paper §V).

:class:`DynamicESDIndex` owns a mutable graph, the per-edge disjoint-set
structures ``M`` and the :class:`~repro.core.index.ESDIndex`, and keeps
all three consistent through :meth:`insert_edge` (Algorithm 4) and
:meth:`delete_edge` (Algorithm 5).

Locality (Observations 2 and 3): inserting or deleting ``(u, v)`` only
changes the structural diversities of edges inside the closed ego-network
``Ĝ_N(uv)`` -- the edge itself, the triangle edges ``(u, w)``/``(v, w)``
for common neighbors ``w``, and the ego-edges ``(w1, w2)`` inside
``N(uv)``.  Everything else is untouched, which is why updates are cheap
relative to reconstruction (Fig. 11).  The kernel route narrows this
further: an ego edge whose ego-network holds a common neighbour of ``u``
and ``v`` cannot change either (docs/ALGORITHMS.md §V-A), so only the
ego edges without such a witness are repaired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Dict, Iterable, List, Set, Tuple

from repro.core.build import build_index_fast_with_components
from repro.core.index import ESDIndex
from repro.graph.graph import Edge, Graph, Vertex, canonical_edge
from repro.kernels.delta import MaintenanceKernel
from repro.kernels.dispatch import kernels_enabled
from repro.obs.trace import TRACER
from repro.structures.dsu import EdgeComponentSets


@dataclass
class UpdateStats:
    """Instrumentation for one insert/delete: how local was the update?

    ``common_neighbors`` is ``|N(uv)|``, ``ego_edges`` the number of
    edges inside ``N(uv)``, and ``edges_rescored`` the number of edges
    of the closed ego-network ``Ĝ_N(uv)`` whose index entry is current
    after the update (the deleted edge itself excluded).  That includes
    ego edges the kernel route certifies as unchanged without calling
    ``set_edge``, so the count is the same on both routes.
    """

    common_neighbors: int = 0
    ego_edges: int = 0
    edges_rescored: int = 0


@dataclass
class MutationCounters:
    """Lifetime mutation tally of a :class:`DynamicESDIndex`.

    Like :class:`UpdateStats` but cumulative: one counter pair for the
    whole index rather than one record per update.
    """

    insertions: int = 0
    deletions: int = 0
    #: Sum of :attr:`UpdateStats.edges_rescored` over all updates: the
    #: closed ego-network edges each write brought up to date, certified
    #: ones included -- the core-layer cost counter surfaced by the
    #: unified metrics registry (not persisted: a restored index
    #: restarts it at 0).
    edges_rescored: int = 0

    @property
    def total(self) -> int:
        return self.insertions + self.deletions


#: Signature of :meth:`DynamicESDIndex.subscribe` callbacks:
#: ``(kind, edge, new_version)`` with ``kind in {"insert", "delete"}``.
MutationCallback = Callable[[str, Edge, int], None]

#: Signature of :meth:`DynamicESDIndex.subscribe_batch` callbacks:
#: ``(events, version)`` where ``events`` is the ordered
#: ``[(kind, edge), ...]`` of one committed batch (a single-edge update
#: is a one-element batch) and ``version`` is the index version after
#: the whole batch.
BatchCallback = Callable[[List[Tuple[str, Edge]], int], None]


class DynamicESDIndex:
    """ESDIndex plus the state needed to maintain it under edge updates."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph.copy()
        self._index, self._components = build_index_fast_with_components(
            self._graph
        )
        self._version = 0
        self._mutations = MutationCounters()
        self._subscribers: List[MutationCallback] = []
        self._batch_subscribers: List[BatchCallback] = []
        #: Non-None while ``apply_batch`` is draining: committed events
        #: accumulate here and batch subscribers see them once, at the end.
        self._pending_events: "List[Tuple[str, Edge]] | None" = None
        self._kmaint: "MaintenanceKernel | None" = None

    # -- read-only views ------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The current graph.  Mutate only through insert/delete_edge."""
        return self._graph

    @property
    def graph_version(self) -> int:
        """Monotonic version of the maintained graph, for cache invalidation.

        Starts at 0 when the index is built and increases by exactly 1 for
        every *successful* single-edge mutation (a failed insert/delete
        leaves it unchanged; vertex and batch operations advance it once
        per constituent edge update).  Any derived artifact -- a cached
        query result, an exported snapshot -- tagged with version ``V`` is
        valid if and only if ``graph_version == V`` still holds; a version
        mismatch means at least one edge changed in between, so the
        artifact must be recomputed.  The counter never goes backwards and
        is never reused, so ``(query, version)`` pairs are safe cache keys.
        """
        return self._version

    @property
    def mutation_counters(self) -> MutationCounters:
        """Cumulative successful insert/delete counts (live view)."""
        return self._mutations

    def subscribe(self, callback: MutationCallback) -> None:
        """Register ``callback(kind, edge, new_version)`` on each mutation.

        Callbacks fire after the index is fully consistent for every
        successful edge insert/delete -- the hook the serving layer uses
        to purge stale cache entries and feed change monitors.  Callbacks
        run synchronously on the mutating thread (under the caller's
        write lock, if any), so they must be fast and must not mutate
        this index.
        """
        self._subscribers.append(callback)

    def subscribe_batch(self, callback: BatchCallback) -> None:
        """Register ``callback(events, version)``, fired once per commit
        *group*: once per single-edge mutation, and once -- with the full
        ordered event list -- per :meth:`apply_batch`.  This is the hook
        for work that amortizes over a batch (the engine purges its result
        cache once per batch, not once per edge); subscribers
        needing every intermediate version (replication) use
        :meth:`subscribe`.  Same threading contract as :meth:`subscribe`.
        """
        self._batch_subscribers.append(callback)

    def _committed(self, kind: str, edge: Edge) -> None:
        """Record one successful mutation and notify subscribers."""
        self._version += 1
        if kind == "insert":
            self._mutations.insertions += 1
        else:
            self._mutations.deletions += 1
        for callback in self._subscribers:
            callback(kind, edge, self._version)
        if self._pending_events is not None:
            self._pending_events.append((kind, edge))
        elif self._batch_subscribers:
            events = [(kind, edge)]
            for callback in self._batch_subscribers:
                callback(events, self._version)

    @property
    def index(self) -> ESDIndex:
        """The maintained ESDIndex."""
        return self._index

    def topk(self, k: int, tau: int) -> List[Tuple[Edge, int]]:
        """Query the maintained index (see :meth:`ESDIndex.topk`)."""
        return self._index.topk(k, tau)

    def components_of(self, edge: Edge) -> EdgeComponentSets:
        """The live ``M`` structure of ``edge`` (raises KeyError if absent)."""
        return self._components[canonical_edge(*edge)]

    # -- kernel routing (ESD_KERNELS dispatch) -------------------------------

    def _maintenance_kernel(self) -> "MaintenanceKernel | None":
        """The live id-space mirror, or ``None`` when kernels are off.

        Built lazily from the cached CSR snapshot (nearly free right
        after an index build) and rebuilt whenever its revision drifted
        from the graph's -- which happens when the kernel mode was
        flipped mid-life, or after a restore -- or when vertex-removal
        churn left too many dead id slots behind.
        """
        if not kernels_enabled():
            return None
        kernel = self._kmaint
        if (
            kernel is None
            or kernel.revision != self._graph.revision
            or kernel.bloated()
        ):
            from repro.kernels.csr import snapshot_csr

            kernel = MaintenanceKernel.from_csr(
                snapshot_csr(self._graph), self._graph.revision
            )
            self._kmaint = kernel
        return kernel

    # -- insertion (Algorithm 4) ------------------------------------------------

    def insert_edge(self, u: Vertex, v: Vertex) -> UpdateStats:
        """Insert ``(u, v)`` and restore all invariants.

        Raises ``ValueError`` if the edge already exists or is a
        self-loop (callers see a loud signal instead of silent
        corruption); a rejected insert leaves graph, ``M`` and index
        untouched.
        """
        if u == v:
            raise ValueError(f"self-loop not allowed: ({u!r}, {v!r})")
        edge = canonical_edge(u, v)
        if self._graph.has_edge(u, v):
            raise ValueError(f"edge already in graph: {edge}")
        with TRACER.span("index.insert_edge", edge=list(edge)) as span:
            stats = self._apply_insert(edge, u, v)
            span.set(
                common_neighbors=stats.common_neighbors,
                ego_edges=stats.ego_edges,
                edges_rescored=stats.edges_rescored,
            )
            return stats

    def _apply_insert(self, edge: Edge, u: Vertex, v: Vertex) -> UpdateStats:
        """Algorithm 4 proper, after the entry-point validation."""
        kernel = self._maintenance_kernel()
        if kernel is not None:
            return self._apply_insert_kernel(kernel, edge, u, v)
        self._graph.add_edge(u, v)
        common = self._graph.common_neighbors(u, v)
        stats = UpdateStats(common_neighbors=len(common))

        # Lines 3-9: fresh M for the new edge; each common neighbor w makes
        # {u, v, w} a triangle, adding members to M_uw and M_vw.
        m_new = EdgeComponentSets(common)
        self._components[edge] = m_new
        for w in common:
            self._components[canonical_edge(u, w)].add(v)
            self._components[canonical_edge(v, w)].add(u)

        # Lines 10-19: every ego-edge (w1, w2) inside N(uv) completes the
        # 4-clique {u, v, w1, w2}; apply the six Unions.
        for w1, w2 in self._ego_edges(common):
            stats.ego_edges += 1
            m_new.union(w1, w2)
            self._components[canonical_edge(w1, w2)].union(u, v)
            self._components[canonical_edge(u, w1)].union(v, w2)
            self._components[canonical_edge(v, w1)].union(u, w2)
            self._components[canonical_edge(u, w2)].union(v, w1)
            self._components[canonical_edge(v, w2)].union(u, w1)

        # Lines 20-22: refresh index entries for every affected edge.
        self._rescore(self._affected_edges(edge, common), stats)
        self._committed("insert", edge)
        return stats

    def _apply_insert_kernel(
        self, kernel: MaintenanceKernel, edge: Edge, u: Vertex, v: Vertex
    ) -> UpdateStats:
        """Algorithm 4 on the id-space mirror (bit-identical results).

        The union-find surgery is the set path's minus the no-op
        ``union(u, v)`` of certified ego edges; the kernel replaces the
        *enumeration*: the common neighborhood is one AND,
        ego edges come from a single bit scan (the set path walks the
        neighbor sets twice -- once for the unions, once for the
        affected-edge set), the new edge's partition is one flood fill
        instead of per-ego-edge unions, and the affected edges are
        collected as a list (unique by construction, no set hashing).
        """
        self._graph.add_edge(u, v)
        iu, iv = kernel.note_insert(u, v, self._graph.revision)
        common = kernel.common_mask(iu, iv)
        stats = UpdateStats(common_neighbors=common.bit_count())
        labels = kernel.labels
        components = self._components

        # Lines 3-9 via flood fill: M_uv is by definition the partition
        # of N(uv) into components of G_N(uv), already live in the mirror.
        m_new = EdgeComponentSets()
        m_new.replace_partition(
            [kernel.labels_of_mask(g) for g in kernel.flood_groups(common)]
        )
        components[edge] = m_new

        affected: List[Edge] = [edge]
        m_uw: Dict[int, EdgeComponentSets] = {}
        m_vw: Dict[int, EdgeComponentSets] = {}
        for w in kernel.common_ids(common):
            wl = labels[w]
            e_uw = (u, wl) if u < wl else (wl, u)
            e_vw = (v, wl) if v < wl else (wl, v)
            mu = components[e_uw]
            mv = components[e_vw]
            mu.add(v)
            mv.add(u)
            m_uw[w] = mu
            m_vw[w] = mv
            affected.append(e_uw)
            affected.append(e_vw)

        # Lines 10-19: the five remaining Unions per ego edge (the sixth,
        # m_new's own, is subsumed by the flood-fill partition above).
        # A certified pair (a witness x in N(uv) ∩ N(w1 w2)) already has
        # u and v joined through u-x-v in M_{w1 w2}: its Union would be
        # a no-op and its index entry is unchanged, so both are skipped.
        pairs = kernel.ego_pairs(common)
        stats.ego_edges = len(pairs)
        adj = kernel.adj
        certified = 0
        for w1, w2 in pairs:
            l1, l2 = labels[w1], labels[w2]
            m_uw[w1].union(v, l2)
            m_vw[w1].union(u, l2)
            m_uw[w2].union(v, l1)
            m_vw[w2].union(u, l1)
            if common & adj[w1] & adj[w2]:
                certified += 1
                continue
            ego_edge = (l1, l2) if l1 < l2 else (l2, l1)
            affected.append(ego_edge)
            components[ego_edge].union(u, v)

        self._rescore(affected, stats, certified)
        self._committed("insert", edge)
        return stats

    # -- deletion (Algorithm 5) ---------------------------------------------

    def delete_edge(self, u: Vertex, v: Vertex) -> UpdateStats:
        """Delete ``(u, v)`` and restore all invariants.

        Raises ``KeyError`` if the edge is absent (a self-loop is never
        in the graph, so it reports the same way).
        """
        if u == v:
            raise KeyError(f"edge not in graph: ({u!r}, {v!r})")
        edge = canonical_edge(u, v)
        if not self._graph.has_edge(u, v):
            raise KeyError(f"edge not in graph: {edge}")
        with TRACER.span("index.delete_edge", edge=list(edge)) as span:
            stats = self._apply_delete(edge, u, v)
            span.set(
                common_neighbors=stats.common_neighbors,
                ego_edges=stats.ego_edges,
                edges_rescored=stats.edges_rescored,
            )
            return stats

    def _apply_delete(self, edge: Edge, u: Vertex, v: Vertex) -> UpdateStats:
        """Algorithm 5 proper, after the entry-point validation."""
        kernel = self._maintenance_kernel()
        if kernel is not None:
            return self._apply_delete_kernel(kernel, edge, u, v)
        common = self._graph.common_neighbors(u, v)
        stats = UpdateStats(common_neighbors=len(common))
        self._graph.remove_edge(u, v)

        # Lines 3-9: v leaves N(uw) and u leaves N(vw) for each w in N(uv).
        # If the leaver was isolated it is simply discarded; otherwise its
        # old component must be re-partitioned without it (Update proc).
        for w in common:
            self._remove_member(canonical_edge(u, w), v)
            self._remove_member(canonical_edge(v, w), u)

        # Lines 10-18: each broken 4-clique {u, v, w1, w2}: in M_{w1 w2},
        # u and v stay members but may now fall apart.
        rebuilt: Set[Edge] = set()
        for w1, w2 in self._ego_edges(common):
            stats.ego_edges += 1
            ego_edge = canonical_edge(w1, w2)
            if ego_edge not in rebuilt:
                rebuilt.add(ego_edge)
                self._rebuild_around(ego_edge, u)

        # Lines 19-23: refresh entries, then drop the deleted edge.
        affected = self._affected_edges(edge, common)
        affected.discard(edge)
        self._rescore(affected, stats)
        self._index.remove_edge(edge)
        del self._components[edge]
        self._committed("delete", edge)
        return stats

    def _apply_delete_kernel(
        self, kernel: MaintenanceKernel, edge: Edge, u: Vertex, v: Vertex
    ) -> UpdateStats:
        """Algorithm 5 on the id-space mirror (bit-identical results).

        Same repair as the set path, minus the refloods of certified
        ego edges; the kernel supplies the enumeration.  The common
        neighborhood of ``(u, v)`` is unchanged by removing the
        ``u <-> v`` bits themselves (neither endpoint can be its own
        common neighbor), so it is read off *after* the mirror update.
        """
        self._graph.remove_edge(u, v)
        iu, iv = kernel.note_delete(u, v, self._graph.revision)
        common = kernel.common_mask(iu, iv)
        stats = UpdateStats(common_neighbors=common.bit_count())
        labels = kernel.labels
        components = self._components
        affected: List[Edge] = []

        def reflood(m: EdgeComponentSets, a: int, b: int) -> None:
            # Deletion can only split components, and union-find cannot
            # split -- the set path re-partitions by scanning the stale
            # component's members and their neighbor sets.  The mirror
            # already holds the post-delete adjacency, so the fresh
            # partition of M_{ab} is one flood fill over N(a) ∩ N(b).
            m.replace_partition(
                [
                    kernel.labels_of_mask(g)
                    for g in kernel.flood_groups(kernel.common_mask(a, b))
                ]
            )

        # Lines 3-9: v leaves N(uw) and u leaves N(vw) for each w.  A
        # singleton leaver is discarded in O(1); otherwise its whole M is
        # re-derived by flood (the leaver is already out of the mask).
        for w in kernel.common_ids(common):
            wl = labels[w]
            e_uw = (u, wl) if u < wl else (wl, u)
            e_vw = (v, wl) if v < wl else (wl, v)
            m = components[e_uw]
            if not m.discard_singleton(v):
                reflood(m, iu, w)
            m = components[e_vw]
            if not m.discard_singleton(u):
                reflood(m, iv, w)
            affected.append(e_uw)
            affected.append(e_vw)

        # Lines 10-18: u and v may fall apart in each M_{w1 w2} -- unless
        # the pair is certified: a witness x in N(uv) ∩ N(w1 w2) keeps
        # the path u-x-v inside G_N(w1 w2), so M_{w1 w2} and its index
        # entry are unchanged and neither is touched.  The bit scan
        # yields each ego edge exactly once, so no dedup set.
        pairs = kernel.ego_pairs(common)
        stats.ego_edges = len(pairs)
        adj = kernel.adj
        certified = 0
        for w1, w2 in pairs:
            if common & adj[w1] & adj[w2]:
                certified += 1
                continue
            l1, l2 = labels[w1], labels[w2]
            ego_edge = (l1, l2) if l1 < l2 else (l2, l1)
            affected.append(ego_edge)
            reflood(components[ego_edge], w1, w2)

        self._rescore(affected, stats, certified)
        self._index.remove_edge(edge)
        del self._components[edge]
        self._committed("delete", edge)
        return stats

    # -- vertex updates (§V: a vertex update is a series of edge updates) ---

    def insert_vertex(self, v: Vertex, neighbors: Iterable[Vertex]) -> List[UpdateStats]:
        """Insert vertex ``v`` with its incident edges, one at a time.

        Raises ``ValueError`` if ``v`` already exists with edges (so a
        partial overlap cannot silently double-insert) or if ``v`` is
        its own neighbor (a self-loop).  Both are checked *before* any
        mutation: a rejected call leaves graph and index untouched
        rather than half-applied.
        """
        targets = sorted(set(neighbors))
        if v in targets:
            raise ValueError(
                f"self-loop not allowed: vertex {v!r} listed in its own "
                f"neighbors"
            )
        if v in self._graph and self._graph.degree(v) > 0:
            raise ValueError(f"vertex already in graph with edges: {v!r}")
        before = self._graph.revision
        self._graph.add_vertex(v)
        kernel = self._kmaint
        if kernel is not None and kernel.revision == before:
            # Keep an in-sync mirror in sync; a stale one is left to the
            # revision check in _maintenance_kernel.
            kernel.note_add_vertex(v, self._graph.revision)
        return [self.insert_edge(v, w) for w in targets]

    def delete_vertex(self, v: Vertex) -> List[UpdateStats]:
        """Delete vertex ``v`` by deleting its incident edges, then ``v``."""
        if v not in self._graph:
            raise KeyError(f"vertex not in graph: {v!r}")
        stats = [
            self.delete_edge(v, w) for w in sorted(self._graph.neighbors(v))
        ]
        before = self._graph.revision
        self._graph.remove_vertex(v)
        kernel = self._kmaint
        if kernel is not None and kernel.revision == before:
            kernel.note_remove_vertex(v, self._graph.revision)
        return stats

    # -- batch updates ---------------------------------------------------------

    def apply_batch(
        self,
        insertions: Iterable[Tuple[Vertex, Vertex]] = (),
        deletions: Iterable[Tuple[Vertex, Vertex]] = (),
    ) -> UpdateStats:
        """Apply many edge updates; aggregate the per-update stats.

        Deletions run first (so swap-style batches never trip the
        duplicate-insert guard), then insertions.  Each update is applied
        through the exact single-edge algorithms, so the index stays
        query-consistent between every pair of updates.

        Self-loops anywhere in the batch raise ``ValueError`` before
        *any* update is applied -- a malformed batch never leaves the
        index in a half-applied state it would otherwise be impossible
        to distinguish from a successful partial run.
        """
        insertions = list(insertions)
        deletions = list(deletions)
        for u, v in insertions + deletions:
            if u == v:
                raise ValueError(
                    f"self-loop not allowed in batch: ({u!r}, {v!r})"
                )
        if insertions:
            # Batched edge updates amortize re-interning: allocate ids
            # for every incoming label once, up front, instead of one
            # dict miss per constituent update.  Extra ids for labels
            # that never materialize are harmless (empty adjacency).
            kernel = self._maintenance_kernel()
            if kernel is not None:
                kernel.prepare(
                    label for pair in insertions for label in pair
                )
        total = UpdateStats()
        # Buffer per-edge commits so batch subscribers fire once, with
        # the whole event list, after the index is consistent for the
        # entire batch.  The finally flushes whatever *did* commit even
        # if a constituent update raises -- batch subscribers must never
        # miss an applied mutation.
        self._pending_events = []
        try:
            for u, v in deletions:
                s = self.delete_edge(u, v)
                total.common_neighbors += s.common_neighbors
                total.ego_edges += s.ego_edges
                total.edges_rescored += s.edges_rescored
            for u, v in insertions:
                s = self.insert_edge(u, v)
                total.common_neighbors += s.common_neighbors
                total.ego_edges += s.ego_edges
                total.edges_rescored += s.edges_rescored
        finally:
            events = self._pending_events
            self._pending_events = None
            if events:
                for callback in self._batch_subscribers:
                    callback(events, self._version)
        return total

    # -- state export / restore (persistence layer) --------------------------

    def export_state(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready image of the durable state: the graph.

        Vertices (isolated ones would be lost from the edge list alone)
        and sorted canonical edges, plus the version and mutation
        counters.  The ``M`` structures are not exported: ``M_uv`` is
        by definition the component partition of ``G_N(uv)``, so the
        graph fixes it and :meth:`from_state` derives it again.  Sorted
        so identical logical state always exports identical bytes -- the
        snapshot golden-file test depends on this.
        """
        return {
            "graph_version": self._version,
            "insertions": self._mutations.insertions,
            "deletions": self._mutations.deletions,
            "vertices": sorted(self._graph.vertices()),
            "edges": [list(edge) for edge in sorted(self._graph.edges())],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "DynamicESDIndex":
        """Restore from :meth:`export_state` output.

        Rebuilds the graph from ``vertices``/``edges``, then derives
        ``M`` and the ESDIndex through the same path as a fresh build
        (:func:`~repro.core.build.build_index_fast_with_components`: the
        bitset flood fill with kernels on, Algorithm 3 otherwise) and
        carries the version and mutation counters over.  A restore
        therefore costs one index build; the CSR snapshot it leaves
        cached also seeds the maintenance kernel.
        """
        graph = Graph()
        for vertex in state["vertices"]:
            graph.add_vertex(vertex)
        for u, v in state["edges"]:
            graph.add_edge(u, v)
        self = cls(graph)
        self._version = state["graph_version"]
        self._mutations = MutationCounters(
            insertions=state["insertions"], deletions=state["deletions"]
        )
        return self

    # -- invariant checking (testing hook) -------------------------------------

    def check_invariants(self) -> None:
        """Assert M and the index both match a from-scratch recomputation."""
        from repro.core.diversity import ego_component_sizes

        assert set(self._components) == set(self._graph.edges())
        for (a, b), m in self._components.items():
            expected = sorted(ego_component_sizes(self._graph, a, b))
            assert (
                sorted(m.component_sizes()) == expected
            ), f"M mismatch for {(a, b)}: {sorted(m.component_sizes())} != {expected}"
            assert set(m.members()) == self._graph.common_neighbors(a, b)
        self._index.check_invariants(self._graph)

    # -- internals -----------------------------------------------------------

    def _ego_edges(self, common: Set[Vertex]) -> Iterable[Tuple[Vertex, Vertex]]:
        """Edges of the ego-network induced by ``common``, each once."""
        for w1 in common:
            for w2 in self._graph.neighbors(w1):
                if w2 in common and w1 < w2:
                    yield (w1, w2)

    def _affected_edges(self, edge: Edge, common: Set[Vertex]) -> Set[Edge]:
        """All edges of the closed ego-network Ĝ_N(uv)."""
        u, v = edge
        affected: Set[Edge] = {edge}
        for w in common:
            affected.add(canonical_edge(u, w))
            affected.add(canonical_edge(v, w))
        for w1, w2 in self._ego_edges(common):
            affected.add(canonical_edge(w1, w2))
        return affected

    def _rescore(
        self, edges: Collection[Edge], stats: UpdateStats, certified: int = 0
    ) -> None:
        """Push the current M component sizes of ``edges`` into the index.

        ``certified`` counts further edges of ``Ĝ_N(uv)`` whose ``M`` is
        proven unchanged: they are counted as rescored (their entry is
        up to date) without touching the index.
        """
        index = self._index
        components = self._components
        for e in edges:
            sizes = components[e].component_sizes()
            if sizes:
                index.set_edge(e, sizes)
            else:
                index.remove_edge(e)
        rescored = len(edges) + certified
        stats.edges_rescored += rescored
        self._mutations.edges_rescored += rescored

    def _remove_member(self, edge: Edge, leaver: Vertex) -> None:
        """Remove ``leaver`` from ``M_edge``, re-partitioning if needed."""
        m = self._components[edge]
        if leaver not in m:
            return
        if m.discard_singleton(leaver):
            return
        # The leaver had neighbors inside the ego-network: rebuild its old
        # component from the surviving edges (Algorithm 5's Update).
        component = set(m.component_of(leaver))
        component.discard(leaver)
        surviving = [
            (x, y)
            for x in component
            for y in self._graph.neighbors(x)
            if y in component and x < y
        ]
        m.rebuild_component(leaver, surviving)
        removed = m.discard_singleton(leaver)
        assert removed, "leaver still connected after rebuild"

    def _rebuild_around(self, edge: Edge, anchor: Vertex) -> None:
        """Re-partition the component of ``anchor`` in ``M_edge``.

        Used after deleting (u, v): in M_{w1 w2} the endpoints u, v were in
        one component (joined by the deleted edge); re-scan the surviving
        adjacency inside that component.  ``anchor`` is u; v is in the same
        old component so one rebuild covers both.
        """
        m = self._components[edge]
        if anchor not in m:
            return
        component = set(m.component_of(anchor))
        surviving = [
            (x, y)
            for x in component
            for y in self._graph.neighbors(x)
            if y in component and x < y
        ]
        m.rebuild_component(anchor, surviving)
