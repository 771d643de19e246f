"""Delta layer: a mutable id-space adjacency mirror for Algorithms 4/5.

:class:`~repro.kernels.csr.CSRGraph` is deliberately immutable -- its
degree-rank id order (the paper's ``≺``) shifts under *any* edge
mutation, so it can only be rebuilt or patched wholesale.  The dynamic
maintenance path (paper §V) does not need ``≺`` at all: Algorithms 4
and 5 only intersect neighborhoods and re-partition common-neighbor
sets.  :class:`MaintenanceKernel` therefore keeps a second, mutable
id-space view with **stable arrival-order ids**: interning survives
mutations, single edge updates are two big-int bit flips, and the hot
loops -- common neighborhood, ego-edge enumeration, affected-edge
collection, component re-partition -- run word-parallel on adjacency
bitsets instead of walking python sets.

The split of labor matters: the paper's union-find surgery is already
near-optimal per update, so the kernel accelerates the *enumeration*
around it -- common neighborhood as one AND, ego edges as one bit scan
(the set path walks neighbor sets twice, once for the unions and once
for the affected-edge set), and the new edge's initial partition as a
single flood fill over ``G_N(uv)`` (licensed by the invariant that
``M_e`` *is* the component partition of the ego-network).  Wholesale
flood-recomputing every affected edge's partition was measured and
rejected: surgical union-find beats it as soon as ego-networks get
dense.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Tuple

from repro.graph.graph import Graph
from repro.kernels.components import flood_fill_groups
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.csr import CSRGraph

__all__ = ["MaintenanceKernel"]


class MaintenanceKernel:
    """Mutable bitset adjacency mirror keyed by ``Graph.revision``.

    Ids are dense ints in *arrival order* (not degree rank); removed
    vertices leave dead slots behind and :meth:`bloated` tells the owner
    when a rebuild is worth it.  ``revision`` tracks the graph revision
    the mirror last reflected; owners must keep it synchronized through
    the ``note_*`` methods and rebuild on mismatch.
    """

    __slots__ = ("labels", "ids", "adj", "revision", "_dead")

    def __init__(
        self,
        labels: List[Hashable],
        ids: Dict[Hashable, int],
        adj: List[int],
        revision: int,
    ) -> None:
        self.labels = labels
        self.ids = ids
        self.adj = adj
        self.revision = revision
        self._dead = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_graph(cls, graph: Graph) -> "MaintenanceKernel":
        """Build the mirror straight from a :class:`Graph`."""
        labels = list(graph.vertices())
        ids = {label: i for i, label in enumerate(labels)}
        n = len(labels)
        adj = [0] * n
        nbytes = (n + 7) >> 3
        from_bytes = int.from_bytes
        for u, label in enumerate(labels):
            buf = bytearray(nbytes)
            for w in map(ids.__getitem__, graph.neighbors(label)):
                buf[w >> 3] |= 1 << (w & 7)
            adj[u] = from_bytes(buf, "little")
        KERNEL_COUNTERS.maintenance_kernels += 1
        return cls(labels, ids, adj, graph.revision)

    @classmethod
    def from_csr(cls, csr: CSRGraph, revision: int) -> "MaintenanceKernel":
        """Adopt an existing CSR snapshot's interning and bitsets.

        The snapshot must reflect the graph at ``revision``.  Reuses the
        snapshot's (possibly already-built) bitset layer, so seeding the
        mirror right after an index build is nearly free.
        """
        kernel = cls(
            list(csr.interner.labels),
            dict(csr.interner.ids),
            list(csr.adj_bits),
            revision,
        )
        KERNEL_COUNTERS.maintenance_kernels += 1
        return kernel

    # -- id plumbing --------------------------------------------------------

    def intern(self, label: Hashable) -> int:
        """Dense id of ``label``, allocating a fresh slot if unknown."""
        i = self.ids.get(label)
        if i is None:
            i = len(self.labels)
            self.labels.append(label)
            self.adj.append(0)
            self.ids[label] = i
        return i

    def prepare(self, labels) -> None:
        """Bulk-intern ``labels`` (amortizes re-interning over a batch)."""
        for label in labels:
            self.intern(label)

    def label_edge(self, a: int, b: int) -> Tuple:
        """Canonical ``(small, large)`` *label* edge for ids ``a, b``."""
        la, lb = self.labels[a], self.labels[b]
        return (la, lb) if la < lb else (lb, la)

    def bloated(self) -> bool:
        """True when dead slots from removed vertices dominate the mirror."""
        return self._dead > 32 and 2 * self._dead > len(self.labels)

    # -- mutation notes (keep ``revision`` synchronized) --------------------

    def note_insert(self, u: Hashable, v: Hashable, revision: int) -> Tuple[int, int]:
        """Mirror ``add_edge(u, v)``; returns the endpoint ids."""
        iu, iv = self.intern(u), self.intern(v)
        adj = self.adj
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        self.revision = revision
        return iu, iv

    def note_delete(self, u: Hashable, v: Hashable, revision: int) -> Tuple[int, int]:
        """Mirror ``remove_edge(u, v)``; returns the endpoint ids.

        Unknown labels raise ``KeyError`` loudly -- a fresh mirror always
        knows every graph vertex, so a miss means the owner let the
        mirror go stale.
        """
        iu, iv = self.ids[u], self.ids[v]
        adj = self.adj
        adj[iu] &= ~(1 << iv)
        adj[iv] &= ~(1 << iu)
        self.revision = revision
        return iu, iv

    def note_add_vertex(self, label: Hashable, revision: int) -> None:
        """Mirror ``add_vertex(label)``."""
        self.intern(label)
        self.revision = revision

    def note_remove_vertex(self, label: Hashable, revision: int) -> None:
        """Mirror ``remove_vertex(label)``; the slot becomes dead."""
        iu = self.ids.pop(label, None)
        if iu is not None:
            adj = self.adj
            mask = adj[iu]
            while mask:
                low = mask & -mask
                adj[low.bit_length() - 1] &= ~(1 << iu)
                mask ^= low
            adj[iu] = 0
            self._dead += 1
        self.revision = revision

    # -- query kernels ------------------------------------------------------

    @staticmethod
    def iter_bits(mask: int) -> Iterator[int]:
        """Set-bit positions of ``mask``, ascending."""
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def common_mask(self, iu: int, iv: int) -> int:
        """``N(u) ∩ N(v)`` as a bitmask.

        For an existing or just-removed edge ``(u, v)`` the result is
        the same whether the ``u <-> v`` bits themselves are currently
        set: neither endpoint can be its own common neighbor.
        """
        return self.adj[iu] & self.adj[iv]

    def common_ids(self, mask: int) -> List[int]:
        """Set-bit positions of a common-neighborhood mask, ascending."""
        out: List[int] = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def ego_pairs(self, common: int) -> List[Tuple[int, int]]:
        """Id pairs of the ego-network edges inside ``common``, each once.

        The bit-scan replacement for the set path's nested
        neighbor-set walk: for each member ``w`` the partners are read
        off ``adj[w] & common`` masked to ids strictly above ``w``, so
        every unordered pair surfaces exactly once without hashing.
        """
        adj = self.adj
        out: List[Tuple[int, int]] = []
        bits = common
        while bits:
            low = bits & -bits
            w = low.bit_length() - 1
            bits ^= low
            higher = (adj[w] & common) >> (w + 1)
            base = w + 1
            while higher:
                l2 = higher & -higher
                out.append((w, l2.bit_length() - 1 + base))
                higher ^= l2
        return out

    def flood_groups(self, members: int) -> List[int]:
        """Connected components of ``members`` under the live adjacency.

        Word-parallel flood fill: each expansion ORs whole adjacency
        rows, masked back to ``members``.  Returns one bitmask per
        component (the *groups*, not just their sizes -- the maintenance
        path installs them into ``M`` via ``replace_partition``).
        """
        return flood_fill_groups(self.adj, members)

    def labels_of_mask(self, mask: int) -> List[Hashable]:
        """Resolve a bitmask back to vertex labels (id order)."""
        labels = self.labels
        out = []
        while mask:
            low = mask & -mask
            out.append(labels[low.bit_length() - 1])
            mask ^= low
        return out

    def __repr__(self) -> str:
        return (
            f"MaintenanceKernel(n={len(self.ids)}, dead={self._dead}, "
            f"revision={self.revision})"
        )
