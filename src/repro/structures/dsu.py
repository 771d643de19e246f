"""Disjoint-set (union-find) structures.

Two flavours live here:

* :class:`DisjointSet` -- a classic union-find over an arbitrary universe
  of hashable elements, with path halving and union by size.  Its amortized
  cost per operation is ``O(gamma(n))`` where ``gamma`` is the inverse
  Ackermann function, matching the bound used throughout the paper's
  complexity analysis.

* :class:`EdgeComponentSets` -- the paper's per-edge disjoint-set map
  ``M_uv`` (Algorithm 3, lines 1-4).  For an edge ``(u, v)`` it partitions
  the common neighborhood ``N(uv)`` into the connected components of the
  edge ego-network ``G_N(uv)``, and tracks the size (``count``) of each
  component so component-size multisets can be read off without a BFS.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Hashable, Iterable, Iterator, List


class DisjointSet:
    """Union-find over hashable elements with path halving + union by size.

    Elements are added lazily by :meth:`add` or on first use by
    :meth:`union`.  :meth:`find` raises ``KeyError`` for unknown elements so
    that silent mistakes in callers surface early.
    """

    __slots__ = ("_parent", "_size", "_count")

    def __init__(self, elements: Iterable[Hashable] = ()) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._size: Dict[Hashable, int] = {}
        self._count = 0
        for x in elements:
            self.add(x)

    def add(self, x: Hashable) -> None:
        """Add ``x`` as a singleton set (no-op if already present)."""
        if x not in self._parent:
            self._parent[x] = x
            self._size[x] = 1
            self._count += 1

    def __contains__(self, x: Hashable) -> bool:
        return x in self._parent

    def __len__(self) -> int:
        """Number of elements (not sets) currently tracked."""
        return len(self._parent)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._parent)

    @property
    def set_count(self) -> int:
        """Number of disjoint sets."""
        return self._count

    def find(self, x: Hashable) -> Hashable:
        """Return the canonical representative of ``x``'s set."""
        parent = self._parent
        root = x
        while parent[root] != root:
            # Path halving: point every other node at its grandparent.
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    def union(self, x: Hashable, y: Hashable) -> bool:
        """Merge the sets of ``x`` and ``y``; return True if they differed.

        Unknown elements are added as singletons first.
        """
        self.add(x)
        self.add(y)
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._size[rx] < self._size[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        self._size[rx] += self._size[ry]
        del self._size[ry]
        self._count -= 1
        return True

    def connected(self, x: Hashable, y: Hashable) -> bool:
        """True if ``x`` and ``y`` are in the same set."""
        return self.find(x) == self.find(y)

    def size_of(self, x: Hashable) -> int:
        """Size of the set containing ``x``."""
        return self._size[self.find(x)]

    def roots(self) -> List[Hashable]:
        """Canonical representatives of all sets."""
        return [x for x in self._parent if self.find(x) == x]

    def component_sizes(self) -> List[int]:
        """Sizes of all sets (unordered multiset as a list)."""
        return list(self._size.values())

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """Mapping root -> members, materializing the full partition."""
        out: Dict[Hashable, List[Hashable]] = {}
        for x in self._parent:
            out.setdefault(self.find(x), []).append(x)
        return out


class EdgeComponentSets:
    """The per-edge disjoint-set structure ``M_uv`` from the paper.

    For one edge ``(u, v)``, this partitions the common neighbors
    ``w in N(uv)`` into the connected components of the ego-network
    ``G_N(uv)``.  It mirrors the paper's fields: each member ``w`` has a
    ``root`` pointer and roots carry a ``count`` (Algorithm 3 lines 2-4,
    25-35).  On top of the plain union-find it supports the maintenance
    primitives of Algorithms 4 and 5: adding a member, removing a
    *singleton* member, and being rebuilt from an explicit member/edge set.
    """

    __slots__ = ("_dsu",)

    def __init__(self, members: Iterable[Hashable] = ()) -> None:
        self._dsu = DisjointSet(members)

    # -- membership -------------------------------------------------------

    def add(self, w: Hashable) -> None:
        """Insert ``w`` as an isolated (size-1) component."""
        self._dsu.add(w)

    def discard_singleton(self, w: Hashable) -> bool:
        """Remove ``w`` iff it is an isolated component; return success.

        Algorithm 5 (lines 6-9) only ever deletes members whose component is
        a singleton; removing a non-singleton member would require splitting
        a set, which union-find cannot do -- callers rebuild instead.
        """
        if w not in self._dsu:
            return False
        if self._dsu.size_of(w) != 1:
            return False
        # Safe to physically delete: w is its own root with count 1.
        del self._dsu._parent[w]
        del self._dsu._size[w]
        self._dsu._count -= 1
        return True

    def __contains__(self, w: Hashable) -> bool:
        return w in self._dsu

    def __len__(self) -> int:
        return len(self._dsu)

    def members(self) -> List[Hashable]:
        """All tracked common neighbors."""
        return list(self._dsu)

    # -- component structure ----------------------------------------------

    def union(self, w1: Hashable, w2: Hashable) -> bool:
        """Merge the components of two common neighbors."""
        return self._dsu.union(w1, w2)

    def find(self, w: Hashable) -> Hashable:
        """Canonical representative of ``w``'s component."""
        return self._dsu.find(w)

    def connected(self, w1: Hashable, w2: Hashable) -> bool:
        """True if the two common neighbors share a component."""
        return self._dsu.connected(w1, w2)

    def component_count(self) -> int:
        """Number of connected components in the ego-network."""
        return self._dsu.set_count

    def component_sizes(self) -> List[int]:
        """Multiset of component sizes of ``G_N(uv)``."""
        return self._dsu.component_sizes()

    def size_histogram(self) -> Counter:
        """Counter mapping component size -> number of components."""
        return Counter(self._dsu.component_sizes())

    def component_of(self, w: Hashable) -> List[Hashable]:
        """Members of the component containing ``w``."""
        root = self._dsu.find(w)
        return [x for x in self._dsu if self._dsu.find(x) == root]

    def groups(self) -> Dict[Hashable, List[Hashable]]:
        """Mapping root -> component members."""
        return self._dsu.groups()

    def score(self, tau: int) -> int:
        """Number of components with size >= tau (Definition 2)."""
        if tau < 1:
            raise ValueError(f"tau must be >= 1, got {tau}")
        return sum(1 for s in self._dsu.component_sizes() if s >= tau)

    def replace_members(
        self, members: Iterable[Hashable], edges: Iterable[tuple]
    ) -> None:
        """Rebuild from scratch: ``members`` partitioned by ``edges``.

        This is the ``T_{w1w2}`` rebuild of Algorithm 5's Update procedure,
        generalized to the whole structure.
        """
        self._dsu = DisjointSet(members)
        for a, b in edges:
            self._dsu.union(a, b)

    def rebuild_component(
        self, anchor: Hashable, edges: Iterable[tuple]
    ) -> None:
        """Re-partition the component containing ``anchor`` using ``edges``.

        Implements the core of Algorithm 5's ``Update`` procedure: the old
        component ``S`` containing ``anchor`` is dissolved, its members are
        re-inserted as singletons, and the surviving ``edges`` (pairs of
        members of ``S``) are union-ed back in.  Members outside ``S`` are
        untouched.  Edges with an endpoint outside ``S`` are ignored, which
        is safe because a deleted graph edge can only split, never extend,
        the component.
        """
        if anchor not in self._dsu:
            return
        component = set(self.component_of(anchor))
        parent, size = self._dsu._parent, self._dsu._size
        for w in component:
            parent[w] = w
            size[w] = 1
        self._dsu._count += len(component) - 1
        for a, b in edges:
            if a in component and b in component:
                self._dsu.union(a, b)

    def replace_partition(self, groups: Iterable[List[Hashable]]) -> None:
        """Install an explicit partition, replacing all current state.

        Unlike :meth:`replace_members` the components are given directly
        (no edge scan): the kernel maintenance path derives the partition
        from a bitset flood fill and installs it here.  Mutates the
        structure in place so holders of this object (via
        ``DynamicESDIndex.components_of``) keep seeing live state.
        """
        parent: Dict[Hashable, Hashable] = {}
        size: Dict[Hashable, int] = {}
        count = 0
        for group in groups:
            root = group[0]
            for w in group:
                parent[w] = root
            size[root] = len(group)
            count += 1
        dsu = self._dsu
        dsu._parent = parent
        dsu._size = size
        dsu._count = count

    @classmethod
    def adopt(
        cls, parent: Dict[Hashable, Hashable], size: Dict[Hashable, int]
    ) -> "EdgeComponentSets":
        """Wrap raw union-find dicts (taken over, not copied).

        ``parent`` maps every member to a member of its component on the
        way to the root; ``size`` maps each root to its component size.
        """
        dsu = DisjointSet.__new__(DisjointSet)
        dsu._parent = parent
        dsu._size = size
        dsu._count = len(size)
        m = cls.__new__(cls)
        m._dsu = dsu
        return m

    def copy(self) -> "EdgeComponentSets":
        """Independent deep copy of the structure."""
        return EdgeComponentSets.adopt(
            dict(self._dsu._parent), dict(self._dsu._size)
        )
