"""Core data structures: union-find and lazy heaps."""

from repro.structures.dsu import DisjointSet, EdgeComponentSets
from repro.structures.heap import LazyMaxHeap

__all__ = ["DisjointSet", "EdgeComponentSets", "LazyMaxHeap"]
