"""repro.kernels -- interned CSR compute kernels for the hot paths.

The dict-of-set :class:`~repro.graph.graph.Graph` stays the mutable
source of truth; this package provides the frozen, integer-id fast path
the compute-heavy algorithms actually run on:

* :mod:`~repro.kernels.intern` -- :class:`VertexInterner`, the
  label ↔ dense-id bijection;
* :mod:`~repro.kernels.csr` -- :class:`CSRGraph`, flat ``array('l')``
  offset/neighbor buffers with slices sorted by degree rank, plus a
  lazy bitset layer for high-degree work;
* :mod:`~repro.kernels.intersect` -- merge / gallop / bitset
  intersection kernels with per-strategy counters;
* :mod:`~repro.kernels.triangles` -- CSR-native triangle and 4-clique
  enumeration;
* :mod:`~repro.kernels.components` -- common-neighborhood component
  labeling by bitset flood fill: per-edge sizes, or whole ``M``
  partitions;
* :mod:`~repro.kernels.dispatch` -- the ``ESD_KERNELS`` switch the
  wired-up call sites consult (``csr`` by default, ``set`` restores
  the original paths bit-identically);
* :mod:`~repro.kernels.counters` -- :data:`KERNEL_COUNTERS`, surfaced
  through :class:`repro.obs.registry.UnifiedRegistry` and
  ``esd profile``.

See docs/PERFORMANCE.md for the full tour and the benchmark workflow.
"""

from repro.kernels.betweenness import csr_ego_betweenness
from repro.kernels.components import (
    csr_all_ego_component_sizes,
    csr_all_ego_partitions,
    csr_ego_component_sizes_ids,
)
from repro.kernels.counters import KERNEL_COUNTERS, KernelCounters
from repro.kernels.csr import BITSET_DEGREE_FALLBACK, CSRGraph
from repro.kernels.dispatch import (
    KERNEL_MODES,
    kernel_mode,
    kernels_enabled,
    set_kernel_mode,
    use_kernels,
)
from repro.kernels.intern import VertexInterner
from repro.kernels.intersect import (
    GALLOP_RATIO,
    decode_bits,
    gallop_sorted,
    intersect_count,
    intersect_ids,
    merge_sorted,
)
from repro.kernels.truss import csr_truss_numbers
from repro.kernels.triangles import (
    csr_count_triangles,
    csr_iter_four_cliques,
    csr_iter_triangles,
    csr_triangle_count_per_edge,
)

__all__ = [
    "BITSET_DEGREE_FALLBACK",
    "CSRGraph",
    "GALLOP_RATIO",
    "KERNEL_COUNTERS",
    "KERNEL_MODES",
    "KernelCounters",
    "VertexInterner",
    "csr_all_ego_component_sizes",
    "csr_all_ego_partitions",
    "csr_count_triangles",
    "csr_ego_betweenness",
    "csr_ego_component_sizes_ids",
    "csr_iter_four_cliques",
    "csr_iter_triangles",
    "csr_triangle_count_per_edge",
    "csr_truss_numbers",
    "decode_bits",
    "gallop_sorted",
    "intersect_count",
    "intersect_ids",
    "kernel_mode",
    "kernels_enabled",
    "merge_sorted",
    "set_kernel_mode",
    "use_kernels",
]
