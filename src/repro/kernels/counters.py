"""Kernel instrumentation counters.

One process-wide :class:`KernelCounters` instance records how often each
intersection strategy fired, how much galloping work was done, and how
many times the bitset fallback was engaged.  The counters feed the
``kernels`` stanza of :class:`repro.obs.registry.UnifiedRegistry`
snapshots (``esd serve`` metrics op, ``esd profile``).

Increments happen on hot paths, so kernels batch them (one ``+=`` per
kernel call, not per element).  Plain attribute increments are not
atomic across threads; the counters are operational telemetry, not
accounting, and a lost increment under contention is acceptable --
the same trade the service metrics layer makes.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["KernelCounters", "KERNEL_COUNTERS"]


class KernelCounters:
    """Cumulative counters for the CSR kernel layer."""

    __slots__ = (
        "csr_builds",
        "csr_patches",
        "maintenance_kernels",
        "merge_intersections",
        "gallop_intersections",
        "bitset_intersections",
        "gallop_steps",
        "bitset_fallbacks",
        "triangle_kernels",
        "four_clique_kernels",
        "component_kernels",
        "truss_kernels",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter (tests and ``esd profile`` baselines)."""
        self.csr_builds = 0
        self.csr_patches = 0
        self.maintenance_kernels = 0
        self.merge_intersections = 0
        self.gallop_intersections = 0
        self.bitset_intersections = 0
        self.gallop_steps = 0
        self.bitset_fallbacks = 0
        self.triangle_kernels = 0
        self.four_clique_kernels = 0
        self.component_kernels = 0
        self.truss_kernels = 0

    def snapshot(self) -> Dict[str, int]:
        """JSON-ready view of all counters."""
        return {name: getattr(self, name) for name in self.__slots__}

    def delta_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counter increments since a previous :meth:`snapshot`."""
        return {
            name: value - baseline.get(name, 0)
            for name, value in self.snapshot().items()
        }

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={getattr(self, name)}" for name in self.__slots__
        )
        return f"KernelCounters({inner})"


#: The process-wide instance every kernel increments.
KERNEL_COUNTERS = KernelCounters()
