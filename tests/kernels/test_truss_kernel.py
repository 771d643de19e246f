"""Property-based differential test: metric kernels ≡ set references.

Same shape as ``tests/kernels/test_differential.py``: every trial
derives from one integer seed, failures report a reproduction, and a
delta-debugging shrinker minimizes the edge list before the test fails.
Two properties, one per kernel added for the metric family:

* ``truss_numbers`` through the CSR bucket peel must equal the set
  peel's table exactly (truss numbers are peel-order independent, so
  dict *value* equality is the whole contract);
* ``all_edge_ego_betweenness`` through the bitset kernel must be
  **bit-identical** to the set route -- both sides fold their terms
  with ``math.fsum``, whose correctly-rounded result is independent of
  summation order.

Vertices are string labels (``"v007"``) so every trial also round-trips
the interning boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analytics.betweenness import all_edge_ego_betweenness
from repro.analytics.truss import truss_numbers
from repro.graph.graph import Graph
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.dispatch import use_kernels

from tests.shrink import shrink

LabelEdge = Tuple[str, str]

NUM_TRIALS = 25


@dataclass
class Case:
    """One reproducible trial: a string-labeled edge list."""

    seed: int
    edges: List[LabelEdge]

    def describe(self) -> str:
        return f"seed={self.seed} edges={self.edges!r}"


def generate_case(seed: int, *, max_n: int = 22) -> Case:
    """Derive a random string-labeled graph deterministically from ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(4, max_n)
    p = rng.uniform(0.08, 0.5)
    edges: List[LabelEdge] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((f"v{i:03d}", f"v{j:03d}"))
    return Case(seed=seed, edges=edges)


def _observe(graph: Graph) -> Dict[str, object]:
    return {
        "truss": truss_numbers(graph),
        "ego_betweenness": all_edge_ego_betweenness(graph),
    }


def check_case(case: Case) -> Optional[str]:
    """Run one trial; return ``None`` on success or a failure description."""
    graph = Graph(case.edges)
    with use_kernels("csr"):
        csr_obs = _observe(graph)
    with use_kernels("set"):
        set_obs = _observe(graph)
    for key, csr_value in csr_obs.items():
        set_value = set_obs[key]
        if csr_value != set_value:
            return f"{key} diverged: csr={csr_value!r} set={set_value!r}"
    return None


def shrink_case(case: Case, *, max_attempts: int = 200) -> Case:
    """Delta-debug the edge list down to a minimal still-failing case."""

    def still_fails(edges: List[LabelEdge]) -> bool:
        return check_case(Case(seed=case.seed, edges=edges)) is not None

    edges = shrink(case.edges, still_fails, max_attempts=max_attempts)
    return Case(seed=case.seed, edges=edges)


def test_truss_and_ego_betweenness_kernels_match_set_paths():
    for seed in range(NUM_TRIALS):
        case = generate_case(seed)
        failure = check_case(case)
        if failure is None:
            continue
        shrunk = shrink_case(case)
        final = check_case(shrunk) or failure
        raise AssertionError(
            f"metric kernel differential failure: {final}\n"
            f"  original: {case.describe()}\n"
            f"  shrunk:   {shrunk.describe()}"
        )


def test_degenerate_graphs_agree():
    cases = (
        [],
        [("a", "b")],
        [("a", "b"), ("c", "d")],
        [("a", "b"), ("b", "c"), ("a", "c")],  # one triangle
    )
    for edges in cases:
        failure = check_case(Case(seed=-1, edges=list(edges)))
        assert failure is None, failure


def test_truss_routes_through_kernel_when_enabled():
    graph = Graph([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    with use_kernels("csr"):
        KERNEL_COUNTERS.reset()
        truss_numbers(graph)
        assert KERNEL_COUNTERS.truss_kernels == 1
    with use_kernels("set"):
        KERNEL_COUNTERS.reset()
        truss_numbers(graph)
        assert KERNEL_COUNTERS.truss_kernels == 0


def test_truss_keys_are_original_labels():
    case = generate_case(3)
    graph = Graph(case.edges)
    with use_kernels("csr"):
        table = truss_numbers(graph)
    for (u, v), value in table.items():
        assert isinstance(u, str) and isinstance(v, str)
        assert u < v
        assert isinstance(value, int) and value >= 2
