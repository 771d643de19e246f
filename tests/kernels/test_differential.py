"""Property-based differential test: CSR kernels ≡ set-based reference.

Same shape as the persistence harness (``tests/persistence/harness.py``):
every trial derives from one integer seed, failures report a
reproduction, and a delta-debugging shrinker minimizes the edge list
before the test fails.  The property here is the kernel layer's whole
contract -- for any graph, every query answered through the CSR route
must be **bit-identical** to the set-based route:

* triangle and 4-clique enumeration (as canonical vertex sets),
* per-edge ego-network component-size multisets,
* structural diversity scores for several ``τ``,
* the four index builders (class-by-class),
* ``topk_online`` results *and* search statistics for several ``(k, τ)``.

Vertices are string labels (``"v007"``) so every trial also round-trips
the interning boundary; labels sort like their indices, so the paper's
total order is unaffected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cliques.kclique import iter_four_cliques
from repro.cliques.triangles import count_triangles, iter_triangles
from repro.core.build import (
    build_index_basic,
    build_index_bitset,
    build_index_fast,
    build_index_fast_with_components,
)
from repro.core.diversity import (
    all_edge_structural_diversities,
    all_ego_component_sizes,
)
from repro.core.online import topk_online
from repro.graph.graph import Graph
from repro.kernels.dispatch import use_kernels

from tests.shrink import shrink

LabelEdge = Tuple[str, str]

#: ``(k, τ)`` pairs every trial queries in both modes.
QUERY_PAIRS = ((1, 1), (5, 1), (10, 2), (3, 3))

TAUS = (1, 2, 3)

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
    """Every kernel-routed answer for ``graph``, under the active mode.

    Dicts keep their insertion order so the comparison below also pins
    iteration-order equivalence, not just value equivalence.
    """
    obs: Dict[str, object] = {
        "triangles": sorted(
            tuple(sorted(t)) for t in iter_triangles(graph)
        ),
        "triangle_count": count_triangles(graph),
        "four_cliques": sorted(
            tuple(sorted(c)) for c in iter_four_cliques(graph)
        ),
        "ego_sizes": {
            edge: sorted(sizes)
            for edge, sizes in all_ego_component_sizes(graph).items()
        },
    }
    for tau in TAUS:
        obs[f"diversity_tau{tau}"] = all_edge_structural_diversities(
            graph, tau
        )
    for name, builder in (
        ("basic", build_index_basic),
        ("fast", build_index_fast),
        ("bitset", build_index_bitset),
    ):
        index = builder(graph)
        obs[f"index_{name}"] = {
            c: index.class_list(c) for c in index.size_classes
        }
    _index, components = build_index_fast_with_components(graph)
    # Maintenance depends on exact membership, not just sizes: the csr
    # route derives M by flood fill, the set route by 4-clique unions.
    obs["m_structures"] = {
        edge: sorted(sorted(g) for g in m.groups().values())
        for edge, m in components.items()
    }
    for k, tau in QUERY_PAIRS:
        results, stats = topk_online(graph, k, tau, with_stats=True)
        obs[f"topk_{k}_{tau}"] = results
        obs[f"stats_{k}_{tau}"] = (
            stats.evaluated,
            stats.pops,
            stats.bound_evaluations,
            stats.results,
        )
    return obs


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
        if isinstance(csr_value, dict) and list(csr_value) != list(set_value):
            return (
                f"{key} key order diverged: "
                f"csr={list(csr_value)!r} set={list(set_value)!r}"
            )
    return None


def shrink_case(case: Case, *, max_attempts: int = 200) -> Case:
    """Delta-debug the edge list down to a minimal still-failing case."""

    def still_fails(edges: List[LabelEdge]) -> bool:
        return check_case(Case(seed=case.seed, edges=edges)) is not None

    edges = shrink(case.edges, still_fails, max_attempts=max_attempts)
    return Case(seed=case.seed, edges=edges)


def test_csr_equivalent_to_set_paths():
    for seed in range(NUM_TRIALS):
        case = generate_case(seed)
        failure = check_case(case)
        if failure is None:
            continue
        shrunk = shrink_case(case)
        final = check_case(shrunk) or failure
        raise AssertionError(
            f"kernel differential failure: {final}\n"
            f"  original: {case.describe()}\n"
            f"  shrunk:   {shrunk.describe()}"
        )


def test_interning_round_trip_preserves_label_types():
    # Scores must be keyed by the original string labels, never by ids.
    case = generate_case(3)
    graph = Graph(case.edges)
    with use_kernels("csr"):
        scores = all_edge_structural_diversities(graph, 1)
        results = topk_online(graph, 3, 1)
    for (u, v) in scores:
        assert isinstance(u, str) and isinstance(v, str)
        assert u < v
    for (u, v), _score in results:
        assert isinstance(u, str) and isinstance(v, str)


def test_degenerate_graphs_agree():
    for edges in ([], [("a", "b")], [("a", "b"), ("c", "d")]):
        failure = check_case(Case(seed=-1, edges=list(edges)))
        assert failure is None, failure
