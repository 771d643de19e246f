"""Incremental truss maintenance ≡ from-scratch recompute, on replayed traces.

The scorer's contract is exact: after *any* interleaving of edge/vertex
mutations, the memoized table a query is served from must equal the
truss decomposition of the current graph computed from scratch by the
set-based reference.  Every trial derives from one integer seed, and a
failing trace is delta-debugged down to a minimal still-failing op list
before the test fails.

A deterministic clustered-graph test additionally pins that the
maintenance really runs the *re-peel* path (``truss_repeels`` moves,
not just ``truss_rebuilds``) -- without it, a bug that silently forced
full rebuilds on every mutation would still pass the equality property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analytics.truss import truss_numbers
from repro.graph.generators import planted_partition
from repro.graph.graph import Graph, canonical_edge
from repro.kernels.counters import KERNEL_COUNTERS
from repro.kernels.dispatch import use_kernels
from repro.metrics import TrussScorer

from tests.shrink import shrink

Op = Tuple  # ("+e", u, v) | ("-e", u, v) | ("-v", u)

NUM_TRIALS = 20


@dataclass
class Case:
    """One reproducible trial: an initial graph plus a mutation trace."""

    seed: int
    edges: List[Tuple[str, str]]
    ops: List[Op]

    def describe(self) -> str:
        return (
            f"seed={self.seed} edges={self.edges!r} ops={self.ops!r}"
        )


def generate_case(seed: int) -> Case:
    rng = random.Random(seed)
    n = rng.randint(8, 26)
    p = rng.uniform(0.15, 0.5)
    labels = [f"v{i:03d}" for i in range(n)]
    edges: List[Tuple[str, str]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((labels[i], labels[j]))
    ops: List[Op] = []
    for _ in range(rng.randint(5, 30)):
        roll = rng.random()
        u, v = rng.sample(labels, 2)
        if roll < 0.45:
            ops.append(("+e", u, v))
        elif roll < 0.9:
            ops.append(("-e", u, v))
        else:
            ops.append(("-v", u))
    return Case(seed=seed, edges=edges, ops=ops)


def _apply(graph: Graph, op: Op) -> None:
    """Replay one op; guards make traces valid under any shrinking."""
    tag = op[0]
    if tag == "+e":
        if op[1] != op[2]:
            graph.add_edge(op[1], op[2])
    elif tag == "-e":
        if graph.has_edge(op[1], op[2]):
            graph.remove_edge(op[1], op[2])
    elif tag == "-v":
        if op[1] in graph:
            graph.remove_vertex(op[1])


def _served_table(scorer: TrussScorer, graph: Graph) -> dict:
    """The table queries are answered from, via the public surface."""
    return {
        canonical_edge(u, v): scorer.score(graph, (u, v))
        for u, v in graph.edges()
    }


def check_case(case: Case) -> Optional[str]:
    graph = Graph(case.edges)
    with use_kernels("csr"):
        scorer = TrussScorer()
        scorer.topk(graph, 3)  # prime: every later query patches this
        for step, op in enumerate(case.ops):
            _apply(graph, op)
            served = _served_table(scorer, graph)
            with use_kernels("set"):
                expected = truss_numbers(graph)
            if served != expected:
                return (
                    f"step {step} ({op!r}): served={served!r} "
                    f"expected={expected!r}"
                )
    return None


def shrink_case(case: Case, *, max_attempts: int = 200) -> Case:
    """Delta-debug the op trace down to a minimal still-failing case."""

    def still_fails(ops: List[Op]) -> bool:
        return (
            check_case(Case(seed=case.seed, edges=case.edges, ops=ops))
            is not None
        )

    ops = shrink(case.ops, still_fails, max_attempts=max_attempts)
    return Case(seed=case.seed, edges=case.edges, ops=ops)


def test_incremental_truss_equals_scratch_on_replayed_traces():
    KERNEL_COUNTERS.reset()
    for seed in range(NUM_TRIALS):
        case = generate_case(seed)
        failure = check_case(case)
        if failure is None:
            continue
        shrunk = shrink_case(case)
        final = check_case(shrunk) or failure
        raise AssertionError(
            f"incremental truss diverged: {final}\n"
            f"  original: {case.describe()}\n"
            f"  shrunk:   {shrunk.describe()}"
        )
    # The property must have exercised *both* maintenance paths across
    # the trial set: patches on local mutations, rebuilds past the
    # thresholds.  All-rebuild (or all-patch) means the policy is dead.
    assert KERNEL_COUNTERS.truss_repeels > 0
    assert KERNEL_COUNTERS.truss_rebuilds > 0


def test_community_local_mutation_takes_the_repeel_path():
    # Dense communities, no cross edges: a mutation's triangle-connected
    # region is its own community, far under the region limit, so the
    # scorer must patch -- and the patched table must still be exact.
    graph = planted_partition(6, 12, 0.6, 0.0, seed=5)
    probe = next(iter(sorted(graph.edges())))
    with use_kernels("csr"):
        scorer = TrussScorer()
        scorer.topk(graph, 5)
        KERNEL_COUNTERS.reset()
        graph.remove_edge(*probe)
        scorer.topk(graph, 5)
        graph.add_edge(*probe)
        scorer.topk(graph, 5)
        assert KERNEL_COUNTERS.truss_repeels == 2
        assert KERNEL_COUNTERS.truss_rebuilds == 0
        served = _served_table(scorer, graph)
    with use_kernels("set"):
        assert served == truss_numbers(graph)


def test_out_of_window_changelog_falls_back_to_rebuild():
    graph = Graph([("a", "b"), ("b", "c"), ("a", "c")])
    with use_kernels("csr"):
        scorer = TrussScorer()
        scorer.topk(graph, 3)
        # Blow far past the changelog window between queries.
        for i in range(600):
            graph.add_edge("x", f"y{i}")
        for i in range(600):
            graph.remove_edge("x", f"y{i}")
        KERNEL_COUNTERS.reset()
        scorer.topk(graph, 3)
        assert KERNEL_COUNTERS.truss_rebuilds == 1
        assert KERNEL_COUNTERS.truss_repeels == 0
        served = _served_table(scorer, graph)
    with use_kernels("set"):
        assert served == truss_numbers(graph)
