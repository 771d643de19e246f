"""Property-based differential test harness (stdlib only, no hypothesis).

The property under test is the one the whole system rests on: however a
graph state was *reached* -- incremental maintenance, WAL replay after a
crash, or a cold rebuild -- queries over it must agree.  Concretely, for
a random base graph and a random insert/delete stream applied through a
persistent :class:`QueryEngine`:

    crash-recovered index  ≡  fresh ``build_index_fast`` rebuild
                           ≡  ``topk_online`` on the final graph

for several ``(k, τ)`` pairs (plus the paper-level invariant checker).

Everything is derived from one integer seed, so a failure message names
the exact reproduction.  On failure the harness runs a *shrinking loop*
(delta debugging over the operation stream at halving granularity,
then per-op removal) and reports the smallest stream that still fails.
Subsequences stay well-formed because inapplicable ops (duplicate
insert, absent delete) are skipped by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.build import build_index_fast
from repro.core.online import topk_online
from repro.graph.generators import gnm_random
from repro.graph.graph import canonical_edge
from repro.persistence.store import DataDirectory
from repro.service.engine import QueryEngine

from tests.shrink import shrink


Op = Tuple[str, int, int]  # ("insert"|"delete", u, v)

#: ``(k, τ)`` pairs every trial is checked against.
QUERY_PAIRS = ((1, 1), (5, 1), (10, 2), (4, 3), (50, 2))


@dataclass
class Case:
    """One reproducible trial: a base graph plus an operation stream."""

    seed: int
    n: int
    m: int
    ops: List[Op]

    def describe(self) -> str:
        return (
            f"seed={self.seed} base=gnm_random({self.n}, {self.m}, "
            f"seed={self.seed}) ops={self.ops!r}"
        )


def generate_case(seed: int, *, max_n: int = 26, max_ops: int = 36) -> Case:
    """Derive a random case deterministically from ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(6, max_n)
    max_m = n * (n - 1) // 2
    m = rng.randint(0, min(max_m, 4 * n))
    graph = gnm_random(n, m, seed=seed)
    edges = set(graph.edges())
    ops: List[Op] = []
    for _ in range(rng.randint(1, max_ops)):
        if edges and rng.random() < 0.45:
            edge = rng.choice(sorted(edges))
            edges.discard(edge)
            ops.append(("delete", edge[0], edge[1]))
        else:
            for _attempt in range(50):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and canonical_edge(u, v) not in edges:
                    edge = canonical_edge(u, v)
                    edges.add(edge)
                    ops.append(("insert", edge[0], edge[1]))
                    break
    return Case(seed=seed, n=n, m=m, ops=ops)


def apply_ops(engine: QueryEngine, ops: List[Op]) -> int:
    """Apply a stream, skipping inapplicable ops; return the applied count.

    Skipping (rather than failing) is what makes every *subsequence* of
    a stream a valid stream -- the property shrinking relies on.
    """
    applied = 0
    for action, u, v in ops:
        try:
            engine.update(action, u, v)
            applied += 1
        except (ValueError, KeyError):
            continue
    return applied


def check_case(case: Case, tmp_dir, *, snapshot_interval: int = 4) -> Optional[str]:
    """Run one trial; return ``None`` on success or a failure description.

    The engine persists to ``tmp_dir`` (a small ``snapshot_interval``
    forces compactions mid-stream) and is then abandoned *without* a
    clean shutdown, so recovery exercises genuine WAL replay.
    """
    base = gnm_random(case.n, case.m, seed=case.seed)
    store = DataDirectory(tmp_dir, fsync=False)
    dyn, _report = store.open(bootstrap_graph=base)
    engine = QueryEngine(
        dynamic_index=dyn,
        store=store,
        snapshot_interval=snapshot_interval,
    )
    apply_ops(engine, case.ops)
    live_answers = {
        (k, tau): dyn.topk(k, tau) for k, tau in QUERY_PAIRS
    }
    store.wal.close()  # release the handle; skip engine.close() on purpose

    # 1. Crash-style recovery from disk.
    recovered_store = DataDirectory(tmp_dir, fsync=False)
    recovered, _ = recovered_store.open()
    recovered_store.close()
    try:
        recovered.check_invariants()
    except AssertionError as exc:
        return f"recovered index failed invariants: {exc}"
    if recovered.graph_version != dyn.graph_version:
        return (
            f"recovered version {recovered.graph_version} != "
            f"live version {dyn.graph_version}"
        )

    # 2. Cold rebuild of the final graph.
    fresh = build_index_fast(dyn.graph)

    for k, tau in QUERY_PAIRS:
        live = live_answers[(k, tau)]
        from_disk = recovered.topk(k, tau)
        rebuilt = fresh.topk(k, tau)
        # topk_online pads with score-0 edges to reach k; the index, by
        # construction, only ranks positive scores.  Both break ties by
        # ascending edge id, so equality is exact after filtering.
        online = [
            (edge, score)
            for edge, score in topk_online(dyn.graph, k, tau)
            if score > 0
        ]
        if from_disk != rebuilt:
            return (
                f"recovered != rebuilt at (k={k}, tau={tau}): "
                f"{from_disk} != {rebuilt}"
            )
        if live != rebuilt:
            return (
                f"maintained != rebuilt at (k={k}, tau={tau}): "
                f"{live} != {rebuilt}"
            )
        if online != rebuilt:
            return (
                f"online != rebuilt at (k={k}, tau={tau}): "
                f"{online} != {rebuilt}"
            )
    return None


def shrink_case(case: Case, make_dir, *, max_attempts: int = 200, check=None) -> Case:
    """Delta-debug the op stream down to a minimal still-failing case.

    ``make_dir()`` must return a fresh empty directory per attempt; the
    list surgery is :func:`tests.shrink.shrink`.  ``check`` is the
    failure oracle --
    ``check(case, dir) -> Optional[str]``, defaulting to
    :func:`check_case` (resolved at call time) -- so other differential
    harnesses (e.g. the cluster replication test) reuse this shrinking
    loop against their own end-to-end property.
    """
    if check is None:
        check = check_case

    def still_fails(ops: List[Op]) -> bool:
        candidate = Case(seed=case.seed, n=case.n, m=case.m, ops=ops)
        return check(candidate, make_dir()) is not None

    ops = shrink(case.ops, still_fails, max_attempts=max_attempts)
    return Case(seed=case.seed, n=case.n, m=case.m, ops=ops)
