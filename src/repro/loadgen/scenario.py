"""Scenario layer: declarative read/write mixes over the serve protocol.

A :class:`Profile` says *what* traffic looks like (write share, watch
share, query grid); :func:`build_plan` marries it to a schedule's
deadlines and produces a concrete, deterministic operation stream.

Mutations are minted through :func:`repro.bench.workloads.mutation_edges`
so they live in a vertex-id range disjoint from every stand-in dataset:

* **inserts** always create a brand-new edge (cannot conflict);
* **deletes** only ever target edges from a *setup pool* the driver
  inserts before the run starts (cannot dangle) -- under concurrent
  workers an in-run delete could otherwise race the insert it depends
  on and turn op reordering into spurious protocol errors.

Profiles (the ``--scenario`` choices):

========================  =======  ===========  ==========================
name                      writes   watch share  intent
========================  =======  ===========  ==========================
``read_heavy``            5%       --           dashboard / cache-friendly
``mixed``                 15%      --           the PR-1 service bench mix
``write_heavy``           50%      --           ingest-dominated
``watch_fanout``          10%      40% of reads standing-query subscribers
========================  =======  ===========  ==========================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.bench.workloads import (
    LOADGEN_EDGE_BASE,
    SERVICE_QUERY_GRID,
    SERVICE_WRITE_RATIO,
    mutation_edges,
)

Edge = Tuple[int, int]


@dataclass(frozen=True)
class ScheduledOp:
    """One planned request: due at ``deadline`` seconds from run start."""

    deadline: float
    op: str  #: "topk" | "update" | "watch_cycle"
    fields: Dict[str, Any]
    kind: str  #: "read" | "write"


@dataclass(frozen=True)
class Profile:
    """A traffic shape, independent of rate and duration."""

    name: str
    write_ratio: float  #: fraction of ops that mutate the graph
    watch_ratio: float = 0.0  #: fraction of *reads* that are watch cycles
    delete_ratio: float = 0.5  #: fraction of *writes* that are deletes
    query_grid: Sequence[Tuple[int, int]] = tuple(SERVICE_QUERY_GRID)

    def __post_init__(self) -> None:
        for name in ("write_ratio", "watch_ratio", "delete_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not self.query_grid:
            raise ValueError("query_grid must not be empty")


PROFILES: Dict[str, Profile] = {
    "read_heavy": Profile("read_heavy", write_ratio=0.05),
    "mixed": Profile("mixed", write_ratio=SERVICE_WRITE_RATIO),
    "write_heavy": Profile("write_heavy", write_ratio=0.5),
    "watch_fanout": Profile(
        "watch_fanout", write_ratio=0.10, watch_ratio=0.40
    ),
}


@dataclass
class ScenarioPlan:
    """A profile bound to concrete deadlines: what the driver executes.

    ``setup_edges`` must be inserted (closed-loop, unrecorded) before the
    scheduled stream starts -- they are the delete pool.
    """

    profile: Profile
    setup_edges: List[Edge]
    ops: List[ScheduledOp]
    seed: int = 0
    reads: int = field(default=0)
    writes: int = field(default=0)

    @property
    def duration(self) -> float:
        return self.ops[-1].deadline if self.ops else 0.0


def build_plan(
    deadlines: Sequence[float],
    profile: Profile,
    seed: int = 0,
    edge_base: int = LOADGEN_EDGE_BASE,
) -> ScenarioPlan:
    """Assign one operation to every deadline, deterministically.

    The same ``(deadlines, profile, seed, edge_base)`` quadruple always
    yields the same plan; distinct ``edge_base`` values (e.g. one per
    sweep trial) touch disjoint edge pools.
    """
    rng = random.Random(seed)
    # First pass: choose op shapes; edges are assigned afterwards so the
    # delete pool can be sized exactly.
    shapes: List[Tuple[float, str, str]] = []  # (deadline, op, kind)
    for deadline in sorted(deadlines):
        if rng.random() < profile.write_ratio:
            action = (
                "delete" if rng.random() < profile.delete_ratio else "insert"
            )
            shapes.append((deadline, action, "write"))
        elif profile.watch_ratio and rng.random() < profile.watch_ratio:
            shapes.append((deadline, "watch_cycle", "read"))
        else:
            shapes.append((deadline, "topk", "read"))

    n_deletes = sum(1 for _, op, _ in shapes if op == "delete")
    n_inserts = sum(1 for _, op, _ in shapes if op == "insert")
    edges = mutation_edges(n_deletes + n_inserts, base=edge_base)
    delete_pool, insert_pool = edges[:n_deletes], edges[n_deletes:]

    ops: List[ScheduledOp] = []
    reads = writes = 0
    di = ii = 0
    for deadline, op, kind in shapes:
        if op == "delete":
            u, v = delete_pool[di]
            di += 1
            ops.append(
                ScheduledOp(
                    deadline, "update",
                    {"action": "delete", "u": u, "v": v}, "write",
                )
            )
            writes += 1
        elif op == "insert":
            u, v = insert_pool[ii]
            ii += 1
            ops.append(
                ScheduledOp(
                    deadline, "update",
                    {"action": "insert", "u": u, "v": v}, "write",
                )
            )
            writes += 1
        elif op == "watch_cycle":
            k, tau = profile.query_grid[
                rng.randrange(len(profile.query_grid))
            ]
            ops.append(
                ScheduledOp(deadline, "watch_cycle", {"k": k, "tau": tau}, "read")
            )
            reads += 1
        else:
            k, tau = profile.query_grid[
                rng.randrange(len(profile.query_grid))
            ]
            ops.append(
                ScheduledOp(deadline, "topk", {"k": k, "tau": tau}, "read")
            )
            reads += 1
    return ScenarioPlan(
        profile=profile,
        setup_edges=delete_pool,
        ops=ops,
        seed=seed,
        reads=reads,
        writes=writes,
    )
