"""The load driver: execute a :class:`ScenarioPlan` against a live server.

Coordinated-omission correctness is the whole point of this module, and
it falls out of one accounting decision: an operation's latency is
measured from its **schedule deadline**, not from the moment a worker
finally got around to sending it.  When the server stalls, workers back
up, sends happen late, and that queueing delay lands *in the recorded
latency* -- exactly what a real user behind the stall would experience.
The send timestamp is kept too (``service_time``), so reports can show
both the honest open-loop number and the optimistic closed-loop one
side by side.

Transports are anything with ``request(op, **fields)`` raising
``ServiceError`` for structured errors -- a real
:class:`~repro.service.client.ServiceClient`, or a scripted fake in
tests.  All timing flows through the injected :class:`Clock`, so driver
behaviour (including multi-second stalls) is testable in microseconds.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.loadgen.clock import SYSTEM_CLOCK, Clock
from repro.loadgen.scenario import ScenarioPlan, ScheduledOp
from repro.service.client import ServiceError

#: Latency samples retained per run (uniform reservoir; counts are exact).
RESERVOIR_CAPACITY = 8192

#: A factory returning a fresh transport (one per worker connection).
TransportFactory = Callable[[], Any]


@dataclass(frozen=True)
class OpRecord:
    """Timestamps of one executed operation (clock-domain seconds)."""

    deadline: float  #: when the schedule said to send
    sent: float  #: when a worker actually sent
    done: float  #: when the reply (or error) arrived
    op: str
    kind: str
    error: Optional[str] = None  #: protocol error code, "transport", or None

    @property
    def latency(self) -> float:
        """Open-loop latency: completion minus *deadline* (CO-correct)."""
        return self.done - self.deadline

    @property
    def service_time(self) -> float:
        """Closed-loop view: completion minus actual send."""
        return self.done - self.sent

    @property
    def lateness(self) -> float:
        """Queueing delay the schedule absorbed before the send."""
        return self.sent - self.deadline


class Reservoir:
    """Fixed-size uniform sample (Algorithm R), deterministic by seed."""

    def __init__(self, capacity: int = RESERVOIR_CAPACITY, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rng = random.Random(seed)
        self._items: List[Any] = []
        self.offered = 0

    def offer(self, item: Any) -> None:
        self.offered += 1
        if len(self._items) < self.capacity:
            self._items.append(item)
            return
        slot = self._rng.randrange(self.offered)
        if slot < self.capacity:
            self._items[slot] = item

    def items(self) -> List[Any]:
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class RunResult:
    """Everything a run measured.  Counters are exact; records sampled."""

    scheduled: int = 0
    completed: int = 0
    ok: int = 0
    errors: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    records: List[OpRecord] = field(default_factory=list)
    sampled_from: int = 0  #: completions the reservoir saw (== completed)
    max_latency: float = 0.0  #: exact, not subject to sampling
    max_lateness: float = 0.0
    latency_sum: float = 0.0
    reads: int = 0
    writes: int = 0

    @property
    def error_total(self) -> int:
        return sum(self.errors.values())


class LoadDriver:
    """A pool of workers draining one schedule against one server."""

    def __init__(
        self,
        transport_factory: TransportFactory,
        workers: int = 4,
        clock: Clock = SYSTEM_CLOCK,
        reservoir_capacity: int = RESERVOIR_CAPACITY,
        seed: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._factory = transport_factory
        self._workers = workers
        self._clock = clock
        self._reservoir_capacity = reservoir_capacity
        self._seed = seed

    # -- op execution ---------------------------------------------------------

    @staticmethod
    def _execute(transport: Any, op: ScheduledOp) -> None:
        """Issue one scheduled op; raises on structured/transport errors."""
        if op.op == "watch_cycle":
            # One logical operation, three requests: subscribe, drain,
            # unsubscribe.  The whole cycle is the measured latency.
            watch = transport.request("watch", **op.fields)
            transport.request("changes", watch_id=watch["watch_id"])
            transport.request("unwatch", watch_id=watch["watch_id"])
        else:
            transport.request(op.op, **op.fields)

    def _setup(self, plan: ScenarioPlan) -> None:
        """Insert the delete pool, closed-loop and unrecorded."""
        if not plan.setup_edges:
            return
        transport = self._factory()
        try:
            for u, v in plan.setup_edges:
                transport.request("update", action="insert", u=u, v=v)
        finally:
            _close_quietly(transport)

    # -- the run --------------------------------------------------------------

    def run(self, plan: ScenarioPlan) -> RunResult:
        """Execute the plan; returns once every scheduled op completed."""
        self._setup(plan)
        result = RunResult(scheduled=len(plan.ops))
        reservoir = Reservoir(self._reservoir_capacity, seed=self._seed)
        lock = threading.Lock()
        cursor = [0]
        start = self._clock.now()

        def worker_loop() -> None:
            transport: Any = None
            try:
                while True:
                    with lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(plan.ops):
                        return
                    op = plan.ops[index]
                    # Open loop: wait for the *absolute* deadline.  A
                    # worker that is already past it sends immediately
                    # and the lateness is charged as latency.
                    delay = (start + op.deadline) - self._clock.now()
                    if delay > 0:
                        self._clock.sleep(delay)
                    if transport is None:
                        try:
                            transport = self._factory()
                        except OSError:
                            self._record(
                                result, reservoir, lock, op,
                                start + op.deadline, "transport",
                            )
                            continue
                    sent = self._clock.now()
                    error: Optional[str] = None
                    try:
                        self._execute(transport, op)
                    except ServiceError as exc:
                        error = exc.code
                    except (OSError, ConnectionError):
                        error = "transport"
                        _close_quietly(transport)
                        transport = None
                    done = self._clock.now()
                    record = OpRecord(
                        deadline=start + op.deadline,
                        sent=sent,
                        done=done,
                        op=op.op,
                        kind=op.kind,
                        error=error,
                    )
                    with lock:
                        _fold(result, reservoir, record)
            finally:
                _close_quietly(transport)

        if self._workers == 1:
            # Inline: exact determinism under a FakeClock (no scheduler
            # interleaving), which the unit tests rely on.
            worker_loop()
        else:
            threads = [
                threading.Thread(target=worker_loop, daemon=True)
                for _ in range(self._workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        result.wall_seconds = self._clock.now() - start
        result.records = reservoir.items()
        result.sampled_from = reservoir.offered
        return result

    def _record(
        self,
        result: RunResult,
        reservoir: Reservoir,
        lock: threading.Lock,
        op: ScheduledOp,
        deadline: float,
        error: str,
    ) -> None:
        """Record an op that never made it onto a transport."""
        now = self._clock.now()
        record = OpRecord(
            deadline=deadline, sent=now, done=now,
            op=op.op, kind=op.kind, error=error,
        )
        with lock:
            _fold(result, reservoir, record)


def _fold(result: RunResult, reservoir: Reservoir, record: OpRecord) -> None:
    result.completed += 1
    if record.error is None:
        result.ok += 1
    else:
        result.errors[record.error] = result.errors.get(record.error, 0) + 1
    if record.kind == "read":
        result.reads += 1
    else:
        result.writes += 1
    result.max_latency = max(result.max_latency, record.latency)
    result.max_lateness = max(result.max_lateness, record.lateness)
    result.latency_sum += record.latency
    reservoir.offer(record)


def _close_quietly(transport: Any) -> None:
    close = getattr(transport, "close", None)
    if close is None:
        return
    try:
        close()
    except OSError:
        pass


def measure_baseline(
    transport_factory: TransportFactory,
    duration: float = 1.0,
    clock: Clock = SYSTEM_CLOCK,
    k: int = 10,
    tau: int = 2,
) -> float:
    """Closed-loop single-connection ``topk`` rate (ops/second).

    This is the machine-dependent yardstick the sweep normalizes by:
    ``knee_rate / baseline_rate`` compares what the *server* sustains
    under open-loop load against what *one* synchronous caller extracts
    from the same deployment on the same hardware, so the ratio is
    gateable across machines.
    """
    transport = transport_factory()
    try:
        start = clock.now()
        count = 0
        while clock.now() - start < duration:
            transport.request("topk", k=k, tau=tau)
            count += 1
        elapsed = clock.now() - start
        return count / elapsed if elapsed > 0 else 0.0
    finally:
        _close_quietly(transport)
