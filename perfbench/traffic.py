"""Open- and closed-loop request traffic over at most two connections.

One thread drives every connection through a ``selectors`` loop, so the
generator is one process with no worker threads.  Each connection has at
most one request outstanding; an op that comes due while its connection
is busy waits in that connection's queue, and its latency is still
counted from its *scheduled* time (coordinated-omission-correct).

Writes are real-edge churn: every connection owns a disjoint list of
dataset edges and alternates ``delete e`` / ``insert e`` over it, so an
edge's delete and re-insert always travel in order on one connection,
and :meth:`Traffic.restore` puts every deleted edge back at the end of a
phase.
"""

from __future__ import annotations

import json
import random
import selectors
import socket
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]
Key = Tuple[int, int]

#: A server that answers nothing for this long has hung; fail the run.
STALL_SECONDS = 30.0


class Op:
    """One request and what happened to it."""

    __slots__ = (
        "kind", "message", "sched", "sent", "done", "ok", "error", "result",
    )

    def __init__(self, kind: str, message: Dict[str, Any], sched: float) -> None:
        self.kind = kind  # "read" | "write"
        self.message = message
        self.sched = sched  # when it was due, perf_counter seconds
        self.sent = 0.0
        self.done = 0.0
        self.ok = False
        self.error = ""
        self.result: Any = None

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send time to the reply."""
        return self.done - self.sched

    @property
    def service(self) -> float:
        """Seconds from the actual send to the reply."""
        return self.done - self.sent


class Conn:
    """One TCP connection with at most one request in flight."""

    def __init__(self, host: str, port: int, index: int, edges: Sequence[Edge]) -> None:
        self.index = index
        self.sock = socket.create_connection((host, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.queue: Deque[Op] = deque()
        self.inflight: Optional[Op] = None
        self.edges = list(edges)
        self.cursor = 0  # next edge to delete
        self.deleted: Optional[Edge] = None  # edge awaiting re-insert

    def next_write(self) -> Dict[str, Any]:
        """The next churn mutation on this connection."""
        if self.deleted is not None:
            u, v = self.deleted
            self.deleted = None
            return {"op": "update", "action": "insert", "u": u, "v": v}
        u, v = self.edges[self.cursor % len(self.edges)]
        self.cursor += 1
        self.deleted = (u, v)
        return {"op": "update", "action": "delete", "u": u, "v": v}

    def close(self) -> None:
        self.sock.close()


class Traffic:
    """The load generator: a set of connections and the ops sent on them."""

    def __init__(self, addresses: Sequence[Tuple[str, int]], edges: Sequence[Edge]) -> None:
        # One connection per address.  Edge lists are disjoint across
        # connections, so no two connections ever mutate the same edge.
        count = len(addresses)
        self.conns = [
            Conn(host, port, i, edges[i::count])
            for i, (host, port) in enumerate(addresses)
        ]
        # select() takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make every send up to 1 ms late.
        self._selector = selectors.SelectSelector()
        for conn in self.conns:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        self._next_id = 0

    def close(self) -> None:
        self._selector.close()
        for conn in self.conns:
            conn.close()

    # -- one request at a time (warm-up, probes, checks) ----------------------

    def call(self, conn: Conn, message: Dict[str, Any]) -> Op:
        """Send one request on ``conn`` and wait for its reply."""
        op = Op("call", message, time.perf_counter())
        self._run([(conn, op)])
        return op

    # -- loops ----------------------------------------------------------------

    def open_loop(
        self, schedule: List[Tuple[float, int, str, Optional[Key]]]
    ) -> List[Op]:
        """Send each ``(offset, conn, kind, key)`` at ``start + offset``."""
        start = time.perf_counter()
        plan = []
        for offset, index, kind, key in schedule:
            conn = self.conns[index]
            message = self._message(conn, kind, key)
            plan.append((conn, Op(kind, message, start + offset)))
        self._run(plan)
        return [op for _conn, op in plan]

    def closed_loop(
        self, seconds: float, rng: random.Random, write_shares: Sequence[float],
        keys: Sequence[Key],
    ) -> Tuple[List[Op], int]:
        """Each connection sends its next op as soon as the last returns.

        ``write_shares[i]`` is the chance that connection ``i``'s next op
        is a write.  Returns every op sent, and how many succeeded inside
        the ``seconds`` window.
        """
        def refill(conn: Conn) -> Optional[Op]:
            if time.perf_counter() >= deadline:
                return None
            if rng.random() < write_shares[conn.index]:
                message = self._message(conn, "write", None)
                kind = "write"
            else:
                message = self._message(conn, "read", rng.choice(keys))
                kind = "read"
            return Op(kind, message, time.perf_counter())

        start = time.perf_counter()
        deadline = start + seconds
        ops = self._run([], refill=refill)
        return ops, sum(op.ok and op.done <= deadline for op in ops)

    def restore(self) -> List[Op]:
        """Re-insert every edge a connection has deleted but not restored."""
        plan = [
            (conn, Op("write", conn.next_write(), time.perf_counter()))
            for conn in self.conns
            if conn.deleted is not None
        ]
        self._run(plan)
        return [op for _conn, op in plan]

    # -- internals ------------------------------------------------------------

    def _message(self, conn: Conn, kind: str, key: Optional[Key]) -> Dict[str, Any]:
        if kind == "write":
            return conn.next_write()
        k, tau = key
        return {"op": "topk", "k": k, "tau": tau}

    def _send(self, conn: Conn, op: Op) -> None:
        self._next_id += 1
        op.message["id"] = self._next_id
        op.sent = time.perf_counter()
        conn.inflight = op
        conn.sock.sendall(
            (json.dumps(op.message, separators=(",", ":")) + "\n").encode()
        )

    def _receive(self, conn: Conn) -> List[Op]:
        data = conn.sock.recv(1 << 16)
        now = time.perf_counter()
        if not data:
            raise ConnectionError(f"connection {conn.index} closed by server")
        conn.buf += data
        finished = []
        while True:
            cut = conn.buf.find(b"\n")
            if cut < 0:
                return finished
            line = bytes(conn.buf[:cut])
            del conn.buf[: cut + 1]
            op = conn.inflight
            conn.inflight = None
            if op is None:
                raise ConnectionError("reply without a request")
            op.done = now
            response = json.loads(line)
            if response.get("id") != op.message["id"]:
                raise ConnectionError(
                    f"reply id {response.get('id')} for request "
                    f"{op.message['id']}"
                )
            op.ok = bool(response.get("ok"))
            if op.ok and op.kind != "read":
                # Timed reads keep no reply: a run holds tens of
                # thousands of them, each up to 100 scored edges.
                op.result = response.get("result")
            else:
                error = response.get("error") or {}
                op.error = f"{error.get('code')}: {error.get('message')}"
            finished.append(op)

    def _run(self, plan, refill=None) -> List[Op]:
        """Drive ``plan`` (time-ordered ``(conn, op)``) to completion.

        With ``refill``, an idle connection asks it for its next op until
        it returns ``None`` (closed loop).
        """
        pending = deque(plan)
        done: List[Op] = []
        if refill is not None:
            for conn in self.conns:
                op = refill(conn)
                if op is not None:
                    conn.queue.append(op)
        while True:
            now = time.perf_counter()
            while pending and pending[0][1].sched <= now:
                conn, op = pending.popleft()
                conn.queue.append(op)
            for conn in self.conns:
                if conn.inflight is None and conn.queue:
                    self._send(conn, conn.queue.popleft())
            inflight = [c.inflight for c in self.conns if c.inflight is not None]
            if not inflight and not pending:
                return done
            if inflight and now - min(op.sent for op in inflight) > STALL_SECONDS:
                raise TimeoutError(f"no reply for {STALL_SECONDS}s")
            timeout = max(0.0, pending[0][1].sched - now) if pending else 1.0
            for key, _events in self._selector.select(timeout):
                conn = key.data
                for op in self._receive(conn):
                    done.append(op)
                    if refill is not None:
                        nxt = refill(conn)
                        if nxt is not None:
                            conn.queue.append(nxt)
                    if conn.queue and conn.inflight is None:
                        self._send(conn, conn.queue.popleft())


def poisson_schedule(
    rng: random.Random,
    *,
    rate: float,
    seconds: float,
    write_share: float,
    keys: Sequence[Key],
    connections: int,
    split_roles: bool = False,
) -> List[Tuple[float, int, str, Optional[Key]]]:
    """A Poisson arrival schedule with an exact op count and write count.

    ``rate * seconds`` arrivals are placed uniformly at random in the
    window (a Poisson process conditioned on its count), so every seed
    yields the same number of samples per op type.  Ops alternate over
    the connections in arrival order; with ``split_roles``, connection 0
    sends every write and connection 1 every read.
    """
    total = int(round(rate * seconds))
    writes = int(round(total * write_share))
    kinds = ["write"] * writes + ["read"] * (total - writes)
    rng.shuffle(kinds)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(total))
    schedule = []
    for i, (t, kind) in enumerate(zip(times, kinds)):
        if split_roles:
            conn = 0 if kind == "write" else 1
        else:
            conn = i % connections
        key = None if kind == "write" else rng.choice(keys)
        schedule.append((t, conn, kind, key))
    return schedule
