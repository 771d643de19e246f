"""Blocking client for the ``esd serve`` JSON line protocol.

Example::

    from repro.service.client import ServiceClient

    with ServiceClient("127.0.0.1", 7031) as client:
        reply = client.topk(k=10, tau=2)
        print(reply.graph_version, reply.items[:3])
        client.insert_edge(1, 99)
        print(client.topk(k=10, tau=2).items[:3])

One :class:`ServiceClient` is one TCP connection issuing requests
sequentially; use one client per thread for concurrent load.  Errors the
server reports (including ``overloaded`` backpressure rejections) are
raised as :class:`ServiceError` with the structured code preserved.
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.service import protocol


class ServiceError(RuntimeError):
    """A structured error response from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


@dataclass(frozen=True)
class TopKReply:
    """A decoded ``topk`` response."""

    items: List[Tuple[Tuple[Any, Any], int]]
    graph_version: int
    cached: bool
    batched: int


def wait_until_ready(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Block until a server accepts connections (for scripts and CI)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=interval + 1):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"no server at {host}:{port} after {timeout}s"
                )
            time.sleep(interval)


class ServiceClient:
    """One connection to an :class:`~repro.service.server.ESDServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 7031, timeout: float = 30.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- transport ------------------------------------------------------------

    def request(self, op: str, **fields: Any) -> Any:
        """Send one request; return its ``result`` or raise ServiceError."""
        self._next_id += 1
        message: Dict[str, Any] = {"op": op, "id": self._next_id, **fields}
        self._file.write(protocol.encode(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not isinstance(response, dict):
            raise ConnectionError(f"malformed response line: {response!r}")
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", protocol.INTERNAL),
            error.get("message", "malformed error response"),
        )

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- typed helpers --------------------------------------------------------

    def ping(self) -> bool:
        return self.request("ping") == "pong"

    def topk(self, k: int = 10, tau: int = 2) -> TopKReply:
        result = self.request("topk", k=k, tau=tau)
        return TopKReply(
            items=[((u, v), score) for u, v, score in result["items"]],
            graph_version=result["graph_version"],
            cached=result["cached"],
            batched=result["batched"],
        )

    def score(self, u: Any, v: Any, tau: int = 2) -> Dict[str, Any]:
        return self.request("score", u=u, v=v, tau=tau)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def update(self, action: str, u: Any, v: Any) -> Dict[str, Any]:
        return self.request("update", action=action, u=u, v=v)

    def insert_edge(self, u: Any, v: Any) -> Dict[str, Any]:
        return self.update("insert", u, v)

    def delete_edge(self, u: Any, v: Any) -> Dict[str, Any]:
        return self.update("delete", u, v)

    def watch(self, k: int = 10, tau: int = 2) -> Dict[str, Any]:
        return self.request("watch", k=k, tau=tau)

    def changes(self, watch_id: int) -> List[Dict[str, Any]]:
        return self.request("changes", watch_id=watch_id)["changes"]

    def unwatch(self, watch_id: int) -> Dict[str, Any]:
        return self.request("unwatch", watch_id=watch_id)

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")
