"""Boot a whole cluster: writer + N replicas as processes, router in-process.

``esd cluster start`` uses :class:`ClusterSupervisor` to spawn the
writer and each replica as its *own OS process* (``python -m repro.cli
cluster writer|replica ...``), scrape the announced addresses from
their stdout, and then run the :class:`~repro.cluster.router.Router`
in the supervisor process.  Children inherit stdout/stderr pipes; each
announces itself with a ``listening on host:port`` line (and the writer
additionally ``replicating on host:port``), the same contract the
kill-9 recovery tests already rely on for the single-node server.

Everything binds ephemeral ports by default so clusters stack up in CI
without port arithmetic; pass explicit ports for a stable production
topology.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, IO, List, Optional, Tuple

from repro.cluster.router import Router, RouterConfig

__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "wait_for_address",
]

#: Matches the address announce lines every node prints at startup.
_ADDRESS_RE = re.compile(
    r"(listening|replicating) on (?P<host>[\w.\-]+):(?P<port>\d+)"
)


def wait_for_address(
    stream: IO[str], label: str, *, timeout: float = 30.0
) -> Tuple[str, int]:
    """Scrape the next ``<label> on host:port`` announce line.

    Reads ``stream`` line by line (blocking reads; the per-line timeout
    is enforced against a deadline) until a line matches, and returns
    the ``(host, port)``.  Raises ``RuntimeError`` on EOF or timeout --
    a child that died before announcing is a boot failure, not a hang.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = stream.readline()
        if not line:
            raise RuntimeError(
                f"child exited before announcing '{label} on host:port'"
            )
        match = _ADDRESS_RE.search(line)
        if match and match.group(1) == label:
            return match.group("host"), int(match.group("port"))
    raise RuntimeError(f"timed out waiting for '{label}' announce line")


@dataclass
class ClusterConfig:
    """Topology and tunables for one :class:`ClusterSupervisor`."""

    replicas: int = 2
    host: str = "127.0.0.1"
    router_port: int = 0  #: 0 = ephemeral (read ``supervisor.address``)
    writer_port: int = 0  #: writer's client port
    repl_port: int = 0  #: writer's replication port
    replica_ports: List[int] = field(default_factory=list)  #: pad with 0s
    #: extra CLI args for the writer child (graph source, --data-dir,
    #: --no-fsync, ...), passed through verbatim
    writer_args: List[str] = field(default_factory=list)
    max_lag: int = 256
    boot_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")


class ClusterSupervisor:
    """Spawns the children, runs the router, tears everything down."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.writer_proc: Optional[subprocess.Popen] = None
        self.replica_procs: Dict[str, subprocess.Popen] = {}
        self.writer_address: Optional[Tuple[str, int]] = None
        self.repl_address: Optional[Tuple[str, int]] = None
        self.replica_addresses: Dict[str, Tuple[str, int]] = {}
        self.router: Optional[Router] = None

    # -- boot ------------------------------------------------------------------

    def _spawn(self, argv: List[str]) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,  # line buffered: announce lines arrive promptly
        )

    def start(self) -> "ClusterSupervisor":
        """Boot writer, replicas, then the router; returns ``self``."""
        config = self.config
        try:
            self.writer_proc = self._spawn(
                [
                    "cluster", "writer",
                    "--host", config.host,
                    "--port", str(config.writer_port),
                    "--repl-port", str(config.repl_port),
                    *config.writer_args,
                ]
            )
            self.writer_address = wait_for_address(
                self.writer_proc.stdout, "listening",
                timeout=config.boot_timeout,
            )
            self.repl_address = wait_for_address(
                self.writer_proc.stdout, "replicating",
                timeout=config.boot_timeout,
            )
            for i in range(config.replicas):
                name = f"replica-{i}"
                port = (
                    config.replica_ports[i]
                    if i < len(config.replica_ports)
                    else 0
                )
                proc = self._spawn(
                    [
                        "cluster", "replica",
                        "--name", name,
                        "--host", config.host,
                        "--port", str(port),
                        "--writer-host", self.repl_address[0],
                        "--writer-repl-port", str(self.repl_address[1]),
                    ]
                )
                self.replica_procs[name] = proc
                self.replica_addresses[name] = wait_for_address(
                    proc.stdout, "listening", timeout=config.boot_timeout
                )
            self.router = Router(
                RouterConfig(
                    host=config.host,
                    port=config.router_port,
                    writer=self.writer_address,
                    replicas=[
                        (name, host, port)
                        for name, (host, port)
                        in self.replica_addresses.items()
                    ],
                    max_lag=config.max_lag,
                )
            ).start()
            if not self.router.wait_ready(config.boot_timeout):
                raise RuntimeError(
                    "router could not reach every backend: "
                    f"{self.router.status()}"
                )
        except BaseException:
            # KeyboardInterrupt too: ``esd cluster start`` turns SIGTERM
            # into one, and a signal mid-boot must not orphan children.
            self.stop()
            raise
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The router's client-facing ``(host, port)``."""
        if self.router is None:
            raise RuntimeError("cluster not started")
        return self.router.address

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (the router thread is already running)."""
        if self.router is None:
            raise RuntimeError("cluster not started")
        thread = self.router._thread
        while thread is not None and thread.is_alive():
            thread.join(timeout=0.5)

    # -- teardown --------------------------------------------------------------

    def _reap(self, proc: subprocess.Popen, grace: float) -> None:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=grace)
        if proc.stdout is not None:
            proc.stdout.close()

    def stop(self, grace: float = 5.0) -> None:
        """Stop the router and reap every child; idempotent."""
        if self.router is not None:
            self.router.shutdown()
            self.router = None
        for proc in self.replica_procs.values():
            self._reap(proc, grace)
        self.replica_procs.clear()
        if self.writer_proc is not None:
            self._reap(self.writer_proc, grace)
            self.writer_proc = None

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
