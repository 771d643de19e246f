"""Launch the serving processes, time their set-up, and tear them down.

Every launch runs in a fresh session, so the server and any children it
spawns (the cluster's writer and replica) share one process group that
teardown signals and then checks for survivors.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set, Tuple

Address = Tuple[str, int]

#: Seconds a launch may take before the run fails.
READY_TIMEOUT = 120.0
#: Seconds a clean shutdown may take before the group is killed.
STOP_TIMEOUT = 20.0

_ANNOUNCE = {
    "serve": re.compile(r"esd serve: listening on ([\w.\-]+):(\d+)"),
    "router": re.compile(r"esd cluster: listening on ([\w.\-]+):(\d+)"),
    "writer": re.compile(r"esd cluster: writer on ([\w.\-]+):(\d+)"),
    "replica": re.compile(r"esd cluster: replica-0 on ([\w.\-]+):(\d+)"),
}


def request(address: Address, message: Dict, timeout: float = 10.0) -> Dict:
    """One request on a fresh connection; returns the decoded response."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall((json.dumps(message) + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            data += chunk
    return json.loads(data)


def _answers(address: Address, op: str) -> bool:
    try:
        return bool(request(address, {"op": op}, timeout=5.0).get("ok"))
    except (OSError, ValueError):
        return False


class Deployment:
    """One running ``esd serve`` or ``esd cluster start``."""

    def __init__(self, argv: List[str], *, cluster: bool, env: Dict[str, str],
                 log_path: str, cwd: str, cpus: Optional[Set[int]] = None) -> None:
        self.cluster = cluster
        self.log_path = log_path
        self.addresses: Dict[str, Address] = {}
        started = time.perf_counter()
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", *argv],
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=cwd, start_new_session=True,
                # The benchmark process has no threads, so running code
                # between fork and exec is safe; children inherit it.
                preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
            )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        #: Seconds from launch to the first successful ping (for the
        #: cluster: until the replica also serves from its snapshot).
        self.setup_s = time.perf_counter() - started

    @property
    def front(self) -> Address:
        """The address clients talk to (server or router)."""
        return self.addresses["router" if self.cluster else "serve"]

    def _wait_ready(self) -> None:
        labels = ["router", "writer", "replica"] if self.cluster else ["serve"]
        deadline = time.perf_counter() + READY_TIMEOUT
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {self._log_tail()}"
                )
            if time.perf_counter() > deadline:
                raise TimeoutError(f"server not ready: {self._log_tail()}")
            if len(self.addresses) < len(labels):
                with open(self.log_path, "r", errors="replace") as log:
                    text = log.read()
                for label in labels:
                    match = _ANNOUNCE[label].search(text)
                    if match:
                        self.addresses[label] = (match.group(1), int(match.group(2)))
            elif _answers(self.front, "ping") and (
                # The replica answers stats only once it holds state.
                not self.cluster or _answers(self.addresses["replica"], "stats")
            ):
                return
            time.sleep(0.005)

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "r", errors="replace") as log:
                return log.read()[-2000:]
        except OSError:
            return ""

    def group_pids(self) -> List[int]:
        """Live processes of this deployment's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            # fields: state, ppid, pgrp, ...; zombies hold no memory.
            if int(fields[2]) == self.proc.pid and fields[0] != "Z":
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the deployment's processes, in MB."""
        total_kb = 0
        for pid in self.group_pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> List[str]:
        """Shut down cleanly, then make sure no process survives.

        ``esd serve`` stops on SIGINT and the cluster supervisor on
        SIGTERM (it then stops its children).  Returns a list of hygiene
        problems (empty when teardown was clean).
        """
        problems = []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if self.cluster else signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                problems.append("server ignored the stop signal")
        deadline = time.perf_counter() + 5.0
        while self.group_pids() and time.perf_counter() < deadline:
            time.sleep(0.02)
        survivors = self.group_pids()
        if survivors:
            problems.append(f"server processes survived teardown: {survivors}")
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        return problems


def shm_segments() -> set:
    """The ``esd-*`` shared-memory segments that exist right now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("esd-")}
    except OSError:
        return set()
