"""Cluster failure modes with real OS processes and SIGKILL.

Two acceptance scenarios:

* ``kill -9`` a replica process mid-stream -- a fresh replica (same
  name, new process) rejoins through the snapshot + catch-up protocol
  and converges to the writer's exact answers;
* ``kill -9`` the writer process -- the router fails writes fast with
  ``unavailable`` while reads keep serving from the replicas.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from tests.conftest import wait_until

from repro.cluster import (
    ReplicaConfig,
    ReplicaNode,
    Router,
    RouterConfig,
    WriterConfig,
    WriterNode,
)
from repro.cluster.supervisor import wait_for_address
from repro.graph.generators import gnm_random
from repro.graph.io import write_edge_list
from repro.service.client import ServiceClient, ServiceError

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(SRC) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def _spawn(argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_env(),
        text=True,
        bufsize=1,
    )


#: Bounded predicate polling -- no bare sleeps (see tests/conftest.py).
_wait = wait_until


def _replica_version(address):
    try:
        with ServiceClient(*address, timeout=5.0) as client:
            return client.request("cluster-info")["applied_version"]
    except (OSError, ServiceError):
        return -2


def test_kill9_replica_rejoins_via_snapshot_and_catchup(tmp_path):
    writer = WriterNode(
        gnm_random(20, 60, seed=9),
        # retain=4: the dead replica's versions age out of the ring, so
        # the rejoin MUST take the snapshot path, not records-only.
        WriterConfig(retain=4),
    ).start()
    repl_host, repl_port = writer.repl_address

    def spawn_replica():
        proc = _spawn(
            [
                "cluster", "replica", "--name", "victim",
                "--host", "127.0.0.1", "--port", "0",
                "--writer-host", repl_host,
                "--writer-repl-port", str(repl_port),
            ]
        )
        address = wait_for_address(proc.stdout, "listening")
        return proc, address

    proc, address = spawn_replica()
    try:
        _wait(
            lambda: _replica_version(address) == 0,
            message="replica bootstrap",
        )
        for i in range(5):
            writer.engine.update("insert", 300 + i, 301 + i)
        _wait(
            lambda: _replica_version(address) == 5,
            message="replica catch-up before the kill",
        )
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=10)

        # The writer keeps committing while the replica is dead; far
        # more than `retain`, so the ring no longer covers version 5.
        for i in range(20):
            writer.engine.update("insert", 400 + i, 401 + i)
        snapshots_before = writer.publisher.snapshots_sent

        proc2, address2 = spawn_replica()
        try:
            _wait(
                lambda: _replica_version(address2) == 25,
                message="rejoined replica catch-up",
            )
            assert writer.publisher.snapshots_sent == snapshots_before + 1
            with ServiceClient(*address2) as client:
                result = client.request("topk", k=10, tau=2)
            expected = [
                [u, v, score]
                for (u, v), score in writer.engine.dynamic_index.topk(10, 2)
            ]
            assert result["items"] == expected
            assert result["graph_version"] == 25
        finally:
            if proc2.poll() is None:
                os.kill(proc2.pid, signal.SIGKILL)
            proc2.wait(timeout=10)
            proc2.stdout.close()
    finally:
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        proc.stdout.close()
        writer.shutdown()


def test_kill9_writer_fails_writes_fast_reads_keep_serving(tmp_path):
    graph_file = tmp_path / "graph.txt"
    write_edge_list(gnm_random(20, 60, seed=13), graph_file)
    writer_proc = _spawn(
        [
            "cluster", "writer", "--graph", str(graph_file),
            "--host", "127.0.0.1", "--port", "0", "--repl-port", "0",
        ]
    )
    router = None
    replicas = []
    try:
        writer_address = wait_for_address(writer_proc.stdout, "listening")
        repl_address = wait_for_address(writer_proc.stdout, "replicating")
        replicas = [
            ReplicaNode(
                ReplicaConfig(
                    writer_host=repl_address[0],
                    writer_repl_port=repl_address[1],
                    name=f"wk-r{i}",
                )
            ).start()
            for i in range(2)
        ]
        _wait(
            lambda: all(r.applied_version >= 0 for r in replicas),
            message="replica bootstrap",
        )
        router = Router(
            RouterConfig(
                writer=writer_address,
                replicas=[(r.config.name,) + r.address for r in replicas],
                probe_interval=0.05,
            )
        ).start()
        _wait(
            lambda: router.status()["writer"]["connected"]
            and all(
                entry["connected"]
                for entry in router.status()["replicas"]
            ),
            message="router backend links",
        )
        with ServiceClient(*router.address) as client:
            version = client.request(
                "update", action="insert", u=900, v=901
            )["graph_version"]
            assert client.topk(k=5).graph_version >= version
        _wait(
            lambda: all(r.applied_version >= version for r in replicas),
            message="replicas applying the write",
        )

        os.kill(writer_proc.pid, signal.SIGKILL)
        writer_proc.wait(timeout=10)
        _wait(
            lambda: not router.status()["writer"]["connected"],
            message="router noticing the dead writer",
        )

        with ServiceClient(*router.address) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as info:
                client.request("update", action="insert", u=902, v=903)
            assert info.value.code == "unavailable"
            assert time.monotonic() - start < 1.0
            # Reads keep serving from replicas, at the last applied state.
            reply = client.topk(k=5)
            assert reply.items
            assert reply.graph_version >= version
        failovers = router.metrics.snapshot()["counters"]["failover_events"]
        assert failovers >= 1
    finally:
        if router is not None:
            router.shutdown()
        for replica in replicas:
            replica.shutdown()
        if writer_proc.poll() is None:
            os.kill(writer_proc.pid, signal.SIGKILL)
            writer_proc.wait(timeout=10)
        writer_proc.stdout.close()
