"""End-to-end: ClusterSupervisor boots writer + replicas as OS processes.

This is the ``esd cluster start`` path minus the foreground loop: child
processes come from ``python -m repro.cli cluster writer|replica``, the
router runs in this process, and clients talk to one address.  It is
the same shape the CI cluster-smoke job drives from the shell.
"""

import json
import os
import socket
import subprocess
import sys

import pytest

from tests.conftest import wait_until

from repro.cluster import ClusterConfig, ClusterSupervisor
from repro.graph.generators import gnm_random
from repro.graph.io import write_edge_list
from repro.service.client import ServiceClient

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)


@pytest.fixture(autouse=True)
def _pythonpath_for_children(monkeypatch):
    monkeypatch.setenv(
        "PYTHONPATH",
        SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )


@pytest.fixture
def cluster(tmp_path):
    graph_file = tmp_path / "graph.txt"
    write_edge_list(gnm_random(20, 60, seed=21), graph_file)
    supervisor = ClusterSupervisor(
        ClusterConfig(
            replicas=2,
            writer_args=["--graph", str(graph_file)],
        )
    ).start()
    try:
        yield supervisor
    finally:
        supervisor.stop()


def _scrape(address):
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
        data = b""
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                break
            data += chunk
    return data


def test_mixed_read_write_with_read_your_writes(cluster):
    with ServiceClient(*cluster.address) as client:
        assert client.ping()
        baseline = client.topk(k=5)
        assert baseline.graph_version == 0
        for i in range(6):
            version = client.request(
                "update", action="insert", u=800 + i, v=801 + i
            )["graph_version"]
            read = client.topk(k=5)
            assert read.graph_version >= version
        status = client.request("cluster-status")
    assert status["writer"]["connected"] is True
    assert len(status["replicas"]) == 2


def test_replicas_converge_and_report_lag_via_prometheus(cluster):
    with ServiceClient(*cluster.address) as client:
        for i in range(4):
            client.request("update", action="insert", u=850 + i, v=851 + i)
    addresses = list(cluster.replica_addresses.values())

    def converged():
        versions = []
        for address in addresses:
            with ServiceClient(*address) as client:
                versions.append(
                    client.request("cluster-info")["applied_version"]
                )
        return all(v == 4 for v in versions)

    wait_until(
        converged, timeout=30, interval=0.05,
        message="replicas converging to version 4",
    )
    for address in addresses:
        body = _scrape(address).partition(b"\r\n\r\n")[2].decode()
        assert "esd_replication_applied_version 4" in body
        assert "esd_replication_lag 0" in body
    router_body = _scrape(cluster.address).partition(b"\r\n\r\n")[2].decode()
    assert "esd_cluster_writer_version" in router_body


def test_cluster_status_cli_verb(cluster):
    host, port = cluster.address
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.cli", "cluster", "status",
            "--host", host, "--port", str(port),
        ],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    status = json.loads(result.stdout)
    assert status["role"] == "router"
    assert {entry["name"] for entry in status["replicas"]} == {
        "replica-0", "replica-1"
    }


def test_interrupt_during_boot_reaps_every_child(tmp_path, monkeypatch):
    # ``esd cluster start`` turns SIGTERM into KeyboardInterrupt; one that
    # lands while the router waits for its backends must still reap the
    # writer and replica processes already spawned.
    from repro.cluster.router import Router

    def interrupted(self, timeout):
        raise KeyboardInterrupt

    monkeypatch.setattr(Router, "wait_ready", interrupted)
    graph_file = tmp_path / "graph.txt"
    write_edge_list(gnm_random(20, 60, seed=21), graph_file)
    supervisor = ClusterSupervisor(
        ClusterConfig(replicas=1, writer_args=["--graph", str(graph_file)])
    )
    spawned = []
    spawn = supervisor._spawn

    def recording_spawn(argv):
        spawned.append(spawn(argv))
        return spawned[-1]

    monkeypatch.setattr(supervisor, "_spawn", recording_spawn)
    with pytest.raises(KeyboardInterrupt):
        supervisor.start()
    assert len(spawned) == 2
    assert all(proc.poll() is not None for proc in spawned)
    assert supervisor.writer_proc is None and not supervisor.replica_procs
