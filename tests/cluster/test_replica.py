"""Replica serve path: the shared op table, the snapshot-resync path and
the lazily built maintenance kernel.

The resync tests drive a real :class:`ReplicaNode` from a scripted
replication peer, so they can deliver exactly the records a healthy
writer never sends: one with a version gap and one the replica's state
cannot absorb.
"""

import json
import socket

import pytest

from repro.cluster import ReplicaConfig, ReplicaNode
from repro.cluster.replication import (
    FRAME_ACK,
    FRAME_HELLO,
    FRAME_RECORD,
    FRAME_SNAPSHOT,
    record_to_payload,
    recv_frame,
    send_frame,
    send_json,
)
from repro.graph.generators import gnm_random
from repro.persistence.snapshot import encode_snapshot
from repro.persistence.wal import WALRecord
from repro.service.client import ServiceClient, ServiceError
from repro.service.engine import QueryEngine
from repro.service.server import ESDServer, ServerConfig


class ScriptedWriter:
    """A replication peer that accepts one tailer session at a time."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10.0)
        self.address = self.listener.getsockname()[:2]

    def accept(self):
        """The next session's socket and its hello payload."""
        sock, _ = self.listener.accept()
        sock.settimeout(10.0)
        ftype, payload = recv_frame(sock)
        assert ftype == FRAME_HELLO
        return sock, json.loads(payload)

    def close(self):
        self.listener.close()


@pytest.fixture
def scripted():
    writer = ScriptedWriter()
    replica = ReplicaNode(
        ReplicaConfig(
            writer_host=writer.address[0],
            writer_repl_port=writer.address[1],
            name="scripted",
            reconnect_backoff=0.05,
        )
    ).start()
    yield writer, replica
    replica.shutdown()
    writer.close()


def _send_snapshot(sock, engine):
    send_frame(
        sock, FRAME_SNAPSHOT,
        encode_snapshot(engine.dynamic_index.export_state()),
    )
    ftype, payload = recv_frame(sock)
    assert ftype == FRAME_ACK
    return json.loads(payload)["applied_version"]


def _send_record(sock, op, u, v, version):
    record = WALRecord(op=op, u=u, v=v, version=version)
    send_json(sock, FRAME_RECORD, record_to_payload(record))


def _unavailable(client):
    with pytest.raises(ServiceError) as info:
        client.topk(k=5, tau=2)
    return info.value.code == "unavailable"


def test_gap_and_unabsorbable_record_resync_from_a_snapshot(scripted):
    writer, replica = scripted
    engine = QueryEngine(gnm_random(20, 60, seed=5))
    with ServiceClient(*replica.address) as client:
        sock, hello = writer.accept()
        assert hello["applied_version"] == -1
        assert _unavailable(client)  # no state yet
        assert _send_snapshot(sock, engine) == 0
        assert client.topk(k=5, tau=2).items == client.topk(k=5, tau=2).items

        # One good record, applied through the replica's engine.
        u, v = sorted(engine.dynamic_index.graph.edges())[0]
        engine.update("delete", u, v)
        _send_record(sock, "delete", u, v, 1)
        assert recv_frame(sock)[0] == FRAME_ACK
        assert replica.applied_version == 1

        # A version gap: the replica drops the session and rejoins at
        # its applied version; its state is still good, so reads go on.
        _send_record(sock, "insert", 900, 901, 3)
        assert recv_frame(sock) is None
        sock.close()
        sock, hello = writer.accept()
        assert hello["applied_version"] == 1
        assert client.topk(k=5, tau=2).graph_version == 1

        # A record the state cannot absorb (the edge is already gone):
        # the replica stops serving and asks for a snapshot.
        _send_record(sock, "delete", u, v, 2)
        assert recv_frame(sock) is None
        sock.close()
        assert _unavailable(client)
        sock, hello = writer.accept()
        assert hello["applied_version"] == -1
        assert _unavailable(client)

        # The writer moved on meanwhile; the fresh snapshot restores
        # service at the writer's version with the writer's answer.
        engine.update("insert", u, v)
        engine.update("insert", 900, 901)
        assert _send_snapshot(sock, engine) == 3
        reply = client.topk(k=5, tau=2)
        expected = engine.topk(5, 2)
        assert reply.graph_version == expected["graph_version"] == 3
        assert [[a, b, s] for (a, b), s in reply.items] == expected["items"]
        assert client.stats()["graph_version"] == 3

        # Counters and latency series survive both snapshot swaps.
        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["replication_gaps"] == 2
        assert counters["records_applied"] == 1
        assert counters["snapshots_loaded"] == 2
        assert metrics["endpoints"]["topk"]["requests"] == 4
        assert metrics["graph_version"] == 3
        sock.close()
    engine.close()


def test_duplicate_record_is_acknowledged_without_reapplying(scripted):
    writer, replica = scripted
    engine = QueryEngine(gnm_random(20, 60, seed=5))
    sock, _ = writer.accept()
    _send_snapshot(sock, engine)
    _send_record(sock, "insert", 900, 901, 0)  # already covered by v0
    assert recv_frame(sock)[0] == FRAME_ACK
    assert replica.applied_version == 0
    assert replica.metrics.snapshot()["counters"].get("replication_gaps") is None
    sock.close()
    engine.close()


@pytest.fixture(params=["serve", "replica"])
def node_address(request):
    """One node of each kind; the replica never gets a writer."""
    if request.param == "serve":
        node = ESDServer(gnm_random(12, 30, seed=3), ServerConfig()).start()
        yield node.address
        node.shutdown()
        return
    writer = ScriptedWriter()
    node = ReplicaNode(
        ReplicaConfig(
            writer_host=writer.address[0],
            writer_repl_port=writer.address[1],
        )
    ).start()
    yield node.address
    node.shutdown()
    writer.close()


def test_unknown_ops_create_no_metric_series(node_address):
    with ServiceClient(*node_address) as client:
        before = set(client.metrics()["endpoints"])
        for i in range(50):
            with pytest.raises(ServiceError) as info:
                client.request(f"bogus-{i}")
            assert info.value.code == "unknown_op"
        assert set(client.metrics()["endpoints"]) == before


def test_first_record_reuses_the_restore_csr(scripted):
    # The maintenance kernel is built lazily on the first record from
    # the CSR the snapshot restore left cached: no second CSR build.
    from repro.kernels.counters import KERNEL_COUNTERS
    from repro.kernels.dispatch import use_kernels

    writer, replica = scripted
    engine = QueryEngine(gnm_random(20, 60, seed=5))
    u, v = sorted(engine.dynamic_index.graph.edges())[0]
    with use_kernels("csr"):
        sock, _ = writer.accept()
        assert _send_snapshot(sock, engine) == 0
        assert replica.engine.dynamic_index._kmaint is None
        builds = KERNEL_COUNTERS.csr_builds
        _send_record(sock, "delete", u, v, 1)
        assert recv_frame(sock)[0] == FRAME_ACK
        assert replica.applied_version == 1
        assert KERNEL_COUNTERS.csr_builds == builds
        assert replica.engine.dynamic_index._kmaint is not None
    sock.close()
    engine.close()


def test_reloaded_snapshots_free_the_old_graphs_and_csrs(scripted):
    import gc
    import weakref

    from repro.kernels.csr import _SNAPSHOT_CACHE
    from repro.kernels.dispatch import use_kernels

    writer, replica = scripted
    engine = QueryEngine(gnm_random(20, 60, seed=5))
    graphs = []
    with use_kernels("csr"):
        sock, _ = writer.accept()
        for version in range(1, 4):
            engine.update("insert", 900, 900 + version)
            assert _send_snapshot(sock, engine) == version
            graphs.append(weakref.ref(replica.engine.dynamic_index.graph))
    sock.close()
    gc.collect()
    # The two replaced graphs are gone, and with them their cached CSRs;
    # only the applied snapshot's graph keeps one cache entry.
    assert [ref() is None for ref in graphs] == [True, True, False]
    current = graphs[-1]()
    entries = list(_SNAPSHOT_CACHE.values())
    assert all(ref() is not None for ref, _, _ in entries)
    assert sum(1 for ref, _, _ in entries if ref() is current) == 1
    engine.close()
