"""Unit tests for the selectors-based event loop the cluster serves on."""

import socket
import threading
import time

import pytest

from repro.cluster.eventloop import OUTBUF_LIMIT, EventLoop


class LoopFixture:
    """An EventLoop running on a daemon thread, plus helpers."""

    def __init__(self, **kwargs):
        self.loop = EventLoop(**kwargs)
        self.thread = None

    def start(self):
        self.thread = threading.Thread(target=self.loop.run, daemon=True)
        self.thread.start()

    def stop(self):
        self.loop.stop()
        if self.thread is not None:
            self.thread.join(timeout=5)
            assert not self.thread.is_alive()


@pytest.fixture
def loop_fixture():
    fixture = LoopFixture(tick_interval=0.02)
    yield fixture
    fixture.stop()


def _connect(address, timeout=5.0):
    sock = socket.create_connection(address, timeout=timeout)
    return sock, sock.makefile("rwb")


def test_echo_many_lines_one_connection(loop_fixture):
    loop = loop_fixture.loop
    listener = loop.listen(
        "127.0.0.1", 0, lambda ch, line: ch.send_bytes(line + b"\n")
    )
    loop_fixture.start()
    sock, f = _connect(listener.address)
    try:
        for i in range(50):
            f.write(b"hello %d\n" % i)
        f.flush()
        for i in range(50):
            assert f.readline() == b"hello %d\n" % i
    finally:
        sock.close()
    assert loop.stats["lines"] >= 50


def test_partial_lines_are_buffered_until_newline(loop_fixture):
    loop = loop_fixture.loop
    listener = loop.listen(
        "127.0.0.1", 0, lambda ch, line: ch.send_bytes(line + b"\n")
    )
    loop_fixture.start()
    sock, f = _connect(listener.address)
    try:
        sock.sendall(b"abc")
        time.sleep(0.1)
        sock.sendall(b"def\nsecond")
        assert f.readline() == b"abcdef\n"
        sock.sendall(b"\n")
        assert f.readline() == b"second\n"
    finally:
        sock.close()


def test_overflow_line_answered_and_closed(loop_fixture):
    loop = loop_fixture.loop
    loop.overflow_response = b"TOO BIG\n"
    loop._max_line_bytes = 1024
    listener = loop.listen(
        "127.0.0.1", 0, lambda ch, line: ch.send_bytes(line + b"\n")
    )
    loop_fixture.start()
    sock, f = _connect(listener.address)
    try:
        sock.sendall(b"x" * 4096)  # no newline: an unbounded "line"
        assert f.readline() == b"TOO BIG\n"
        assert f.readline() == b""  # connection closed after the answer
    finally:
        sock.close()
    assert loop.stats["overflow_closed"] == 1


def test_idle_connections_swept(loop_fixture):
    loop = loop_fixture.loop
    listener = loop.listen(
        "127.0.0.1", 0, lambda ch, line: ch.send_bytes(line + b"\n"),
        idle_timeout=0.1,
    )
    loop_fixture.start()
    sock, f = _connect(listener.address)
    try:
        assert f.readline() == b""  # closed by the idle sweep, not by us
    finally:
        sock.close()
    assert loop.stats["idle_closed"] == 1


def test_call_soon_runs_on_loop_thread(loop_fixture):
    loop = loop_fixture.loop
    loop_fixture.start()
    seen = []
    done = threading.Event()

    def record():
        seen.append(threading.current_thread())
        done.set()

    loop.call_soon(record)
    assert done.wait(timeout=5)
    assert seen[0] is loop_fixture.thread


def test_outbound_connect_round_trip(loop_fixture):
    loop = loop_fixture.loop
    received = []
    got = threading.Event()
    server = socket.socket()
    server.bind(("127.0.0.1", 0))
    server.listen(1)

    def serve():
        conn, _ = server.accept()
        conn.sendall(b"from server\n")
        conn.close()

    threading.Thread(target=serve, daemon=True).start()
    loop_fixture.start()
    done = threading.Event()

    def connect():
        loop.connect(
            "127.0.0.1", server.getsockname()[1],
            lambda ch, line: (received.append(line), got.set()),
        )
        done.set()

    loop.call_soon(connect)
    assert done.wait(timeout=5)
    assert got.wait(timeout=5)
    assert received == [b"from server"]
    server.close()


def test_stop_closes_all_sockets(loop_fixture):
    loop = loop_fixture.loop
    listener = loop.listen(
        "127.0.0.1", 0, lambda ch, line: ch.send_bytes(line + b"\n")
    )
    loop_fixture.start()
    sock, f = _connect(listener.address)
    loop_fixture.stop()
    # The peer socket is closed by teardown: reads see EOF.
    assert f.readline() == b""
    sock.close()
    assert loop.snapshot()["open_connections"] == 0


def _read_exactly(sock, size, *, chunk=1 << 16, pause=0.0):
    """``size`` bytes from ``sock``, ``chunk`` at a time."""
    data = bytearray()
    while len(data) < size:
        piece = sock.recv(min(chunk, size - len(data)))
        assert piece, f"EOF after {len(data)} of {size} bytes"
        data += piece
        if pause:
            time.sleep(pause)
    return bytes(data)


def test_non_reading_client_keeps_outbuf_bounded(loop_fixture):
    # A peer that pipelines requests but never reads must not make the
    # server queue every reply: reading pauses while outbuf is over the
    # limit, and resumes, in order, once the peer drains it.
    loop = loop_fixture.loop
    pad = b"x" * 4096
    listener = loop.listen(
        "127.0.0.1", 0,
        lambda ch, line: ch.send_bytes(line + b" " + pad + b"\n"),
    )
    loop_fixture.start()
    count = 20_000
    requests = b"".join(b"ping %05d\n" % i for i in range(count))
    sock = socket.create_connection(listener.address, timeout=10.0)
    # Sent from a thread: once the server stops reading, the request
    # stream itself may block in the kernel's socket buffers.
    sender = threading.Thread(target=sock.sendall, args=(requests,))
    sender.start()
    try:
        peak = 0
        deadline = time.monotonic() + 1.0
        while time.monotonic() < deadline:
            for channel in list(loop._channels):
                peak = max(peak, len(channel.outbuf))
            time.sleep(0.01)
        reply_size = len(b"ping 00000 ") + len(pad) + 1
        assert 0 < peak <= OUTBUF_LIMIT + reply_size, peak
        replies = _read_exactly(sock, count * reply_size).split(b"\n")
        assert replies[-1] == b""
        assert [r[:10] for r in replies[:-1]] == [
            b"ping %05d" % i for i in range(count)
        ]
    finally:
        sender.join(timeout=10)
        sock.close()
    assert not sender.is_alive()
    assert loop.stats["lines"] == count


def test_slow_reader_gets_a_multi_mb_reply_byte_for_byte(loop_fixture):
    # A tiny receive window forces many partial sends; the reply must
    # still arrive intact, and bytes_out must count exactly what left.
    loop = loop_fixture.loop
    big = bytes(range(256)) * (3 * 4096) + b"\n"  # 3 MiB + newline
    listener = loop.listen(
        "127.0.0.1", 0,
        lambda ch, line: ch.send_bytes(big if line == b"big" else b"ok\n"),
    )
    loop_fixture.start()
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(10.0)
    sock.connect(listener.address)
    try:
        sock.sendall(b"big\nping\n")
        received = _read_exactly(sock, len(big) + 3, chunk=4096, pause=0.0002)
    finally:
        sock.close()
    assert received[: len(big)] == big
    assert received[len(big) :] == b"ok\n"
    assert loop.stats["bytes_out"] == len(received)
