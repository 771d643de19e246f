"""A ``selectors``-based single-threaded event loop for line protocols.

The cluster serve path (replicas and the router) runs on this reactor
instead of the thread-per-connection model of
:class:`~repro.service.server.ESDServer`: one thread multiplexes every
connection through :func:`selectors.DefaultSelector`, with explicit
per-connection read/write buffers.  That bounds the cost of a client to
one :class:`Channel` object rather than one OS thread, which is what
lets a replica hold thousands of idle watchers.

Concepts
--------
:class:`EventLoop`
    Owns the selector and the loop thread's run state.  ``listen()``
    adds an accepting socket, ``connect()`` adds an outbound channel
    (the router's backend links), ``add_timer()`` registers a callback
    run every tick (health checks, timeouts, idle sweeps), and
    ``call_soon()`` is the *only* thread-safe entry point -- it hands a
    callable to the loop thread via a wakeup pipe.

:class:`Channel`
    One connection: ``inbuf`` accumulates bytes until newlines complete
    requests, ``outbuf`` drains when the socket is writable (the
    selector only watches writability while there is something to
    write).  ``send_bytes`` and ``close`` must be called on the loop
    thread.

Back-pressure and hygiene: a line that exceeds ``max_line_bytes``
closes the connection (after an optional canned response) instead of
buffering without bound; an accepted connection whose ``outbuf`` holds
more than ``OUTBUF_LIMIT`` bytes is neither read nor dispatched until
its peer drains it below that again (outbound channels are exempt:
pausing both ends of a router-replica link could deadlock it);
accepted connections idle longer than their listener's
``idle_timeout`` are closed by the tick sweep.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Channel", "EventLoop", "Listener"]

#: Bytes read per readable event.
_RECV_CHUNK = 1 << 16

#: Reply bytes an accepted channel may queue before it stops reading:
#: a peer that pipelines requests but never reads is held to this much
#: server memory (plus one reply) instead of all its answers.
OUTBUF_LIMIT = 1 << 20

#: Callback invoked per complete request line: ``(channel, line)``.
LineHandler = Callable[["Channel", bytes], None]
#: Callback invoked once when a channel dies: ``(channel,)``.
CloseHandler = Callable[["Channel"], None]


class Channel:
    """One buffered connection owned by an :class:`EventLoop`."""

    __slots__ = (
        "sock", "addr", "on_line", "on_close", "inbuf", "outbuf",
        "last_activity", "closing", "closed", "idle_timeout", "attrs",
        "inbound", "_loop",
    )

    def __init__(
        self,
        loop: "EventLoop",
        sock: socket.socket,
        addr: Tuple[str, int],
        on_line: LineHandler,
        on_close: Optional[CloseHandler],
        idle_timeout: Optional[float],
        inbound: bool = False,
    ) -> None:
        self._loop = loop
        self.sock = sock
        self.addr = addr
        self.on_line = on_line
        self.on_close = on_close
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.last_activity = time.monotonic()
        self.closing = False  # flush outbuf, then close
        self.closed = False
        self.idle_timeout = idle_timeout
        #: Free-form per-connection state for the dispatch layer (the
        #: router keeps its read-your-writes version token here).
        self.attrs: Dict[str, Any] = {}
        #: Accepted (client) connection, as opposed to an outbound link.
        self.inbound = inbound

    @property
    def backlogged(self) -> bool:
        """Whether reading is paused until the peer drains ``outbuf``."""
        return self.inbound and len(self.outbuf) > OUTBUF_LIMIT

    def send_bytes(self, data: bytes) -> None:
        """Queue ``data`` for writing (loop thread only)."""
        if self.closed or self.closing:
            return
        was_empty = not self.outbuf
        self.outbuf += data
        if was_empty:
            self._loop._interest(self, write=True)

    def close(self, *, flush: bool = False) -> None:
        """Close now, or after ``outbuf`` drains when ``flush`` is set."""
        if self.closed:
            return
        if flush and self.outbuf:
            self.closing = True
        else:
            self._loop._close_channel(self)


class Listener:
    """An accepting socket plus the handlers its channels inherit."""

    __slots__ = ("sock", "on_line", "on_close", "idle_timeout", "address")

    def __init__(
        self,
        sock: socket.socket,
        on_line: LineHandler,
        on_close: Optional[CloseHandler],
        idle_timeout: Optional[float],
    ) -> None:
        self.sock = sock
        self.on_line = on_line
        self.on_close = on_close
        self.idle_timeout = idle_timeout
        self.address: Tuple[str, int] = sock.getsockname()[:2]


class EventLoop:
    """Single-threaded selector reactor (see module docstring)."""

    def __init__(
        self,
        *,
        tick_interval: float = 0.05,
        max_line_bytes: int = 1 << 20,
    ) -> None:
        self._selector = selectors.DefaultSelector()
        self._tick_interval = tick_interval
        self._max_line_bytes = max_line_bytes
        self._timers: List[Callable[[], None]] = []
        self._listeners: List[Listener] = []
        self._channels: List[Channel] = []
        self._stop = threading.Event()
        self._calls: List[Callable[[], None]] = []
        self._calls_lock = threading.Lock()
        # Wakeup pipe so call_soon()/stop() interrupt a sleeping select.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ, "wake")
        #: Canned bytes sent before closing an over-long-line offender
        #: (the dispatch layer sets a protocol error response here).
        self.overflow_response: Optional[bytes] = None
        self.stats = {
            "accepted": 0,
            "closed": 0,
            "idle_closed": 0,
            "overflow_closed": 0,
            "lines": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }

    # -- setup (loop thread or before run) ------------------------------------

    def listen(
        self,
        host: str,
        port: int,
        on_line: LineHandler,
        *,
        on_close: Optional[CloseHandler] = None,
        idle_timeout: Optional[float] = None,
        backlog: int = 128,
    ) -> Listener:
        """Bind and register an accepting socket; returns its listener."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(backlog)
        sock.setblocking(False)
        listener = Listener(sock, on_line, on_close, idle_timeout)
        self._selector.register(sock, selectors.EVENT_READ, listener)
        self._listeners.append(listener)
        return listener

    def connect(
        self,
        host: str,
        port: int,
        on_line: LineHandler,
        *,
        on_close: Optional[CloseHandler] = None,
        timeout: float = 1.0,
    ) -> Channel:
        """Open an outbound channel (router -> backend); raises ``OSError``.

        The connect itself is blocking-with-timeout (backends are
        LAN-local); the channel is non-blocking from then on.  Loop
        thread only.
        """
        sock = socket.create_connection((host, port), timeout=timeout)
        sock.setblocking(False)
        channel = Channel(self, sock, (host, port), on_line, on_close, None)
        self._selector.register(sock, selectors.EVENT_READ, channel)
        self._channels.append(channel)
        return channel

    def add_timer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` on every tick (loop thread)."""
        self._timers.append(callback)

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` on the loop thread (thread-safe)."""
        with self._calls_lock:
            self._calls.append(callback)
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass

    # -- run state -------------------------------------------------------------

    def stop(self) -> None:
        """Ask the loop to exit; safe from any thread, idempotent."""
        self._stop.set()
        try:
            self._wake_send.send(b"\x00")
        except OSError:
            pass

    def run(self) -> None:
        """Serve until :meth:`stop`; closes every socket on the way out."""
        next_tick = time.monotonic() + self._tick_interval
        try:
            while not self._stop.is_set():
                timeout = max(0.0, next_tick - time.monotonic())
                for key, events in self._selector.select(timeout):
                    data = key.data
                    if data == "wake":
                        self._drain_wakeups()
                    elif isinstance(data, Listener):
                        self._accept(data)
                    else:
                        self._service(data, events)
                self._run_calls()
                now = time.monotonic()
                if now >= next_tick:
                    next_tick = now + self._tick_interval
                    self._tick(now)
        finally:
            self._teardown()

    # -- internals -------------------------------------------------------------

    def _drain_wakeups(self) -> None:
        try:
            while self._wake_recv.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _run_calls(self) -> None:
        with self._calls_lock:
            calls, self._calls = self._calls, []
        for callback in calls:
            callback()

    def _tick(self, now: float) -> None:
        for timer in list(self._timers):
            timer()
        for channel in list(self._channels):
            if (
                channel.idle_timeout is not None
                and not channel.closed
                and now - channel.last_activity > channel.idle_timeout
            ):
                self.stats["idle_closed"] += 1
                self._close_channel(channel)

    def _accept(self, listener: Listener) -> None:
        try:
            sock, addr = listener.sock.accept()
        except OSError:
            return
        sock.setblocking(False)
        channel = Channel(
            self, sock, addr, listener.on_line, listener.on_close,
            listener.idle_timeout, inbound=True,
        )
        self._selector.register(sock, selectors.EVENT_READ, channel)
        self._channels.append(channel)
        self.stats["accepted"] += 1

    def _interest(self, channel: Channel, *, write: bool) -> None:
        if channel.closed:
            return
        events = 0 if channel.backlogged else selectors.EVENT_READ
        if write or channel.outbuf:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(channel.sock, events, channel)
        except (KeyError, ValueError, OSError):
            pass

    def _service(self, channel: Channel, events: int) -> None:
        if channel.closed:
            return
        if events & selectors.EVENT_READ:
            self._readable(channel)
        if not channel.closed and events & selectors.EVENT_WRITE:
            self._writable(channel)

    def _readable(self, channel: Channel) -> None:
        try:
            data = channel.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_channel(channel)
            return
        if not data:
            self._close_channel(channel)
            return
        channel.last_activity = time.monotonic()
        channel.inbuf += data
        self.stats["bytes_in"] += len(data)
        self._dispatch_lines(channel)
        if (
            not channel.closed
            and not channel.backlogged
            and len(channel.inbuf) > self._max_line_bytes
        ):
            # A "line" that big cannot be a legal request: answer with
            # the canned rejection (if any) and drop the connection
            # rather than buffering an unbounded stream.
            self.stats["overflow_closed"] += 1
            if self.overflow_response:
                channel.send_bytes(self.overflow_response)
                channel.close(flush=True)
            else:
                self._close_channel(channel)

    def _dispatch_lines(self, channel: Channel) -> None:
        """Hand each complete line in ``inbuf`` to the channel's handler.

        Stops early while the channel is backlogged; the lines left in
        ``inbuf`` are dispatched once :meth:`_writable` drains it.
        """
        while not channel.closed and not channel.closing:
            if channel.backlogged:
                self._interest(channel, write=True)  # stop reading
                return
            newline = channel.inbuf.find(b"\n")
            if newline < 0:
                return
            line = bytes(channel.inbuf[:newline]).strip()
            del channel.inbuf[: newline + 1]
            if not line:
                continue
            self.stats["lines"] += 1
            channel.on_line(channel, line)

    def _writable(self, channel: Channel) -> None:
        if channel.outbuf:
            backlogged = channel.backlogged
            try:
                sent = channel.sock.send(channel.outbuf)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self._close_channel(channel)
                return
            del channel.outbuf[:sent]
            self.stats["bytes_out"] += sent
            channel.last_activity = time.monotonic()
            if backlogged and not channel.backlogged:
                # Drained below the limit: run the lines held back, then
                # read again unless they filled outbuf once more.
                self._dispatch_lines(channel)
                if channel.closed:
                    return
                self._interest(channel, write=True)
        if not channel.outbuf:
            if channel.closing:
                self._close_channel(channel)
            else:
                self._interest(channel, write=False)

    def _close_channel(self, channel: Channel) -> None:
        if channel.closed:
            return
        channel.closed = True
        try:
            self._selector.unregister(channel.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            channel.sock.close()
        except OSError:
            pass
        try:
            self._channels.remove(channel)
        except ValueError:
            pass
        self.stats["closed"] += 1
        if channel.on_close is not None:
            channel.on_close(channel)

    def _teardown(self) -> None:
        for channel in list(self._channels):
            self._close_channel(channel)
        for listener in self._listeners:
            try:
                self._selector.unregister(listener.sock)
            except (KeyError, ValueError, OSError):
                pass
            try:
                listener.sock.close()
            except OSError:
                pass
        self._listeners.clear()
        try:
            self._selector.unregister(self._wake_recv)
        except (KeyError, ValueError, OSError):
            pass
        self._wake_recv.close()
        self._wake_send.close()
        self._selector.close()

    def snapshot(self) -> Dict[str, Any]:
        """Loop counters for the metrics registries (racy reads are fine)."""
        stats = dict(self.stats)
        stats["open_connections"] = len(self._channels)
        return stats
