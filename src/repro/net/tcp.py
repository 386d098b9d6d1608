"""TCP transport: asyncio sockets + wire framing.

This is the production transport, matching the evaluated Corona
implementation's use of point-to-point TCP connections (paper §5.1).
Addresses are ``(host, port)`` tuples.

Two connection classes:

* :class:`TcpConnection` wraps the ``(reader, writer)`` stream pair that
  ``dial`` opens and is read with ``receive()``.
* :class:`AcceptedTcpConnection` is the ``asyncio.Protocol`` of a socket
  accepted by :class:`TcpListener`.  The loop calls ``data_received``
  with each chunk, and once a host has ``attach``-ed its sink every
  complete frame of the chunk is decoded and handed over right there —
  no stream buffer, future or reader task in between.  Until then it
  buffers for ``receive()`` like the dialled side.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Any, Callable, Iterable

from repro.core.errors import NotConnectedError
from repro.wire.frames import encoded_frame
from repro.wire.framing import FrameDecoder
from repro.wire.messages import Message

__all__ = ["TcpConnection", "AcceptedTcpConnection", "TcpListener", "TcpTransport"]

logger = logging.getLogger("repro.net")

_READ_CHUNK = 64 * 1024

#: Decoded messages an unattached accepted connection holds for
#: ``receive()`` before it stops reading the socket.
_MAX_INBOX = 1024


class _TcpFrames:
    """What both connection classes share: the write half."""

    _transport: asyncio.Transport
    #: The transport's high-water mark, read once when it is known.
    _high_water: int
    #: ``close()`` was called or the connection is lost.
    _closed = False

    @property
    def peer(self) -> str:
        peername = self._transport.get_extra_info("peername")
        return f"{peername[0]}:{peername[1]}" if peername else "<closed>"

    def write_many(self, messages: Iterable[Message]) -> bool:
        """Gather-write the cached frame bytes with ``writelines`` — the
        frame cache's own ``bytes`` objects, no per-write copy or view.
        Safe because cached frames are immutable (no-mutation-after-cache,
        ``docs/protocol.md`` §6); the batch goes out in order, so
        per-connection FIFO order is preserved.  True when that left the
        transport above its high-water mark — exactly when it calls the
        protocol's ``pause_writing``."""
        if self._closed:
            raise NotConnectedError("connection is closed")
        batch = [encoded_frame(m) for m in messages]
        if len(batch) == 1:
            # before 3.12 writelines() joins its argument into a copy: a
            # lone frame (a paced delivery, a 256 KiB snapshot) skips it
            self._transport.write(batch[0])
        else:
            self._transport.writelines(batch)
        return self._transport.get_write_buffer_size() > self._high_water

    def abort(self) -> None:
        """Close at once, discarding what the transport still buffers
        (``close`` waits for a peer that may never read it)."""
        self._closed = True
        self._transport.abort()

    async def send(self, message: Message) -> None:
        self.write_many((message,))
        await self.drained()

    async def send_many(self, messages: Iterable[Message]) -> None:
        self.write_many(messages)
        await self.drained()


class TcpConnection(_TcpFrames):
    """One framed message stream over a dialled TCP socket."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._transport = writer.transport
        self._high_water = writer.transport.get_write_buffer_limits()[1]
        self._decoder = FrameDecoder()
        self._inbox: deque[Message] = deque()

    async def drained(self) -> None:
        await self._writer.drain()

    async def receive(self) -> Message | None:
        while not self._inbox:
            if self._closed:
                return None
            try:
                chunk = await self._reader.read(_READ_CHUNK)
            except (ConnectionError, asyncio.IncompleteReadError):
                chunk = b""
            if not chunk:
                await self.close()
                return None
            self._inbox.extend(self._decoder.feed(chunk))
        return self._inbox.popleft()

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class AcceptedTcpConnection(_TcpFrames, asyncio.Protocol):
    """One framed message stream over an accepted TCP socket; the
    socket's ``asyncio.Protocol`` and its ``Connection`` in one object."""

    def __init__(self, accepted: asyncio.Queue[AcceptedTcpConnection]) -> None:
        self._accepted = accepted
        self._decoder = FrameDecoder()
        self._inbox: deque[Message] = deque()
        self._sink: Callable[[list[Message]], None] = self._buffer
        self._on_closed: Callable[[], None] | None = None
        self._readable = asyncio.Event()
        #: Cleared between ``pause_writing`` and ``resume_writing``.
        self._writable = asyncio.Event()
        self._writable.set()
        self._lost = asyncio.Event()

    # -- asyncio.Protocol: called by the loop -----------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]
        self._high_water = self._transport.get_write_buffer_limits()[1]
        self._accepted.put_nowait(self)

    def data_received(self, chunk: bytes) -> None:
        try:
            messages = self._decoder.feed(chunk)
        except Exception:
            logger.exception("undecodable frame from %s; closing it", self.peer)
            self._shut()
            return
        self._deliver(messages)

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def connection_lost(self, exc: Exception | None) -> None:
        self._closed = True
        for event in (self._lost, self._writable, self._readable):
            event.set()
        if self._on_closed is not None:
            self._on_closed()

    # -- Connection --------------------------------------------------------

    def attach(
        self,
        on_messages: Callable[[list[Message]], None],
        on_closed: Callable[[], None],
    ) -> None:
        self._sink, self._on_closed = on_messages, on_closed
        if self._inbox:
            backlog = list(self._inbox)
            self._inbox.clear()
            self._transport.resume_reading()
            self._deliver(backlog)
        if self._lost.is_set():
            on_closed()

    async def drained(self) -> None:
        await self._writable.wait()
        if self._lost.is_set():
            raise ConnectionResetError("connection lost")

    async def receive(self) -> Message | None:
        while not self._inbox:
            if self._lost.is_set():
                return None
            self._transport.resume_reading()
            self._readable.clear()
            await self._readable.wait()
        return self._inbox.popleft()

    async def close(self) -> None:
        self._shut()
        await self._lost.wait()

    # -- internals ---------------------------------------------------------

    def _deliver(self, messages: list[Message]) -> None:
        try:
            self._sink(messages)
        except Exception:
            logger.exception("dispatch for %s failed; closing it", self.peer)
            self._shut()

    def _buffer(self, messages: list[Message]) -> None:
        """The sink until a host attaches its own: queue for ``receive``."""
        self._inbox.extend(messages)
        if len(self._inbox) > _MAX_INBOX:
            self._transport.pause_reading()
        self._readable.set()

    def _shut(self) -> None:
        if not self._closed:
            self._closed = True
            self._transport.close()


class TcpListener:
    """Accept loop over ``loop.create_server``."""

    def __init__(self) -> None:
        self._server: asyncio.Server | None = None
        self._pending: asyncio.Queue[AcceptedTcpConnection] = asyncio.Queue()

    async def _bind(self, host: str, port: int) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: AcceptedTcpConnection(self._pending), host, port
        )

    @property
    def address(self) -> Any:
        assert self._server is not None
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    async def accept(self) -> AcceptedTcpConnection:
        return await self._pending.get()

    async def close(self) -> None:
        if self._server is not None:
            # the listening socket closes right here; wait_closed() would
            # (since Python 3.12) also wait for every accepted connection,
            # and those outlive their listener
            self._server.close()


class TcpTransport:
    """Transport over real TCP sockets; addresses are (host, port)."""

    async def dial(self, address: Any) -> TcpConnection:
        host, port = address
        reader, writer = await asyncio.open_connection(host, port)
        return TcpConnection(reader, writer)

    async def listen(self, address: Any) -> TcpListener:
        host, port = address
        listener = TcpListener()
        await listener._bind(host, port)
        return listener
