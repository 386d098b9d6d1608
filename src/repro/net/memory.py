"""In-memory transport: asyncio queues instead of sockets.

Used by the runtime test suite so client/server integration runs without
binding ports.  Messages still pass through the real codec + framing, so
wire bugs cannot hide.
"""

from __future__ import annotations

import asyncio
from typing import Any, Iterable

from repro.core.errors import NotConnectedError
from repro.wire import codec
from repro.wire.frames import encoded_frame
from repro.wire.messages import Message

__all__ = ["MemoryConnection", "MemoryListener", "MemoryNetwork"]

_EOF = object()


class MemoryConnection:
    """One end of an in-memory duplex pipe."""

    def __init__(self, peer_name: str) -> None:
        self._peer_name = peer_name
        self._rx: asyncio.Queue[Any] = asyncio.Queue()
        self._other: MemoryConnection | None = None
        self._closed = False

    @staticmethod
    def pair(name_a: str = "a", name_b: str = "b") -> tuple["MemoryConnection", "MemoryConnection"]:
        a, b = MemoryConnection(name_b), MemoryConnection(name_a)
        a._other, b._other = b, a
        return a, b

    @property
    def peer(self) -> str:
        return self._peer_name

    def write_many(self, messages: Iterable[Message]) -> bool:
        """Hand each message's cached payload to the peer's queue.

        The encode/decode round-trip keeps the wire format honest; going
        through the frame cache also enforces MAX_FRAME_SIZE, so this
        transport rejects oversized messages exactly like TCP does.
        Handing the cached payload bytes across is already zero-copy —
        safe for the same reason as TCP's writelines path: cached frames
        are immutable (no-mutation-after-cache, docs/protocol.md §6).

        Never congested: the ``_rx`` queue models the peer's kernel socket
        buffer — it is transport-internal and deliberately unbounded;
        *application* backpressure lives in :mod:`repro.net.flowcontrol`,
        upstream of any transport.
        """
        if self._closed or self._other is None:
            raise NotConnectedError("connection is closed")
        for message in messages:
            self._other._rx.put_nowait(encoded_frame(message).payload)
        return False

    async def drained(self) -> None:
        """Nothing to wait for (see :meth:`write_many`)."""

    async def send(self, message: Message) -> None:
        self.write_many((message,))

    async def send_many(self, messages: Iterable[Message]) -> None:
        self.write_many(messages)

    async def receive(self) -> Message | None:
        if self._closed:
            return None
        data = await self._rx.get()
        if data is _EOF:
            self._closed = True
            return None
        return codec.decode(data)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._other is not None and not self._other._closed:
            self._other._rx.put_nowait(_EOF)


class MemoryListener:
    """Accepts dials addressed to one name within a MemoryNetwork."""

    def __init__(self, address: Any) -> None:
        self._address = address
        self._pending: asyncio.Queue[MemoryConnection] = asyncio.Queue()
        self._closed = False

    @property
    def address(self) -> Any:
        return self._address

    async def accept(self) -> MemoryConnection:
        return await self._pending.get()

    async def close(self) -> None:
        self._closed = True


class MemoryNetwork:
    """Transport whose addresses are plain names in a shared registry."""

    def __init__(self) -> None:
        self._listeners: dict[Any, MemoryListener] = {}

    async def dial(self, address: Any) -> MemoryConnection:
        address = self._key(address)
        listener = self._listeners.get(address)
        if listener is None or listener._closed:
            raise ConnectionRefusedError(f"nobody listening at {address!r}")
        dial_end, accept_end = MemoryConnection.pair(
            name_a="dialer", name_b=str(address)
        )
        listener._pending.put_nowait(accept_end)
        return dial_end

    async def listen(self, address: Any) -> MemoryListener:
        address = self._key(address)
        if address in self._listeners and not self._listeners[address]._closed:
            raise OSError(f"address {address!r} already in use")
        listener = MemoryListener(address)
        self._listeners[address] = listener
        return listener

    @staticmethod
    def _key(address: Any) -> Any:
        return tuple(address) if isinstance(address, list) else address
