"""Abstract async transport interfaces.

The asyncio runtime is written against these protocols so the same server
and client code runs over real TCP sockets (:mod:`repro.net.tcp`) and over
in-process pipes (:mod:`repro.net.memory`) in tests.  The simulator does
not use them — it has its own deterministic network model.

Connections are *dumb pipes*: they frame, flush, and preserve FIFO order,
nothing more.  Bounding, priority lanes, coalescing, and lag-kicks all
live one layer up in :mod:`repro.net.flowcontrol` (policy) and the hosts
that drain its outboxes (see ``docs/flow-control.md``), so every
transport gets the same flow-control behaviour for free.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Protocol, runtime_checkable

from repro.wire.messages import Message

__all__ = ["Connection", "PushConnection", "Listener", "Transport"]


@runtime_checkable
class Connection(Protocol):
    """One reliable, FIFO, message-framed duplex connection.

    The primitives are synchronous: :meth:`write_many` hands a batch to
    the transport and says whether it is congested, :meth:`drained`
    waits the congestion out.  ``send`` / ``send_many`` / ``receive`` are
    thin coroutines over them for pull-style callers (clients, tests);
    the host's flush calls the primitives directly.
    """

    @property
    def peer(self) -> str:
        """Human-readable identity of the other end."""
        ...

    def write_many(self, messages: Iterable[Message]) -> bool:
        """Write a batch of messages in order, without waiting.

        Returns True when the transport's own buffer is above its
        high-water mark afterwards: the caller must then write nothing
        more until :meth:`drained` returns (it keeps its frames in the
        bounded outbox meanwhile, so the transport never holds more than
        one batch above the mark).  Raises on a closed connection.

        Implementations gather-write the *cached* encoded frames
        (``repro.wire.frames.encoded_frame``) without copying; callers
        must therefore never mutate a message after handing it to the
        send path (guaranteed by frozen dataclasses — the
        no-mutation-after-cache invariant, ``docs/protocol.md`` §6).
        """
        ...

    async def drained(self) -> None:
        """Return once the transport is writable again (at once when it
        is not congested); raises if the connection was lost meanwhile."""
        ...

    async def send(self, message: Message) -> None:
        """``write_many`` of one message, then ``drained``."""
        ...

    async def send_many(self, messages: Iterable[Message]) -> None:
        """``write_many``, then ``drained``."""
        ...

    async def receive(self) -> Message | None:
        """Read the next message; ``None`` on orderly or failed close."""
        ...

    async def close(self) -> None:
        """Close the connection (idempotent)."""
        ...


class PushConnection(Connection, Protocol):
    """A connection that can hand inbound messages to a callback instead
    of being polled with ``receive``.  Optional: sockets accepted by
    :class:`repro.net.tcp.TcpListener` offer it, and a host finds out
    with ``hasattr(conn, "attach")``."""

    def attach(
        self,
        on_messages: Callable[[list[Message]], None],
        on_closed: Callable[[], None],
    ) -> None:
        """Switch to push mode.

        From now on every complete frame of a received chunk is decoded
        first and the whole list handed to *on_messages*; *on_closed* is
        called exactly once when the connection is gone (peer EOF, error,
        or local ``close``).  Messages that arrived before the call are
        delivered by it, and so is a close that already happened.  A
        frame that does not decode, or an exception out of *on_messages*,
        closes this one connection.  ``receive`` must not be used on an
        attached connection.
        """
        ...


class Listener(Protocol):
    """An open listening endpoint."""

    @property
    def address(self) -> Any:
        """The bound address (useful with ephemeral ports)."""
        ...

    async def accept(self) -> Connection:
        """Wait for and return the next inbound connection."""
        ...

    async def close(self) -> None:
        """Stop listening."""
        ...


class Transport(Protocol):
    """Factory for connections and listeners."""

    async def dial(self, address: Any) -> Connection:
        """Open a connection to *address*."""
        ...

    async def listen(self, address: Any) -> Listener:
        """Bind a listener at *address*."""
        ...
