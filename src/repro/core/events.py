"""Events and effects — the sans-io boundary of every protocol core.

A *core* (server, client, coordinator, replica) is a deterministic state
machine.  The host — real asyncio runtime or discrete-event simulator —
feeds it input events by calling ``on_connected`` / ``on_message`` /
``on_timer`` / ``on_closed``, and the core returns a list of
:class:`Effect` values describing what the host must do.  Cores perform no
I/O themselves, which is what lets the same protocol code run over real TCP
and under deterministic simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.ids import ConnId, GroupId

if TYPE_CHECKING:
    from repro.wire.messages import Message

__all__ = [
    "Effect",
    "SendMessage",
    "SendFanout",
    "SendMulticast",
    "StartTimer",
    "CancelTimer",
    "OpenConnection",
    "CloseConnection",
    "CreateGroupStorage",
    "PurgeGroupStorage",
    "AppendWal",
    "WriteCheckpoint",
    "TruncateWal",
    "Notify",
    "ShutDown",
    "ProtocolCore",
    "NOTIFY_CONNECTED",
    "NOTIFY_DISCONNECTED",
    "NOTIFY_RECONNECT_FAILED",
    "NOTIFY_ERROR",
    "NOTIFY_REPLY",
    "NOTIFY_DELIVERY",
    "NOTIFY_MEMBERSHIP",
    "NOTIFY_GROUP_DELETED",
    "NOTIFY_REJOINED",
    "NOTIFY_REBASED",
    "NOTIFY_FORKED",
    "NOTIFY_KICKED",
    "NOTIFY_TRANSFER_PROGRESS",
]

# Well-known ``Notify.kind`` tags.  Cores, hosts, and tests share these
# constants instead of re-spelling the strings (a typo in a free-form tag
# silently drops the notification on the handler's floor).
NOTIFY_CONNECTED = "connected"
NOTIFY_DISCONNECTED = "disconnected"
NOTIFY_RECONNECT_FAILED = "reconnect_failed"
NOTIFY_ERROR = "error"
NOTIFY_REPLY = "reply"
NOTIFY_DELIVERY = "delivery"
NOTIFY_MEMBERSHIP = "membership"
NOTIFY_GROUP_DELETED = "group_deleted"
NOTIFY_REJOINED = "rejoined"
NOTIFY_REBASED = "rebased"
NOTIFY_FORKED = "forked"
NOTIFY_KICKED = "kicked"
NOTIFY_TRANSFER_PROGRESS = "transfer_progress"


@dataclass(frozen=True)
class Effect:
    """Base class for everything a core asks its host to do."""


@dataclass(frozen=True)
class SendMessage(Effect):
    """Write *message* to the connection identified by *conn*."""

    conn: ConnId
    message: "Message"


@dataclass(frozen=True)
class SendFanout(Effect):
    """Write one *message* to each of *conns*, in order: a group fan-out.

    One effect however many recipients — the interpreter dispatches it
    once and the host expands it (:meth:`EffectBackend.deliver_fanout`),
    sizing and classifying the shared frame once.  Every recipient still
    gets its own point-to-point copy; :class:`SendMulticast` is the one
    where the medium carries a single copy.
    """

    conns: tuple[ConnId, ...]
    message: "Message"


@dataclass(frozen=True)
class SendMulticast(Effect):
    """Deliver one message to many connections at once.

    The IP-multicast optimization of paper §5.3: the sender serializes
    the message once and the network carries one copy per segment instead
    of one per receiver.  Hosts without multicast support (the TCP-only
    asyncio runtime) degrade to a unicast loop, which is exactly the
    paper's "IP-multicast whenever possible, point-to-point otherwise".
    """

    conns: tuple[ConnId, ...]
    message: "Message"


@dataclass(frozen=True)
class StartTimer(Effect):
    """Arm (or re-arm) the timer named *key* to fire after *delay* seconds."""

    key: str
    delay: float


@dataclass(frozen=True)
class CancelTimer(Effect):
    """Disarm the timer named *key* (a no-op if it is not armed)."""

    key: str


@dataclass(frozen=True)
class OpenConnection(Effect):
    """Dial *address*; the host replies with ``on_connected(conn, key=key)``.

    *address* is opaque to the core — the asyncio host treats it as
    ``(host, port)``, the simulator as a simulated host id.
    """

    address: Any
    key: str


@dataclass(frozen=True)
class CloseConnection(Effect):
    """Close the connection identified by *conn*."""

    conn: ConnId


@dataclass(frozen=True)
class CreateGroupStorage(Effect):
    """Create on-disk structures for *group* with encoded metadata."""

    group: GroupId
    meta: bytes


@dataclass(frozen=True)
class PurgeGroupStorage(Effect):
    """Remove *group* and all its state from stable storage."""

    group: GroupId


@dataclass(frozen=True)
class AppendWal(Effect):
    """Append *record* (encoded bytes) to the write-ahead log of *group*.

    Logging is deliberately an effect rather than a direct call: the paper's
    central performance claim is that state logging happens *off the
    critical path*, in parallel with multicast delivery.  Hosts execute this
    effect asynchronously unless configured for synchronous durability.
    """

    group: GroupId
    seqno: int
    record: bytes


@dataclass(frozen=True)
class WriteCheckpoint(Effect):
    """Persist a checkpoint (reduced state) for *group*."""

    group: GroupId
    seqno: int
    snapshot: bytes


@dataclass(frozen=True)
class TruncateWal(Effect):
    """Discard WAL records of *group* at or below *seqno* (post-checkpoint)."""

    group: GroupId
    seqno: int


@dataclass(frozen=True)
class Notify(Effect):
    """Deliver an application-level event (client cores only).

    *kind* is a short tag such as ``"update"``, ``"membership"``,
    ``"joined"``; *payload* is the corresponding event object.
    """

    kind: str
    payload: Any


@dataclass(frozen=True)
class ShutDown(Effect):
    """The core has stopped; the host should release its resources."""

    reason: str = ""


@dataclass
class _EffectBuffer:
    """Collects effects during the handling of one input event."""

    effects: list[Effect] = field(default_factory=list)

    def emit(self, effect: Effect) -> None:
        self.effects.append(effect)

    def drain(self) -> list[Effect]:
        out, self.effects = self.effects, []
        return out


class ProtocolCore:
    """Base class for sans-io protocol cores.

    Subclasses implement ``handle_*`` methods that call :meth:`emit`; the
    public ``on_*`` entry points wrap them so each input event atomically
    yields its list of effects.
    """

    def __init__(self) -> None:
        self._buffer = _EffectBuffer()

    # -- emission helpers -------------------------------------------------

    def emit(self, effect: Effect) -> None:
        """Queue *effect* for the host (valid only inside a handler)."""
        self._buffer.emit(effect)

    def send(self, conn: ConnId, message: "Message") -> None:
        """Shorthand for ``emit(SendMessage(conn, message))``."""
        self.emit(SendMessage(conn, message))

    def drain(self) -> list[Effect]:
        """Collect effects emitted outside an ``on_*`` entry point.

        Hosts call this after invoking a request method directly on the
        core (the way workload drivers and the client API issue requests).
        """
        return self._buffer.drain()

    # -- host entry points -------------------------------------------------

    def on_connected(self, conn: ConnId, peer: Any = None, key: str = "") -> list[Effect]:
        """A connection opened (inbound, or the result of OpenConnection)."""
        self.handle_connected(conn, peer, key)
        return self._buffer.drain()

    def on_message(self, conn: ConnId, message: "Message") -> list[Effect]:
        """A decoded message arrived on *conn*."""
        self.handle_message(conn, message)
        return self._buffer.drain()

    def on_timer(self, key: str) -> list[Effect]:
        """The timer named *key* fired."""
        self.handle_timer(key)
        return self._buffer.drain()

    def on_closed(self, conn: ConnId) -> list[Effect]:
        """The connection *conn* closed (peer failure, by fail-stop model)."""
        self.handle_closed(conn)
        return self._buffer.drain()

    # -- handlers to override ----------------------------------------------

    def handle_connected(self, conn: ConnId, peer: Any, key: str) -> None:
        """Override to react to new connections (default: ignore)."""

    def handle_message(self, conn: ConnId, message: "Message") -> None:
        """Override to process protocol messages (default: ignore)."""

    def handle_timer(self, key: str) -> None:
        """Override to react to timer expiry (default: ignore)."""

    def handle_closed(self, conn: ConnId) -> None:
        """Override to react to connection loss (default: ignore)."""
