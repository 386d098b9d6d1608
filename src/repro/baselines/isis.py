"""ISIS-like baseline: client-resident state, member-involving joins.

The paper's related-work critique (§2, §6): in ISIS-style systems "any
state associated with a group must be transferred to the joining client
from an existing client, which may occasionally fail.  Thus the time to
complete the join reflects the timeout for failure detection and making an
additional request to another client", and slow members slow the join.

This module implements that architecture as a comparable baseline:

* the server routes messages and tracks membership but holds **no state**;
* on join, the server picks an existing member as the **state donor** and
  relays a donation request; the joiner's state comes from that member;
* a donor that has crashed is only discovered by a failure-detection
  timeout, after which the next member is asked;
* an empty group joins immediately with empty state (there is nobody to
  ask — and nothing survives a null membership, the persistence gap
  Corona closes).

The cores reuse Corona's wire catalogue plus four baseline messages, so
the join-latency benchmark compares the two systems over the identical
simulated network and cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.clock import Clock
from repro.core.errors import (
    CoronaError,
    NoSuchGroupError,
    ProtocolError,
)
from repro.core.events import (
    NOTIFY_CONNECTED,
    NOTIFY_DELIVERY,
    NOTIFY_REPLY,
    CancelTimer,
    Notify,
    OpenConnection,
    ProtocolCore,
    StartTimer,
)
from repro.core.ids import ClientId, ConnId, GroupId
from repro.core.state import SharedState
from repro.wire import codec
from repro.wire.codec import register
from repro.wire.messages import (
    Ack,
    BcastUpdateRequest,
    CreateGroupRequest,
    Delivery,
    ErrorReply,
    Hello,
    HelloReply,
    Message,
    ObjectState,
    UpdateKind,
    UpdateRecord,
)

__all__ = [
    "DonateRequest",
    "DonateReply",
    "IsisJoinRequest",
    "IsisJoinReply",
    "IsisServerConfig",
    "IsisServerCore",
    "IsisClientConfig",
    "IsisClientCore",
    "DONATE_TIMER_PREFIX",
    "donate_timer",
]

#: Prefix of state-donation timeout timer keys (``donate-<donation_id>``).
DONATE_TIMER_PREFIX = "donate-"


def donate_timer(donation_id: int) -> str:
    """The timer key watching one outstanding state donation."""
    return f"{DONATE_TIMER_PREFIX}{donation_id}"


from dataclasses import dataclass as _dc


@register(200)
@_dc(frozen=True, slots=True)
class IsisJoinRequest(Message):
    """Client asks to join; the server must find a state donor."""

    request_id: int
    group: str


@register(201)
@_dc(frozen=True, slots=True)
class DonateRequest(Message):
    """Server asks an existing member to donate its group state."""

    donation_id: int
    group: str
    joiner: str


@register(202)
@_dc(frozen=True, slots=True)
class DonateReply(Message):
    """Member's state donation, relayed to the joiner."""

    donation_id: int
    group: str
    objects: tuple[ObjectState, ...]
    next_seqno: int


@register(203)
@_dc(frozen=True, slots=True)
class IsisJoinReply(Message):
    """Join completed; carries the donated state."""

    request_id: int
    group: str
    objects: tuple[ObjectState, ...]
    next_seqno: int


@dataclass
class IsisServerConfig:
    """Parameters of the stateless routing server."""

    server_id: str = "isis-1"
    #: How long a silent donor is given before being declared failed and
    #: the next member asked (the paper's join-latency culprit).
    failure_timeout: float = 5.0


@dataclass
class _PendingJoin:
    group: GroupId
    joiner: ClientId
    joiner_conn: ConnId
    request_id: int
    #: members not yet asked, in join order
    candidates: list[ClientId] = field(default_factory=list)
    current_donor: ClientId | None = None


class IsisServerCore(ProtocolCore):
    """Stateless router with member-involving joins."""

    def __init__(self, config: IsisServerConfig, clock: Clock) -> None:
        super().__init__()
        self.config = config
        self.clock = clock
        self.groups: dict[GroupId, list[ClientId]] = {}
        self.next_seqno: dict[GroupId, int] = {}
        self._conn_client: dict[ConnId, ClientId] = {}
        self._client_conn: dict[ClientId, ConnId] = {}
        self._joins: dict[int, _PendingJoin] = {}
        self._donation_ids = iter(range(1, 1 << 62))

    # -- plumbing -----------------------------------------------------------

    def _client_of(self, conn: ConnId) -> ClientId:
        client = self._conn_client.get(conn)
        if client is None:
            raise ProtocolError("request before Hello")
        return client

    def handle_message(self, conn: ConnId, message: Message) -> None:
        try:
            self._handle(conn, message)
        except CoronaError as err:
            request_id = getattr(message, "request_id", 0)
            self.send(conn, ErrorReply(request_id, err.code, str(err)))

    def _handle(self, conn: ConnId, message: Message) -> None:
        if isinstance(message, Hello):
            self._conn_client[conn] = message.client_id
            self._client_conn[message.client_id] = conn
            self.send(conn, HelloReply(server_id=self.config.server_id))
        elif isinstance(message, CreateGroupRequest):
            self._client_of(conn)
            self.groups.setdefault(message.group, [])
            self.next_seqno.setdefault(message.group, 0)
            self.send(conn, Ack(message.request_id))
        elif isinstance(message, IsisJoinRequest):
            self._on_join(conn, message)
        elif isinstance(message, DonateReply):
            self._on_donation(conn, message)
        elif isinstance(message, BcastUpdateRequest):
            self._on_bcast(conn, message)
        else:
            raise ProtocolError(f"unexpected {type(message).__name__}")

    # -- join via state donors ------------------------------------------------

    def _on_join(self, conn: ConnId, msg: IsisJoinRequest) -> None:
        joiner = self._client_of(conn)
        members = self.groups.get(msg.group)
        if members is None:
            raise NoSuchGroupError(f"no group named {msg.group!r}")
        if not members:
            # nobody to ask: empty state (and had the group's last member
            # crashed, any state would be gone — the Corona contrast)
            members.append(joiner)
            self.send(conn, IsisJoinReply(
                msg.request_id, msg.group, (), self.next_seqno[msg.group]
            ))
            return
        pending = _PendingJoin(
            group=msg.group,
            joiner=joiner,
            joiner_conn=conn,
            request_id=msg.request_id,
            candidates=list(members),
        )
        donation_id = next(self._donation_ids)
        self._joins[donation_id] = pending
        self._ask_next_donor(donation_id)

    def _ask_next_donor(self, donation_id: int) -> None:
        pending = self._joins[donation_id]
        while pending.candidates:
            donor = pending.candidates.pop(0)
            donor_conn = self._client_conn.get(donor)
            if donor_conn is None:
                continue  # already known dead; skip without waiting
            pending.current_donor = donor
            self.send(donor_conn, DonateRequest(donation_id, pending.group, pending.joiner))
            self.emit(StartTimer(donate_timer(donation_id), self.config.failure_timeout))
            return
        # everyone failed us: join completes with empty state
        del self._joins[donation_id]
        self.groups[pending.group].append(pending.joiner)
        self.send(pending.joiner_conn, IsisJoinReply(
            pending.request_id, pending.group, (), self.next_seqno[pending.group]
        ))

    def _on_donation(self, conn: ConnId, msg: DonateReply) -> None:
        pending = self._joins.pop(msg.donation_id, None)
        if pending is None:
            return  # a timed-out donor answering late
        self.emit(CancelTimer(donate_timer(msg.donation_id)))
        self.groups[pending.group].append(pending.joiner)
        self.send(pending.joiner_conn, IsisJoinReply(
            pending.request_id, pending.group, msg.objects, msg.next_seqno
        ))

    def handle_timer(self, key: str) -> None:
        if not key.startswith(DONATE_TIMER_PREFIX):
            return
        donation_id = int(key.split("-", 1)[1])
        if donation_id in self._joins:
            # donor declared failed after the detection timeout; ask the
            # next member (paper §2: "an additional request to another
            # client")
            self._ask_next_donor(donation_id)

    # -- multicast -----------------------------------------------------------

    def _on_bcast(self, conn: ConnId, msg: BcastUpdateRequest) -> None:
        sender = self._client_of(conn)
        members = self.groups.get(msg.group)
        if members is None:
            raise NoSuchGroupError(f"no group named {msg.group!r}")
        seqno = self.next_seqno[msg.group]
        self.next_seqno[msg.group] = seqno + 1
        record = UpdateRecord(
            seqno, UpdateKind.UPDATE, msg.object_id, msg.data, sender,
            self.clock.now(),
        )
        delivery = Delivery(msg.group, record)
        for member in members:
            member_conn = self._client_conn.get(member)
            if member_conn is not None:
                self.send(member_conn, delivery)
        self.send(conn, Ack(msg.request_id))

    # -- failures -----------------------------------------------------------

    def handle_closed(self, conn: ConnId) -> None:
        client = self._conn_client.pop(conn, None)
        if client is None:
            return
        if self._client_conn.get(client) == conn:
            del self._client_conn[client]
        for members in self.groups.values():
            if client in members:
                members.remove(client)
        # note: a pending donation from this client is NOT cancelled here;
        # like the TCP-era ISIS deployments the paper describes, the
        # joiner pays the full failure-detection timeout.


@dataclass
class IsisClientConfig:
    """Parameters of one baseline client."""

    client_id: str
    #: Artificial busy-time before answering a donation request — the
    #: "slow member" of the paper's critique.  None answers immediately.
    donate_delay: float | None = None
    #: A client that never answers donations (crashed-but-undetected).
    donate_never: bool = False


class IsisClientCore(ProtocolCore):
    """Baseline client: holds the group state itself."""

    def __init__(self, config: IsisClientConfig, clock: Clock) -> None:
        super().__init__()
        self.config = config
        self.clock = clock
        self.states: dict[GroupId, SharedState] = {}
        self.connected = False
        self._conn: ConnId | None = None
        self._request_ids = iter(range(1, 1 << 62))
        self._held_donations: dict[int, DonateRequest] = {}

    # -- connection -----------------------------------------------------------

    def connect(self, address: Any) -> None:
        self.emit(OpenConnection(address, key="server"))

    def handle_connected(self, conn: ConnId, peer: Any, key: str) -> None:
        if key == "server":
            self._conn = conn
            self.send(conn, Hello(client_id=self.config.client_id))

    # -- requests -----------------------------------------------------------

    def create_group(self, group: GroupId) -> int:
        request_id = next(self._request_ids)
        self.send(self._require_conn(), CreateGroupRequest(request_id, group))
        return request_id

    def join_group(self, group: GroupId) -> int:
        request_id = next(self._request_ids)
        self.send(self._require_conn(), IsisJoinRequest(request_id, group))
        return request_id

    def bcast_update(self, group: GroupId, object_id: str, data: bytes) -> int:
        request_id = next(self._request_ids)
        self.send(
            self._require_conn(),
            BcastUpdateRequest(request_id, group, object_id, data),
        )
        return request_id

    def _require_conn(self) -> ConnId:
        if self._conn is None:
            raise ProtocolError("not connected")
        return self._conn

    # -- inbound -----------------------------------------------------------

    def handle_message(self, conn: ConnId, message: Message) -> None:
        if isinstance(message, HelloReply):
            self.connected = True
            self.emit(Notify(NOTIFY_CONNECTED, message.server_id))
        elif isinstance(message, IsisJoinReply):
            state = SharedState(message.objects)
            self.states[message.group] = state
            self.emit(Notify(NOTIFY_REPLY, message))
        elif isinstance(message, Ack) or isinstance(message, ErrorReply):
            self.emit(Notify(NOTIFY_REPLY, message))
        elif isinstance(message, Delivery):
            state = self.states.get(message.group)
            if state is not None:
                state.apply(message.update)
            self.emit(Notify(NOTIFY_DELIVERY, message))
        elif isinstance(message, DonateRequest):
            self._on_donate_request(conn, message)

    def _on_donate_request(self, conn: ConnId, msg: DonateRequest) -> None:
        if self.config.donate_never:
            return  # simulates a hung/crashed member
        if self.config.donate_delay:
            self._held_donations[msg.donation_id] = msg
            self.emit(StartTimer(donate_timer(msg.donation_id), self.config.donate_delay))
            return
        self._donate(conn, msg)

    def handle_timer(self, key: str) -> None:
        if key.startswith(DONATE_TIMER_PREFIX) and self._conn is not None:
            donation_id = int(key.split("-", 1)[1])
            msg = self._held_donations.pop(donation_id, None)
            if msg is not None:
                self._donate(self._conn, msg)

    def _donate(self, conn: ConnId, msg: DonateRequest) -> None:
        state = self.states.get(msg.group)
        objects = state.materialize_all() if state is not None else ()
        self.send(conn, DonateReply(msg.donation_id, msg.group, objects, 0))
