"""The Corona client core: requests, replies, and local state replicas.

A client connects to one Corona server, identifies itself with ``Hello``,
and then issues the service requests of §3.2.  The core:

* correlates replies to requests via ``request_id`` and enforces a
  per-request timeout;
* maintains a local replica (:class:`GroupView`) of each joined group's
  shared state, applying the join snapshot and every subsequent sequenced
  delivery, and asserting the per-sender FIFO guarantee;
* surfaces everything to the application as ``Notify`` effects, which the
  asyncio runtime turns into awaitables/callbacks and the simulator into
  recorded events.

Sender-exclusive deliveries: when this client broadcasts with
``DeliveryMode.EXCLUSIVE`` the server does not echo the message back, so
the client's replica would miss that sequence number.  The core keeps the
payloads of in-flight exclusive broadcasts and splices each one into the
replica when the gap it left becomes visible — sound because the sequencer
preserves per-sender FIFO order.  Until a later delivery reveals the gap,
the replica intentionally lags (the client cannot know its own seqno).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.clock import Clock
from repro.core.errors import (
    CoronaError,
    NotAMemberError,
    NotConnectedError,
    ProtocolError,
    RequestTimeoutError,
    error_from_code,
)
from repro.core.events import (
    NOTIFY_CONNECTED,
    NOTIFY_DELIVERY,
    NOTIFY_DISCONNECTED,
    NOTIFY_ERROR,
    NOTIFY_FORKED,
    NOTIFY_GROUP_DELETED,
    NOTIFY_KICKED,
    NOTIFY_MEMBERSHIP,
    NOTIFY_REBASED,
    NOTIFY_RECONNECT_FAILED,
    NOTIFY_REJOINED,
    NOTIFY_REPLY,
    NOTIFY_TRANSFER_PROGRESS,
    CancelTimer,
    Notify,
    OpenConnection,
    ProtocolCore,
    StartTimer,
)
from repro.core.ids import ConnId, GroupId, RequestId, SeqNo
from repro.core.ordering import FifoChecker
from repro.core.state import SharedState
from repro.wire import codec
from repro.wire.messages import (
    SNAP_CHUNKED,
    SNAP_DELTA,
    Ack,
    AcquireLockRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    ChunkAck,
    CreateGroupRequest,
    DeleteGroupRequest,
    Delivery,
    DeliveryMode,
    Disconnect,
    ErrorReply,
    ForkNotice,
    GetMembershipRequest,
    GroupDeletedNotice,
    GroupListReply,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    LeaveGroupRequest,
    ListGroupsRequest,
    LockGranted,
    MemberInfo,
    MemberRole,
    MembershipNotice,
    MembershipReply,
    Message,
    ObjectState,
    PingReply,
    PingRequest,
    RebaseNotice,
    ReduceLogRequest,
    ReleaseLockRequest,
    StateChunk,
    StateSnapshot,
    TransferPolicy,
    TransferResume,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)

__all__ = [
    "ClientConfig",
    "ClientCore",
    "GroupView",
    "ReplyEvent",
    "DeliveryEvent",
    "TransferProgress",
    "TIMER_RECONNECT",
    "REQUEST_TIMER_PREFIX",
    "request_timer",
]

#: Timer key for the auto-reconnect backoff timer.
TIMER_RECONNECT = "reconnect"
#: Prefix of per-request timeout timer keys (``req-<request_id>``).
REQUEST_TIMER_PREFIX = "req-"


def request_timer(request_id: RequestId) -> str:
    """The timeout-timer key for one in-flight request."""
    return f"{REQUEST_TIMER_PREFIX}{request_id}"


@dataclass
class ClientConfig:
    """Behavioural knobs of one Corona client."""

    client_id: str
    request_timeout: float = 10.0
    #: Shared-secret token presented in the Hello handshake (only needed
    #: when the service runs a TokenAuthenticator).
    token: str = ""
    #: Automatically redial and rejoin after a connection loss (the
    #: client/link-failure tolerance of the paper's companion work [15]).
    auto_reconnect: bool = False
    #: Initial redial delay; doubles per consecutive failure up to the max.
    reconnect_backoff: float = 0.5
    reconnect_backoff_max: float = 15.0
    #: Alternative server addresses tried round-robin when reconnecting —
    #: in a replicated deployment any server can serve the client.
    fallback_addresses: tuple = ()


@dataclass(frozen=True)
class ReplyEvent:
    """Outcome of one request, surfaced via ``Notify('reply', ...)``."""

    request_id: RequestId
    kind: str
    ok: bool
    value: Any = None
    error: CoronaError | None = None


@dataclass(frozen=True)
class DeliveryEvent:
    """One sequenced multicast, surfaced via ``Notify('delivery', ...)``."""

    group: GroupId
    record: UpdateRecord


@dataclass(frozen=True)
class TransferProgress:
    """Chunked-transfer progress, surfaced via
    ``Notify('transfer_progress', ...)`` after every reassembled chunk."""

    group: GroupId
    received_bytes: int
    total_bytes: int


@dataclass
class _IncomingTransfer:
    """Client-side reassembly state of one chunked join transfer.

    Lives from the ``SNAP_CHUNKED`` marker :class:`JoinReply` until the
    final chunk decodes (or the transfer is abandoned).  Survives a
    connection loss so the client can ``TransferResume`` from
    ``received_bytes`` — the first byte it does not have — instead of
    restarting.

    Chunks are kept as received and joined once at the end: one copy of
    the payload, and no allocation sized by the server's ``total_bytes``.
    """

    group: GroupId
    marker: StateSnapshot
    #: The app-facing join/rejoin request this transfer will complete.
    request_id: RequestId
    kind: str  # "join" or "rejoin"
    role: MemberRole
    notify_membership: bool
    spec: TransferSpec
    members: tuple[MemberInfo, ...] = ()
    #: Learned from the first chunk (the marker does not carry them).
    transfer_id: int = -1
    total_bytes: int = 0
    chunks: list[bytes] = field(default_factory=list)
    received_bytes: int = 0
    #: Live deliveries that arrived during the transfer — already
    #: surfaced to the application via ``NOTIFY_DELIVERY`` — replayed
    #: into the replica once the final chunk decodes.
    buffered: list[tuple[UpdateRecord, tuple[SeqNo, ...]]] = field(
        default_factory=list
    )
    #: In-flight ``TransferResume`` handshake, when one is pending.
    resume_request_id: RequestId = 0

    @property
    def have_seqno(self) -> SeqNo:
        """Newest seqno this client holds for the group (for resume)."""
        if self.buffered:
            return self.buffered[-1][0].seqno
        return self.marker.next_seqno - 1


@dataclass
class GroupView:
    """Client-side replica of one joined group."""

    name: GroupId
    state: SharedState = field(default_factory=SharedState)
    next_seqno: SeqNo = 0
    members: tuple[MemberInfo, ...] = ()
    fifo: FifoChecker = field(default_factory=FifoChecker)
    #: Parameters of the original join, reused for automatic rejoins.
    role: MemberRole = MemberRole.PRINCIPAL
    notify_membership: bool = False
    #: Payloads of our own in-flight sender-exclusive broadcasts, oldest
    #: first, spliced in when their sequence-number gap becomes visible.
    pending_exclusive: deque[tuple[UpdateKind, str, bytes]] = field(default_factory=deque)

    def apply_snapshot(self, snapshot: StateSnapshot) -> None:
        self.state = SharedState(snapshot.objects, base_seqno=snapshot.base_seqno)
        for record in snapshot.updates:
            self.state.apply(record)
        self.next_seqno = snapshot.next_seqno

    def resync(self, snapshot: StateSnapshot) -> None:
        """Merge a reconnection snapshot into the existing replica.

        When the snapshot is the exact suffix after what we already have
        (a ``SINCE_SEQNO`` transfer), its updates are applied
        incrementally; a ``SNAP_DELTA`` snapshot is an overlay — the
        shipped objects replace ours wholesale, everything else is
        untouched-since-our-seqno and therefore already byte-identical;
        anything else (forced FULL — a reduction happened and no delta
        was allowed, or we fell too far behind) replaces the replica
        wholesale.
        """
        if snapshot.flags & SNAP_DELTA:
            for obj in snapshot.objects:
                self.state.apply(UpdateRecord(
                    snapshot.base_seqno, UpdateKind.STATE,
                    obj.object_id, obj.data, "", 0.0,
                ))
            self.next_seqno = snapshot.next_seqno
            self.pending_exclusive.clear()
            self.fifo = FifoChecker()
        elif (
            not snapshot.objects
            and snapshot.base_seqno == self.next_seqno - 1
        ):
            for record in snapshot.updates:
                self.state.apply(record)
            self.next_seqno = snapshot.next_seqno
            self.pending_exclusive.clear()
        else:
            self.apply_snapshot(snapshot)
            self.pending_exclusive.clear()
            self.fifo = FifoChecker()

    def apply_delivery(
        self, record: UpdateRecord, own_id: str,
        skipped: tuple[SeqNo, ...] = (),
    ) -> None:
        if record.seqno < self.next_seqno:
            raise ProtocolError(
                f"duplicate delivery seqno {record.seqno} in {self.name!r}"
            )
        while self.next_seqno < record.seqno:
            # Gap: either a superseded bcastState frame the server's flow
            # control coalesced away for us (annotated on this frame, see
            # docs/flow-control.md — a newer STATE for the object is already
            # on its way, so skipping is state-safe), or one of our own
            # exclusive broadcasts (FIFO order).  The two sets are disjoint:
            # our own exclusive slots were never queued on our connection.
            if self.next_seqno in skipped:
                self.next_seqno += 1
                continue
            if not self.pending_exclusive:
                raise ProtocolError(
                    f"delivery gap at seqno {self.next_seqno} in {self.name!r}"
                )
            kind, object_id, data = self.pending_exclusive.popleft()
            self.state.apply(
                UpdateRecord(self.next_seqno, kind, object_id, data, own_id, record.timestamp)
            )
            self.next_seqno += 1
        self.fifo.observe(record.sender, record.seqno)
        self.state.apply(record)
        self.next_seqno = record.seqno + 1


class ClientCore(ProtocolCore):
    """Sans-io protocol core of one Corona client."""

    def __init__(self, config: ClientConfig, clock: Clock) -> None:
        super().__init__()
        self.config = config
        self.clock = clock
        self.views: dict[GroupId, GroupView] = {}
        self.connected = False
        self.server_id: str | None = None
        self._conn: ConnId | None = None
        self._address: Any = None
        self._address_rotation = 0
        self._backoff = config.reconnect_backoff
        self._rejoining: set[GroupId] = set()
        self._request_ids = itertools.count(1)
        self._pending: dict[RequestId, str] = {}
        self._pending_bcast: dict[RequestId, tuple[GroupId, DeliveryMode, UpdateKind, str, bytes]] = {}
        self._join_params: dict[RequestId, tuple[MemberRole, bool, TransferSpec]] = {}
        #: In-flight chunked transfers, keyed by group (at most one per
        #: group; a newer join supersedes).
        self._transfers: dict[GroupId, _IncomingTransfer] = {}
        #: The group of each in-flight leave; its ``Ack`` drops the group.
        self._leaving: dict[RequestId, GroupId] = {}

    # ------------------------------------------------------------------
    # connection lifecycle
    # ------------------------------------------------------------------

    def connect(self, address: Any) -> None:
        """Dial the server at *address* (host executes the effect)."""
        self._address = address
        self.emit(OpenConnection(address, key="server"))

    def handle_connected(self, conn: ConnId, peer: Any, key: str) -> None:
        if key != "server":
            return
        self._conn = conn
        self.send(conn, Hello(client_id=self.config.client_id,
                              token=self.config.token))

    def handle_closed(self, conn: ConnId) -> None:
        if conn != self._conn:
            return
        was_connected = self.connected
        self._conn = None
        self.connected = False
        transfer_requests = {
            t.request_id for t in self._transfers.values()
        } | {
            t.resume_request_id for t in self._transfers.values()
            if t.resume_request_id
        }
        for request_id, kind in list(self._pending.items()):
            if request_id in transfer_requests and kind != "resume":
                # A join backed by a resumable transfer survives the
                # disconnect; give it a fresh timeout window to span the
                # reconnect + resume handshake.
                self.emit(StartTimer(
                    request_timer(request_id), self.config.request_timeout
                ))
                continue
            self._finish(request_id, kind, error=NotConnectedError("connection lost"))
        if was_connected:
            self.emit(Notify(NOTIFY_DISCONNECTED, self.server_id))
        if self.config.auto_reconnect and self._address is not None:
            self.emit(StartTimer(TIMER_RECONNECT, self._backoff))
            self._backoff = min(
                self._backoff * 2, self.config.reconnect_backoff_max
            )
            if not was_connected:
                self.emit(Notify(NOTIFY_RECONNECT_FAILED, self._address))

    def _rejoin_groups(self) -> None:
        """After a reconnect, resynchronize every group we were in."""
        for view in self.views.values():
            if view.name in self._transfers:
                continue  # an interrupted chunked rejoin resumes instead
            self._rejoining.add(view.name)
            spec = TransferSpec(
                policy=TransferPolicy.SINCE_SEQNO,
                since_seqno=view.next_seqno - 1,
            )
            self._request(
                "rejoin",
                lambda rid, v=view, s=spec: JoinGroupRequest(
                    rid, v.name, v.role, s, v.notify_membership
                ),
            )

    # ------------------------------------------------------------------
    # requests (each returns its request id)
    # ------------------------------------------------------------------

    def create_group(
        self,
        group: GroupId,
        persistent: bool = False,
        initial_state: tuple[ObjectState, ...] = (),
    ) -> RequestId:
        """``createGroup()``: create a group with an initial shared state."""
        return self._request(
            "create", lambda rid: CreateGroupRequest(rid, group, persistent, initial_state)
        )

    def delete_group(self, group: GroupId) -> RequestId:
        """``deleteGroup()``: destroy the group and its shared state."""
        return self._request("delete", lambda rid: DeleteGroupRequest(rid, group))

    def join_group(
        self,
        group: GroupId,
        role: MemberRole = MemberRole.PRINCIPAL,
        transfer: TransferSpec | None = None,
        notify_membership: bool = False,
    ) -> RequestId:
        """``joinGroup()``: join and receive the state per *transfer*."""
        spec = transfer if transfer is not None else TransferSpec()
        request_id = self._request(
            "join",
            lambda rid: JoinGroupRequest(rid, group, role, spec, notify_membership),
        )
        self._join_params[request_id] = (role, notify_membership, spec)
        return request_id

    def leave_group(self, group: GroupId) -> RequestId:
        """``leaveGroup()``: leave unobtrusively.  Once the server acks,
        the core forgets the group's replica (the application keeps any
        :class:`GroupView` it holds) and a reconnect no longer rejoins it;
        a failed leave keeps everything."""
        request_id = self._request(
            "leave", lambda rid: LeaveGroupRequest(rid, group)
        )
        self._leaving[request_id] = group
        return request_id

    def get_membership(self, group: GroupId) -> RequestId:
        """``getMembership()``: query the current member list."""
        return self._request("membership", lambda rid: GetMembershipRequest(rid, group))

    def list_groups(self) -> RequestId:
        """Enumerate groups known to the service."""
        return self._request("list_groups", lambda rid: ListGroupsRequest(rid))

    def bcast_state(
        self,
        group: GroupId,
        object_id: str,
        data: bytes,
        mode: DeliveryMode = DeliveryMode.INCLUSIVE,
    ) -> RequestId:
        """``bcastState()``: override an object's state, group-wide."""
        rid = self._request(
            "bcast", lambda r: BcastStateRequest(r, group, object_id, data, mode)
        )
        self._pending_bcast[rid] = (group, mode, UpdateKind.STATE, object_id, data)
        return rid

    def bcast_update(
        self,
        group: GroupId,
        object_id: str,
        data: bytes,
        mode: DeliveryMode = DeliveryMode.INCLUSIVE,
    ) -> RequestId:
        """``bcastUpdate()``: append an incremental change, group-wide."""
        rid = self._request(
            "bcast", lambda r: BcastUpdateRequest(r, group, object_id, data, mode)
        )
        self._pending_bcast[rid] = (group, mode, UpdateKind.UPDATE, object_id, data)
        return rid

    def acquire_lock(self, group: GroupId, object_id: str, blocking: bool = True) -> RequestId:
        """Acquire the per-object update lock."""
        return self._request(
            "lock", lambda rid: AcquireLockRequest(rid, group, object_id, blocking)
        )

    def release_lock(self, group: GroupId, object_id: str) -> RequestId:
        """Release a held per-object lock."""
        return self._request(
            "unlock", lambda rid: ReleaseLockRequest(rid, group, object_id)
        )

    def reduce_log(self, group: GroupId) -> RequestId:
        """Ask the service to reduce the group's state log now."""
        return self._request("reduce", lambda rid: ReduceLogRequest(rid, group))

    def ping(self) -> RequestId:
        """Round-trip probe carrying the server clock back."""
        return self._request("ping", lambda rid: PingRequest(rid))

    def _request(self, kind: str, build: "Any") -> RequestId:
        if self._conn is None:
            raise NotConnectedError("not connected to a server")
        request_id = next(self._request_ids)
        self._pending[request_id] = kind
        self.send(self._conn, build(request_id))
        self.emit(StartTimer(request_timer(request_id), self.config.request_timeout))
        return request_id

    # ------------------------------------------------------------------
    # replies and unsolicited messages
    # ------------------------------------------------------------------

    def handle_message(self, conn: ConnId, message: Message) -> None:
        if isinstance(message, HelloReply):
            reconnecting = self.connected is False and bool(self.views)
            self.connected = True
            self.server_id = message.server_id
            self._backoff = self.config.reconnect_backoff
            self.emit(Notify(NOTIFY_CONNECTED, message.server_id))
            if self._transfers:
                self._resume_transfers()
            if reconnecting and self.config.auto_reconnect:
                self._rejoin_groups()
        elif isinstance(message, Ack):
            self._on_ack(message)
        elif isinstance(message, ErrorReply):
            if message.request_id == 0:
                # connection-level failure (authentication, protocol
                # version): not tied to any request
                self.emit(Notify(
                    NOTIFY_ERROR, error_from_code(message.code, message.detail)
                ))
                return
            kind = self._pending.get(message.request_id, "")
            if kind == "resume":
                # The server refused the resume (session expired or the
                # suffix was reduced away): restart the join from scratch.
                self._pending.pop(message.request_id, None)
                self.emit(CancelTimer(request_timer(message.request_id)))
                self._resume_rejected(message.request_id)
                return
            self._pending_bcast.pop(message.request_id, None)
            self._finish(
                message.request_id, kind,
                error=error_from_code(message.code, message.detail),
            )
        elif isinstance(message, JoinReply):
            group = message.snapshot.group
            if message.snapshot.flags & SNAP_CHUNKED:
                self._on_chunk_marker(message)
            elif group in self._rejoining and group in self.views:
                self._rejoining.discard(group)
                view = self.views[group]
                view.resync(message.snapshot)
                view.members = message.members
                self._finish(message.request_id, "rejoin", value=view)
                self.emit(Notify(NOTIFY_REJOINED, view))
            else:
                view = GroupView(name=group)
                view.apply_snapshot(message.snapshot)
                view.members = message.members
                role, notify, _spec = self._join_params.pop(
                    message.request_id, (MemberRole.PRINCIPAL, False, TransferSpec())
                )
                view.role = role
                view.notify_membership = notify
                self.views[view.name] = view
                self._finish(message.request_id, "join", value=view)
        elif isinstance(message, MembershipReply):
            self._finish(message.request_id, "membership", value=message.members)
        elif isinstance(message, GroupListReply):
            self._finish(message.request_id, "list_groups", value=message.groups)
        elif isinstance(message, LockGranted):
            self._finish(message.request_id, "lock", value=message.object_id)
        elif isinstance(message, PingReply):
            self._finish(message.request_id, "ping", value=message.server_time)
        elif isinstance(message, Delivery):
            self._on_delivery(message)
        elif isinstance(message, StateChunk):
            self._on_state_chunk(conn, message)
        elif isinstance(message, MembershipNotice):
            view = self.views.get(message.group)
            if view is not None:
                view.members = message.members
            self.emit(Notify(NOTIFY_MEMBERSHIP, message))
        elif isinstance(message, GroupDeletedNotice):
            self.views.pop(message.group, None)
            self.emit(Notify(NOTIFY_GROUP_DELETED, message.group))
        elif isinstance(message, RebaseNotice):
            # partition reconciliation replaced the group state: rebuild
            # the replica from the reconciled snapshot
            view = self.views.get(message.group)
            if view is None:
                view = GroupView(name=message.group)
                self.views[message.group] = view
            view.apply_snapshot(message.snapshot)
            view.pending_exclusive.clear()
            view.fifo = FifoChecker()
            self.emit(Notify(NOTIFY_REBASED, view))
        elif isinstance(message, ForkNotice):
            view = self.views.pop(message.group, None)
            if view is not None:
                view.name = message.new_name
                self.views[message.new_name] = view
            self.emit(Notify(NOTIFY_FORKED, (message.group, message.new_name)))
        elif isinstance(message, Disconnect):
            # The server is about to close this connection (e.g. we were
            # lag-kicked as a slow consumer, docs/flow-control.md).  The
            # close itself arrives via on_closed; this notice carries why.
            self.emit(Notify(NOTIFY_KICKED, message))
        else:
            raise ProtocolError(f"unexpected message {type(message).__name__}")

    def _on_ack(self, message: Ack) -> None:
        kind = self._pending.get(message.request_id, "")
        left = self._leaving.pop(message.request_id, None)
        if left is not None:
            self._forget_group(left)
        pending = self._pending_bcast.pop(message.request_id, None)
        if pending is not None:
            group, mode, update_kind, object_id, data = pending
            if mode is DeliveryMode.EXCLUSIVE:
                view = self.views.get(group)
                if view is not None:
                    view.pending_exclusive.append((update_kind, object_id, data))
        self._finish(message.request_id, kind, value=None)

    def _forget_group(self, group: GroupId) -> None:
        """The server acked our leave: drop the replica and any rejoin
        mark, and end a join still streaming its state at once: the
        server dropped its side of the transfer, and the chunks this
        ``Ack`` overtook on the server's bulk lane find no transfer here
        and are ignored."""
        self.views.pop(group, None)
        self._rejoining.discard(group)
        transfer = self._transfers.pop(group, None)
        if transfer is not None:
            self._finish(
                transfer.request_id, transfer.kind,
                error=NotAMemberError(
                    f"left {group!r} before its state transfer completed"
                ),
            )

    def _on_delivery(self, message: Delivery) -> None:
        transfer = self._transfers.get(message.group)
        if transfer is not None:
            # Mid-transfer: the replica is not ready, but the application
            # hears the update NOW — that is the whole point of streaming.
            # The record is replayed into the replica after the final
            # chunk decodes.
            transfer.buffered.append((message.update, message.skipped))
            self.emit(Notify(
                NOTIFY_DELIVERY, DeliveryEvent(message.group, message.update)
            ))
            return
        view = self.views.get(message.group)
        if view is not None:
            view.apply_delivery(
                message.update, own_id=self.config.client_id,
                skipped=message.skipped,
            )
        self.emit(Notify(NOTIFY_DELIVERY, DeliveryEvent(message.group, message.update)))

    # ------------------------------------------------------------------
    # chunked state transfer (contract: docs/protocol.md)
    # ------------------------------------------------------------------

    def _on_chunk_marker(self, message: JoinReply) -> None:
        """A ``SNAP_CHUNKED`` marker: the snapshot follows as chunks."""
        group = message.snapshot.group
        kind = self._pending.get(message.request_id)
        if kind == "resume":
            transfer = self._transfers.get(group)
            if transfer is not None:
                # Resume accepted: keep the reassembled bytes, refresh
                # the membership view, give the app request fresh time.
                transfer.members = message.members
                transfer.resume_request_id = 0
                if transfer.request_id in self._pending:
                    self.emit(StartTimer(
                        request_timer(transfer.request_id),
                        self.config.request_timeout,
                    ))
            self._finish(message.request_id, "resume", value=group)
            return
        if kind not in ("join", "rejoin"):
            return  # late marker for a request that already completed
        if kind == "rejoin":
            view = self.views.get(group)
            role = view.role if view is not None else MemberRole.PRINCIPAL
            notify = view.notify_membership if view is not None else False
            spec = TransferSpec(
                policy=TransferPolicy.SINCE_SEQNO,
                since_seqno=(view.next_seqno - 1) if view is not None else -1,
                chunked=True,
                allow_delta=True,
            )
        else:
            role, notify, spec = self._join_params.get(
                message.request_id, (MemberRole.PRINCIPAL, False, TransferSpec())
            )
        self._transfers[group] = _IncomingTransfer(
            group=group,
            marker=message.snapshot,
            request_id=message.request_id,
            kind=kind,
            role=role,
            notify_membership=notify,
            spec=spec,
            members=message.members,
        )
        # The join request stays pending until the final chunk decodes;
        # chunk arrivals re-arm its timeout below.
        self.emit(StartTimer(
            request_timer(message.request_id), self.config.request_timeout
        ))

    def _on_state_chunk(self, conn: ConnId, message: StateChunk) -> None:
        transfer = self._transfers.get(message.group)
        if transfer is None:
            return  # abandoned transfer — stale chunk, drop
        if transfer.transfer_id < 0:
            transfer.transfer_id = message.transfer_id
            transfer.total_bytes = message.total_bytes
        elif message.transfer_id != transfer.transfer_id:
            return  # chunk from a superseded transfer
        have = transfer.received_bytes
        if message.offset < have:
            return  # duplicate overlap after a resume race
        if message.offset > have:
            raise ProtocolError(
                f"chunk gap at byte {have} in transfer for {message.group!r}"
            )
        have += len(message.data)
        total = transfer.total_bytes
        if (message.total_bytes != total or have > total
                or message.last != (have == total)):
            raise ProtocolError(
                f"chunk ending at byte {have} of {message.total_bytes} "
                f"(last={message.last}) does not fit the {total}-byte "
                f"transfer for {message.group!r}"
            )
        transfer.chunks.append(message.data)
        transfer.received_bytes = have
        self.send(conn, ChunkAck(message.group, transfer.transfer_id, have))
        if transfer.request_id in self._pending:
            # progress resets the request timeout — a long transfer is
            # not a stuck one
            self.emit(StartTimer(
                request_timer(transfer.request_id), self.config.request_timeout
            ))
        self.emit(Notify(NOTIFY_TRANSFER_PROGRESS, TransferProgress(
            message.group, have, total
        )))
        if message.last:
            self._complete_transfer(transfer)

    def _complete_transfer(self, transfer: _IncomingTransfer) -> None:
        """Final chunk arrived: decode, install, replay the catch-up log."""
        del self._transfers[transfer.group]
        snapshot = codec.decode(b"".join(transfer.chunks))
        if not isinstance(snapshot, StateSnapshot):
            raise ProtocolError(
                f"chunk stream for {transfer.group!r} decoded to "
                f"{type(snapshot).__name__}, not StateSnapshot"
            )
        view = self.views.get(transfer.group)
        rejoined = transfer.kind == "rejoin" and view is not None
        if rejoined:
            self._rejoining.discard(transfer.group)
            view.resync(snapshot)
        else:
            view = GroupView(name=transfer.group)
            view.apply_snapshot(snapshot)
            view.role = transfer.role
            view.notify_membership = transfer.notify_membership
            self.views[transfer.group] = view
        view.members = transfer.members
        for record, skipped in transfer.buffered:
            if record.seqno >= view.next_seqno:
                view.apply_delivery(
                    record, own_id=self.config.client_id, skipped=skipped
                )
        self._finish(transfer.request_id, transfer.kind, value=view)
        if rejoined:
            self.emit(Notify(NOTIFY_REJOINED, view))

    def _resume_transfers(self) -> None:
        """After a reconnect, pick every interrupted transfer back up."""
        for transfer in list(self._transfers.values()):
            if transfer.transfer_id < 0:
                # No chunk ever arrived, so there is nothing to resume —
                # restart the join from scratch.
                del self._transfers[transfer.group]
                self._restart_join(transfer)
                continue
            rid = self._request(
                "resume",
                lambda r, t=transfer: TransferResume(
                    r, t.group, t.transfer_id, t.received_bytes, t.have_seqno
                ),
            )
            transfer.resume_request_id = rid

    def _resume_rejected(self, resume_rid: RequestId) -> None:
        for group, transfer in list(self._transfers.items()):
            if transfer.resume_request_id == resume_rid:
                del self._transfers[group]
                self._restart_join(transfer)
                return

    def _restart_join(self, transfer: _IncomingTransfer) -> None:
        """Fall back to a fresh join, reusing the still-pending app
        request so the caller's await completes normally."""
        if self._conn is None or transfer.request_id not in self._pending:
            # Can't restart (gone again, or the request already failed);
            # surface the loss if anyone is still waiting.
            if transfer.request_id in self._pending:
                self._finish(
                    transfer.request_id, transfer.kind,
                    error=NotConnectedError("connection lost mid-transfer"),
                )
            return
        spec = transfer.spec
        if transfer.kind == "rejoin":
            view = self.views.get(transfer.group)
            since = (view.next_seqno - 1) if view is not None else -1
            spec = TransferSpec(
                policy=TransferPolicy.SINCE_SEQNO, since_seqno=since,
                chunked=True, allow_delta=spec.allow_delta,
            )
            self._rejoining.add(transfer.group)
        self.send(self._conn, JoinGroupRequest(
            transfer.request_id, transfer.group, transfer.role, spec,
            transfer.notify_membership,
        ))
        self.emit(StartTimer(
            request_timer(transfer.request_id), self.config.request_timeout
        ))

    # ------------------------------------------------------------------
    # timeouts
    # ------------------------------------------------------------------

    def handle_timer(self, key: str) -> None:
        if key == TIMER_RECONNECT:
            if self._conn is None and self._address is not None:
                # rotate through the primary + fallback servers: in a
                # replicated deployment any live server can take over
                candidates = [self._address, *self.config.fallback_addresses]
                address = candidates[self._address_rotation % len(candidates)]
                self._address_rotation += 1
                self.emit(OpenConnection(address, key="server"))
            return
        if not key.startswith(REQUEST_TIMER_PREFIX):
            return
        request_id = int(key[len(REQUEST_TIMER_PREFIX):])
        kind = self._pending.get(request_id)
        if kind is None:
            return
        if kind == "resume":
            # The resume handshake stalled; restart the join instead of
            # surfacing an error for an internal request.
            self._pending.pop(request_id, None)
            self._resume_rejected(request_id)
            return
        self._pending_bcast.pop(request_id, None)
        self._finish(
            request_id, kind,
            error=RequestTimeoutError(
                f"request {request_id} ({kind}) timed out after "
                f"{self.config.request_timeout}s"
            ),
        )

    def _finish(
        self,
        request_id: RequestId,
        kind: str,
        value: Any = None,
        error: CoronaError | None = None,
    ) -> None:
        if self._pending.pop(request_id, None) is None:
            return  # already completed (late reply after timeout)
        self._join_params.pop(request_id, None)
        self._leaving.pop(request_id, None)
        if error is not None:
            # A join that dies takes its half-done transfer with it; the
            # server-side session expires via its own TTL.
            for group, transfer in list(self._transfers.items()):
                if transfer.request_id == request_id:
                    del self._transfers[group]
        self.emit(CancelTimer(request_timer(request_id)))
        if kind == "resume":
            # Internal plumbing of the reconnect path, not an application
            # request — the app-visible reply is the join's, when the
            # resumed stream completes.
            return
        self.emit(
            Notify(
                NOTIFY_REPLY,
                ReplyEvent(request_id, kind, ok=error is None, value=value, error=error),
            )
        )
