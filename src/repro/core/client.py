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
from typing import Any, Sequence

from repro.core.clock import Clock
from repro.core.errors import (
    CoronaError,
    NoSuchGroupError,
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


@dataclass(slots=True, eq=False)
class _Join:
    """One join (or automatic rejoin) request, from send to its one end:
    :meth:`ClientCore._install` (a monolithic reply or a completed chunk
    stream) or the error path of :meth:`ClientCore._finish`.

    A ``SNAP_CHUNKED`` marker makes it its group's *stream* and sets the
    fields below.  A stream survives a connection loss, to
    ``TransferResume`` from ``received_bytes``; its chunks are joined
    once at the end (one copy, no allocation sized by ``total_bytes``).
    """

    request_id: RequestId
    group: GroupId
    role: MemberRole
    notify_membership: bool
    spec: TransferSpec
    kind: str  # "join" or "rejoin"
    marker: StateSnapshot = field(init=False, repr=False)
    members: tuple[MemberInfo, ...] = field(init=False, repr=False)
    #: Learned from the first chunk (the marker does not carry them).
    transfer_id: int = field(init=False, repr=False)
    total_bytes: int = field(init=False, repr=False)
    chunks: list[bytes] = field(init=False, repr=False)
    received_bytes: int = field(init=False, repr=False)
    #: Live deliveries that arrived during the transfer — already
    #: surfaced to the application via ``NOTIFY_DELIVERY`` — replayed
    #: into the replica once the final chunk decodes.
    buffered: list[tuple[UpdateRecord, tuple[SeqNo, ...]]] = field(
        init=False, repr=False
    )
    #: In-flight ``TransferResume`` handshake, when one is pending.
    resume_request_id: RequestId = field(init=False, repr=False)

    def open_stream(self, reply: JoinReply) -> None:
        """Start (or, after a restart, restart) reassembling the stream
        the marker *reply* announces."""
        self.marker, self.members = reply.snapshot, reply.members
        self.transfer_id, self.total_bytes, self.received_bytes = -1, 0, 0
        self.chunks, self.buffered = [], []
        self.resume_request_id = 0

    @property
    def have_seqno(self) -> SeqNo:
        """Newest seqno this client holds for the group (for resume)."""
        return (self.buffered[-1][0].seqno if self.buffered
                else self.marker.next_seqno - 1)


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
        self._request_ids = itertools.count(1)
        self._pending: dict[RequestId, str] = {}
        self._pending_bcast: dict[RequestId, tuple[GroupId, DeliveryMode, UpdateKind, str, bytes]] = {}
        #: Every pending join and rejoin, by request id.
        self._joins: dict[RequestId, _Join] = {}
        #: The join whose chunk stream each group is receiving.  Keyed
        #: apart from ``_joins``: a client may pipeline join, leave, join
        #: of one group, and only the join that got a marker streams.
        self._streams: dict[GroupId, _Join] = {}
        #: Per group, how many streams this connection abandoned before
        #: their first chunk arrived (see :meth:`_on_state_chunk`).
        self._unstarted: dict[GroupId, int] = {}
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
        self._unstarted.clear()
        for request_id, kind in list(self._pending.items()):
            join = self._joins.get(request_id)
            if join is not None and self._streams.get(join.group) is join:
                # A join backed by a resumable stream survives: a fresh
                # timeout spans the reconnect + resume handshake.
                self._arm_timeout(request_id)
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
            self._join(view.name, view.role, TransferSpec(
                policy=TransferPolicy.SINCE_SEQNO,
                since_seqno=view.next_seqno - 1,
            ), view.notify_membership, "rejoin")

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
        return self._join(group, role, transfer or TransferSpec(),
                          notify_membership, "join")

    def _join(
        self, group: GroupId, role: MemberRole, spec: TransferSpec,
        notify: bool, kind: str,
    ) -> RequestId:
        rid = self._request(
            kind, lambda r: JoinGroupRequest(r, group, role, spec, notify)
        )
        self._joins[rid] = _Join(rid, group, role, notify, spec, kind)
        return rid

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
        self._arm_timeout(request_id)
        return request_id

    def _arm_timeout(self, request_id: RequestId) -> None:
        """(Re)start the timeout of one in-flight request."""
        self.emit(StartTimer(request_timer(request_id), self.config.request_timeout))

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
            if self._streams:
                self._resume_streams()
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
                self._finish(message.request_id, kind)
                self._resume_rejected(message.request_id)
                return
            self._pending_bcast.pop(message.request_id, None)
            self._finish(
                message.request_id, kind,
                error=error_from_code(message.code, message.detail),
            )
        elif isinstance(message, JoinReply):
            self._on_join_reply(message)
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
            self._drop_group(message.group, NoSuchGroupError)
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
            self._drop_group(left)
        pending = self._pending_bcast.pop(message.request_id, None)
        if pending is not None:
            group, mode, update_kind, object_id, data = pending
            if mode is DeliveryMode.EXCLUSIVE:
                view = self.views.get(group)
                if view is not None:
                    view.pending_exclusive.append((update_kind, object_id, data))
        self._finish(message.request_id, kind, value=None)

    def _drop_group(
        self, group: GroupId, error: type[CoronaError] = NotAMemberError
    ) -> None:
        """Our membership of *group* ended: drop the replica, and end a
        join streaming the group's state with *error*.  A join of the
        group with no stream yet waits for its own reply."""
        self.views.pop(group, None)
        join = self._streams.get(group)
        if join is not None:
            self._finish(join.request_id, join.kind, error=error(
                f"membership of {group!r} ended before its state transfer completed"
            ))

    def _on_delivery(self, message: Delivery) -> None:
        join = self._streams.get(message.group)
        view = self.views.get(message.group)
        if join is not None:
            # Mid-transfer: the replica is not ready, but the application
            # hears the update NOW — that is the whole point of streaming.
            # The record is replayed into the replica after the final
            # chunk decodes.
            join.buffered.append((message.update, message.skipped))
        elif view is not None:
            view.apply_delivery(
                message.update, own_id=self.config.client_id,
                skipped=message.skipped,
            )
        self.emit(Notify(NOTIFY_DELIVERY, DeliveryEvent(message.group, message.update)))

    # ------------------------------------------------------------------
    # join replies and chunked state transfer (contract: docs/protocol.md)
    # ------------------------------------------------------------------

    def _on_join_reply(self, message: JoinReply) -> None:
        group = message.snapshot.group
        chunked = message.snapshot.flags & SNAP_CHUNKED
        if chunked and self._pending.get(message.request_id) == "resume":
            # Resume accepted: keep the reassembled bytes, refresh the
            # membership view, give the join fresh time (unless the
            # resume timed out and the join restarted meanwhile).
            join = self._streams.get(group)
            if join is not None:
                join.members = message.members
                join.resume_request_id = 0
                self._arm_timeout(join.request_id)
            self._finish(message.request_id, "resume", value=group)
            return
        join = self._joins.get(message.request_id)
        if join is None:
            # The join already ended (it timed out): ignore its reply,
            # and skip the chunks a marker announces.
            if chunked:
                self._skip_stream(group)
            return
        if group in self._streams:
            # The server took this join, so our membership ended since
            # that stream began (a leave acked after it timed out).
            self._drop_group(group)
        if not chunked:
            self._install(join, message.snapshot, message.members)
            return
        # The snapshot follows as chunks; the join stays pending until
        # the final one decodes, and chunk arrivals re-arm its timeout.
        join.open_stream(message)
        self._streams[join.group] = join
        self._arm_timeout(join.request_id)

    def _skip_stream(self, group: GroupId) -> None:
        """No chunk has arrived yet of a stream of *group* this client
        will not read: skip its first chunk when it does."""
        self._unstarted[group] = self._unstarted.get(group, 0) + 1

    def _on_state_chunk(self, conn: ConnId, message: StateChunk) -> None:
        group = message.group
        if message.offset == 0 and group in self._unstarted:
            # The first chunk of a stream skipped before it arrived.
            # The bulk lane is FIFO per connection, so every chunk of a
            # skipped stream comes before any later join's; its later
            # chunks are never at offset 0 and are dropped below.
            left = self._unstarted.pop(group) - 1
            if left:
                self._unstarted[group] = left
            return
        join = self._streams.get(group)
        if join is None:
            return  # no stream: the tail of an abandoned one
        if join.transfer_id < 0 and not message.offset:
            join.transfer_id = message.transfer_id
            join.total_bytes = message.total_bytes
        if message.transfer_id != join.transfer_id:
            return  # the tail of a stream abandoned mid-way
        have = join.received_bytes
        if message.offset < have:
            return  # duplicate overlap after a resume race
        if message.offset > have:
            raise ProtocolError(f"chunk gap at byte {have} in transfer for {group!r}")
        have += len(message.data)
        total = join.total_bytes
        if (message.total_bytes != total or have > total
                or message.last != (have == total)):
            raise ProtocolError(
                f"chunk ending at byte {have} of {message.total_bytes} "
                f"(last={message.last}) does not fit the {total}-byte "
                f"transfer for {group!r}"
            )
        join.chunks.append(message.data)
        join.received_bytes = have
        self.send(conn, ChunkAck(group, join.transfer_id, have))
        # progress resets the request timeout — a long transfer is not
        # a stuck one
        self._arm_timeout(join.request_id)
        self.emit(Notify(NOTIFY_TRANSFER_PROGRESS, TransferProgress(
            group, have, total
        )))
        if message.last:
            del self._streams[group]
            snapshot = codec.decode(b"".join(join.chunks))
            if not isinstance(snapshot, StateSnapshot):
                raise ProtocolError(f"chunk stream for {group!r} is a "
                                    f"{type(snapshot).__name__}, not a snapshot")
            self._install(join, snapshot, join.members, join.buffered)

    def _install(
        self, join: _Join, snapshot: StateSnapshot,
        members: tuple[MemberInfo, ...], buffered: Sequence[tuple] = (),
    ) -> None:
        """The one end of a join that succeeded: build the replica from
        *snapshot* (a rejoin resyncs the one it has), replay the
        deliveries *buffered* during a stream, finish the request."""
        view = self.views.get(join.group) if join.kind == "rejoin" else None
        rejoined = view is not None
        if rejoined:
            view.resync(snapshot)
        else:
            view = GroupView(join.group, role=join.role,
                             notify_membership=join.notify_membership)
            view.apply_snapshot(snapshot)
            self.views[join.group] = view
        view.members = members
        for record, skipped in buffered:
            if record.seqno >= view.next_seqno:
                view.apply_delivery(
                    record, own_id=self.config.client_id, skipped=skipped
                )
        self._finish(join.request_id, join.kind, value=view)
        if rejoined:
            self.emit(Notify(NOTIFY_REJOINED, view))

    def _resume_streams(self) -> None:
        """After a reconnect, pick every interrupted stream back up."""
        for join in list(self._streams.values()):
            if join.transfer_id < 0:
                # No chunk ever arrived, so there is nothing to resume —
                # restart the join from scratch.
                self._restart_join(join)
                continue
            join.resume_request_id = self._request(
                "resume",
                lambda r, j=join: TransferResume(
                    r, j.group, j.transfer_id, j.received_bytes, j.have_seqno
                ),
            )

    def _resume_rejected(self, resume_rid: RequestId) -> None:
        for join in self._streams.values():
            if join.resume_request_id == resume_rid:
                self._restart_join(join)
                return

    def _restart_join(self, join: _Join) -> None:
        """Fall back to a fresh join, reusing the still-pending app
        request so the caller's await completes normally."""
        del self._streams[join.group]
        self.send(self._conn, JoinGroupRequest(
            join.request_id, join.group, join.role, join.spec,
            join.notify_membership,
        ))
        self._arm_timeout(join.request_id)

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
            # The resume handshake stalled: restart the join.  The resume
            # stays pending until answered, so that a late marker is not
            # taken for a join's (_on_join_reply).
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
        self._leaving.pop(request_id, None)
        join = self._joins.pop(request_id, None)
        if join is not None:
            group = join.group
            if self._streams.get(group) is join:
                # A join that ends unfinished abandons its stream (the
                # server-side session ends with it or expires via its
                # TTL); _on_state_chunk drops the chunks still in flight.
                del self._streams[group]
                if join.transfer_id < 0:
                    self._skip_stream(group)
            if isinstance(error, RequestTimeoutError):
                # The server may take the join even so, and its late
                # reply is ignored: nothing keeps a replica in step.
                self.views.pop(group, None)
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
