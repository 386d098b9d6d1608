"""Protocol message catalogue.

Every frame exchanged between a Corona client, server, or coordinator is one
of the slotted frozen dataclasses below, registered with a stable type code
in the binary codec (:mod:`repro.wire.codec`).  The catalogue is grouped as:

* **shared structs** (codes 1-19) — value types embedded in messages,
* **client → server** (codes 20-49) — requests from collaborating clients,
* **server → client** (codes 50-79) — replies, deliveries, notifications,
* **server ↔ server** (codes 80-119) — the replicated-service protocol of
  the paper's Section 4 (sequencing, heartbeats, election, recovery).

Requests carry a client-chosen ``request_id`` echoed in the matching reply;
deliveries and notices are unsolicited and carry none.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.wire.codec import register

__all__ = [
    "PROTOCOL_VERSION",
    "SNAP_CHUNKED",
    "SNAP_DELTA",
    "SNAP_FORCED_FULL",
    "Message",
    "MemberRole",
    "UpdateKind",
    "TransferPolicy",
    "DeliveryMode",
    "ReconcilePolicy",
    "ObjectState",
    "UpdateRecord",
    "MemberInfo",
    "GroupInfo",
    "TransferSpec",
    "ServerInfo",
    "GroupMeta",
    "StateSnapshot",
    "Hello",
    "CreateGroupRequest",
    "DeleteGroupRequest",
    "JoinGroupRequest",
    "LeaveGroupRequest",
    "GetMembershipRequest",
    "ListGroupsRequest",
    "BcastStateRequest",
    "BcastUpdateRequest",
    "AcquireLockRequest",
    "ReleaseLockRequest",
    "ReduceLogRequest",
    "PingRequest",
    "ChunkAck",
    "TransferResume",
    "HelloReply",
    "Ack",
    "ErrorReply",
    "JoinReply",
    "MembershipReply",
    "GroupListReply",
    "Delivery",
    "StateChunk",
    "DisconnectReason",
    "Disconnect",
    "MembershipNotice",
    "GroupDeletedNotice",
    "LockGranted",
    "PingReply",
    "ServerHello",
    "ServerHelloReply",
    "ForwardBcast",
    "SequencedBcast",
    "GroupInterest",
    "StateFetchRequest",
    "StateFetchReply",
    "Heartbeat",
    "HeartbeatAck",
    "ServerListUpdate",
    "ElectionRequest",
    "ElectionReply",
    "CoordinatorAnnounce",
    "BackupAssign",
    "ForwardCreateGroup",
    "ForwardDeleteGroup",
    "ForwardReduceLog",
    "ForwardOutcome",
    "GroupCreated",
    "GroupDropped",
    "MemberUpdate",
    "GroupMembership",
    "ReduceOrder",
    "ForwardAcquireLock",
    "ForwardReleaseLock",
    "RemoteLockGrant",
    "ReconcileOffer",
    "ReconcileChoice",
    "GroupRebase",
    "GroupForked",
    "RebaseNotice",
    "ForkNotice",
]

#: Bumped on incompatible wire changes; checked during the Hello handshake.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class Message:
    """Base class for all wire messages (and embedded structs); declares
    the encode memo slots ``register`` requires of every message."""

    __slots__ = ("_corona_wire_payload", "_corona_wire_frame")


# --------------------------------------------------------------------------
# Enumerations
# --------------------------------------------------------------------------


class MemberRole(enum.IntEnum):
    """Role of a member within a group (paper §3.1, footnote 1)."""

    PRINCIPAL = 1
    OBSERVER = 2


class UpdateKind(enum.IntEnum):
    """How a multicast modifies a shared object (paper §3.2)."""

    #: ``bcastState``: the payload is a whole new object state; it
    #: *overrides* the present state of the object.
    STATE = 1
    #: ``bcastUpdate``: the payload is an incremental change, *appended*
    #: to the object's update history.
    UPDATE = 2


class TransferPolicy(enum.IntEnum):
    """Customized state transfer on join (paper §3.2)."""

    #: Receive the whole current state of the group.
    FULL = 1
    #: Receive only the latest *n* updates.
    LATEST_N = 2
    #: Receive only the state of selected objects.
    SELECTED = 3
    #: Receive only updates after a known sequence number (reconnection).
    SINCE_SEQNO = 4
    #: Receive no state (pure notification subscriber).
    NONE = 5


class DeliveryMode(enum.IntEnum):
    """Sender-inclusive vs. sender-exclusive multicast (paper §3.2)."""

    #: The service multicasts the message to every member, sender included
    #: (used when the sender wants service-side processing, e.g. real-time
    #: timestamping).
    INCLUSIVE = 1
    #: The service does not echo the message back to the sender.
    EXCLUSIVE = 2


class ReconcilePolicy(enum.IntEnum):
    """Application choices after a partition heals (paper §4.2)."""

    #: Roll both sides back to the last globally consistent state.
    ROLL_BACK = 1
    #: Adopt the state of one designated branch, discarding the other.
    ADOPT_ONE = 2
    #: Let the two branches continue as two different groups.
    FORK = 3


# --------------------------------------------------------------------------
# Shared structs (codes 1-19)
# --------------------------------------------------------------------------


@register(1)
@dataclass(frozen=True, slots=True)
class ObjectState(Message):
    """Byte-stream encoding of one shared object: the pair ``(O_i, S_i)``."""

    object_id: str
    data: bytes


@register(2)
@dataclass(frozen=True, slots=True)
class UpdateRecord(Message):
    """One entry of a group's totally ordered state log."""

    seqno: int
    kind: UpdateKind
    object_id: str
    data: bytes
    sender: str
    timestamp: float


@register(3)
@dataclass(frozen=True, slots=True)
class MemberInfo(Message):
    """Membership entry exposed by the group membership service."""

    client_id: str
    role: MemberRole


@register(4)
@dataclass(frozen=True, slots=True)
class GroupInfo(Message):
    """Summary of a group returned by ``listGroups``."""

    name: str
    persistent: bool
    member_count: int
    next_seqno: int


@register(5)
@dataclass(frozen=True, slots=True)
class TransferSpec(Message):
    """How a joining client wants the shared state delivered.

    ``chunked`` asks the server to stream a large snapshot as a paced
    :class:`StateChunk` sequence instead of one monolithic frame (the
    server still replies monolithically below its configured chunk
    threshold).  ``allow_delta`` permits the server to answer a stale
    ``SINCE_SEQNO`` request with a :data:`SNAP_DELTA` object overlay
    instead of degrading to a full transfer; a client that sets it must
    understand delta snapshots (``docs/protocol.md`` §State transfer).
    """

    policy: TransferPolicy = TransferPolicy.FULL
    last_n: int = 0
    object_ids: tuple[str, ...] = ()
    since_seqno: int = -1
    chunked: bool = False
    allow_delta: bool = False


@register(6)
@dataclass(frozen=True, slots=True)
class ServerInfo(Message):
    """Address-book entry for one server of the replicated service."""

    server_id: str
    host: str
    port: int


@register(8)
@dataclass(frozen=True, slots=True)
class GroupMeta(Message):
    """Durable group metadata, stored as the GroupStore ``meta.bin``.

    ``initial_state`` is the state supplied at ``createGroup`` time; crash
    recovery rebuilds the group from it plus the checkpoint/WAL suffix.
    """

    name: str
    persistent: bool
    initial_state: tuple[ObjectState, ...]
    created_at: float


#: ``StateSnapshot.flags`` bit: the snapshot is a *chunked-transfer marker* —
#: ``objects``/``updates`` are empty and the real snapshot follows as an
#: ordered :class:`StateChunk` byte stream on the same connection.
SNAP_CHUNKED = 1
#: ``StateSnapshot.flags`` bit: ``objects`` is a partial overlay — only the
#: objects touched after the client's ``since_seqno``, materialized at
#: ``base_seqno``.  The receiver merges them over its existing replica
#: instead of replacing it wholesale.
SNAP_DELTA = 2
#: ``StateSnapshot.flags`` bit: the requested ``SINCE_SEQNO`` suffix was no
#: longer available (state-log reduction trimmed it), so the server degraded
#: to a delta or full transfer.  Surfaced so clients and benchmarks can see
#: forced-full transfers instead of a silent fallback.
SNAP_FORCED_FULL = 4


@register(7)
@dataclass(frozen=True, slots=True)
class StateSnapshot(Message):
    """A transferable view of a group's shared state.

    ``objects`` is the materialized state at ``base_seqno``; ``updates`` are
    log entries after it.  ``next_seqno`` is the first sequence number the
    receiver should expect from subsequent deliveries.  ``flags`` is a bit
    set of ``SNAP_*`` transfer annotations (chunked marker, delta overlay,
    forced-full); ``0`` is the plain monolithic snapshot of old.
    """

    group: str
    base_seqno: int
    objects: tuple[ObjectState, ...]
    updates: tuple[UpdateRecord, ...]
    next_seqno: int
    flags: int = 0


# --------------------------------------------------------------------------
# Client -> server (codes 20-49)
# --------------------------------------------------------------------------


@register(20)
@dataclass(frozen=True, slots=True)
class Hello(Message):
    """First message on a client connection; identifies and, when the
    service requires it, authenticates the client."""

    client_id: str
    protocol_version: int = PROTOCOL_VERSION
    token: str = ""


@register(21)
@dataclass(frozen=True, slots=True)
class CreateGroupRequest(Message):
    """Create a group with an initial shared state (paper §3.2)."""

    request_id: int
    group: str
    persistent: bool = False
    initial_state: tuple[ObjectState, ...] = ()


@register(22)
@dataclass(frozen=True, slots=True)
class DeleteGroupRequest(Message):
    """Delete a group; its shared state is lost (paper §3.2)."""

    request_id: int
    group: str


@register(23)
@dataclass(frozen=True, slots=True)
class JoinGroupRequest(Message):
    """Join a group and receive its state per ``transfer``.

    The join involves no existing member — the defining Corona property.
    """

    request_id: int
    group: str
    role: MemberRole = MemberRole.PRINCIPAL
    transfer: TransferSpec = field(default_factory=TransferSpec)
    notify_membership: bool = False


@register(24)
@dataclass(frozen=True, slots=True)
class LeaveGroupRequest(Message):
    """Leave a group unobtrusively."""

    request_id: int
    group: str


@register(25)
@dataclass(frozen=True, slots=True)
class GetMembershipRequest(Message):
    """Query current membership (``getMembership()``, paper §3.2)."""

    request_id: int
    group: str


@register(26)
@dataclass(frozen=True, slots=True)
class ListGroupsRequest(Message):
    """Enumerate groups known to the service."""

    request_id: int


@register(27)
@dataclass(frozen=True, slots=True)
class BcastStateRequest(Message):
    """``bcastState()``: replace the state of one shared object."""

    request_id: int
    group: str
    object_id: str
    data: bytes
    mode: DeliveryMode = DeliveryMode.INCLUSIVE


@register(28)
@dataclass(frozen=True, slots=True)
class BcastUpdateRequest(Message):
    """``bcastUpdate()``: append an incremental change to an object."""

    request_id: int
    group: str
    object_id: str
    data: bytes
    mode: DeliveryMode = DeliveryMode.INCLUSIVE


@register(29)
@dataclass(frozen=True, slots=True)
class AcquireLockRequest(Message):
    """Acquire the per-object lock used to synchronize client updates."""

    request_id: int
    group: str
    object_id: str
    blocking: bool = True


@register(30)
@dataclass(frozen=True, slots=True)
class ReleaseLockRequest(Message):
    """Release a previously acquired per-object lock."""

    request_id: int
    group: str
    object_id: str


@register(31)
@dataclass(frozen=True, slots=True)
class ReduceLogRequest(Message):
    """Client-requested state-log reduction (paper §3.2)."""

    request_id: int
    group: str


@register(32)
@dataclass(frozen=True, slots=True)
class PingRequest(Message):
    """Liveness / RTT probe; the reply carries the server's clock."""

    request_id: int


@register(33)
@dataclass(frozen=True, slots=True)
class ChunkAck(Message):
    """Client acknowledges contiguous receipt of a chunked state transfer.

    ``offset`` is the number of snapshot payload bytes received so far.
    Acks both clock the transfer (the server keeps a bounded in-flight
    window, so chunks never crowd live traffic out of the bulk lane) and
    feed its bandwidth estimate (acked bytes over inter-ack time), which
    adapts the chunk size between the configured floor and ceiling.
    """

    group: str
    transfer_id: int
    offset: int


@register(34)
@dataclass(frozen=True, slots=True)
class TransferResume(Message):
    """Client asks to resume a chunked transfer after a reconnection.

    ``offset`` is the first payload byte the client does *not* have, so
    the server restarts the chunk stream there instead of re-sending
    acked data.  ``have_seqno`` is the newest sequence number in the
    client's catch-up buffer (or the marker snapshot's tip when nothing
    was buffered); the server replays the missed ``Delivery`` suffix
    after it.  The server answers with a fresh chunked-marker
    :class:`JoinReply` on success or an :class:`ErrorReply` when the
    session expired (the client then falls back to a fresh join).
    """

    request_id: int
    group: str
    transfer_id: int
    offset: int
    have_seqno: int


# --------------------------------------------------------------------------
# Server -> client (codes 50-79)
# --------------------------------------------------------------------------


@register(50)
@dataclass(frozen=True, slots=True)
class HelloReply(Message):
    """Handshake completion; identifies the serving server."""

    server_id: str
    protocol_version: int = PROTOCOL_VERSION


@register(51)
@dataclass(frozen=True, slots=True)
class Ack(Message):
    """Generic success reply for requests with no payload."""

    request_id: int


@register(52)
@dataclass(frozen=True, slots=True)
class ErrorReply(Message):
    """Failure reply; ``code`` matches :mod:`repro.core.errors` codes."""

    request_id: int
    code: str
    detail: str = ""


@register(53)
@dataclass(frozen=True, slots=True)
class JoinReply(Message):
    """Successful join: the state transfer plus current membership."""

    request_id: int
    snapshot: StateSnapshot
    members: tuple[MemberInfo, ...]


@register(54)
@dataclass(frozen=True, slots=True)
class MembershipReply(Message):
    """Reply to ``GetMembershipRequest``."""

    request_id: int
    group: str
    members: tuple[MemberInfo, ...]


@register(55)
@dataclass(frozen=True, slots=True)
class GroupListReply(Message):
    """Reply to ``ListGroupsRequest``."""

    request_id: int
    groups: tuple[GroupInfo, ...]


@register(56)
@dataclass(frozen=True, slots=True)
class Delivery(Message):
    """A sequenced multicast delivered to a group member.

    ``skipped`` lists seqnos of this group that flow control coalesced
    away *for this receiver* (superseded ``bcastState`` frames — see
    ``docs/flow-control.md``).  The receiver's contiguity check treats
    them as accounted-for gaps; on the uncongested fast path the tuple is
    empty and costs two bytes on the wire.
    """

    group: str
    update: UpdateRecord
    skipped: tuple[int, ...] = ()


@register(64)
@dataclass(frozen=True, slots=True)
class StateChunk(Message):
    """One slice of a chunked state transfer (bulk lane).

    ``data`` is ``payload[offset : offset + len(data)]`` of the encoded
    :class:`StateSnapshot` announced by a ``SNAP_CHUNKED`` marker
    :class:`JoinReply`.  Chunks arrive in offset order on the connection
    FIFO; ``last`` marks the final slice, after which the receiver
    decodes the reassembled snapshot and splices its buffered catch-up
    deliveries.  ``total_bytes`` is constant for the whole transfer and
    drives progress reporting.  On the sending side ``data`` is a
    ``memoryview`` into the cached payload (no copy until the frame is
    built); decoding always yields ``bytes``.
    """

    group: str
    transfer_id: int
    offset: int
    data: bytes
    total_bytes: int
    last: bool


@register(57)
@dataclass(frozen=True, slots=True)
class MembershipNotice(Message):
    """Membership-change notification (only to subscribed members)."""

    group: str
    joined: tuple[MemberInfo, ...]
    left: tuple[MemberInfo, ...]
    members: tuple[MemberInfo, ...]


@register(58)
@dataclass(frozen=True, slots=True)
class GroupDeletedNotice(Message):
    """The group was deleted; members should stop using it."""

    group: str


@register(59)
@dataclass(frozen=True, slots=True)
class LockGranted(Message):
    """A blocking lock acquire succeeded (possibly after queueing)."""

    request_id: int
    group: str
    object_id: str


@register(60)
@dataclass(frozen=True, slots=True)
class PingReply(Message):
    """Reply to ``PingRequest``; carries the service clock reading."""

    request_id: int
    server_time: float


# --------------------------------------------------------------------------
# Server <-> server (codes 80-119): the replicated service (paper §4)
# --------------------------------------------------------------------------


@register(80)
@dataclass(frozen=True, slots=True)
class ServerHello(Message):
    """A server introduces itself on an inter-server connection."""

    info: ServerInfo
    epoch: int = 0


@register(81)
@dataclass(frozen=True, slots=True)
class ServerHelloReply(Message):
    """Coordinator's answer to ``ServerHello``; carries the server list."""

    coordinator_id: str
    epoch: int
    servers: tuple[ServerInfo, ...]
    list_version: int


@register(82)
@dataclass(frozen=True, slots=True)
class ForwardBcast(Message):
    """A replica forwards a client broadcast to the coordinator/sequencer."""

    forward_id: int
    origin: str
    group: str
    kind: UpdateKind
    object_id: str
    data: bytes
    sender: str
    mode: DeliveryMode
    timestamp: float


@register(83)
@dataclass(frozen=True, slots=True)
class SequencedBcast(Message):
    """Coordinator distributes a sequenced broadcast to interested servers."""

    group: str
    update: UpdateRecord
    origin: str
    forward_id: int
    mode: DeliveryMode


@register(84)
@dataclass(frozen=True, slots=True)
class GroupInterest(Message):
    """A replica (un)registers interest in a group's broadcasts.

    Only servers with members in a group receive its broadcasts (paper
    §4.1), so replicas declare interest as members come and go.
    """

    server_id: str
    group: str
    interested: bool
    member_count: int = 0


@register(85)
@dataclass(frozen=True, slots=True)
class StateFetchRequest(Message):
    """A server asks a peer for group state it does not hold locally."""

    request_id: int
    group: str
    since_seqno: int = -1


@register(86)
@dataclass(frozen=True, slots=True)
class StateFetchReply(Message):
    """Reply to ``StateFetchRequest``; empty snapshot if unknown group."""

    request_id: int
    found: bool
    snapshot: StateSnapshot | None = None


@register(87)
@dataclass(frozen=True, slots=True)
class Heartbeat(Message):
    """Liveness probe between the coordinator and each server (§4.2)."""

    server_id: str
    seq: int
    epoch: int


@register(88)
@dataclass(frozen=True, slots=True)
class HeartbeatAck(Message):
    """Acknowledgement of a ``Heartbeat``."""

    server_id: str
    seq: int
    epoch: int


@register(89)
@dataclass(frozen=True, slots=True)
class ServerListUpdate(Message):
    """Coordinator pushes the ordered server list after joins/leaves.

    The list is sorted by the order servers were brought up; that order
    drives coordinator succession (paper §4.2).
    """

    servers: tuple[ServerInfo, ...]
    list_version: int
    epoch: int


@register(90)
@dataclass(frozen=True, slots=True)
class ElectionRequest(Message):
    """A succession candidate asks peers to acknowledge its takeover."""

    candidate: str
    epoch: int


@register(91)
@dataclass(frozen=True, slots=True)
class ElectionReply(Message):
    """Peer vote: ack (it also believes the coordinator is down) or nack."""

    voter: str
    epoch: int
    granted: bool


@register(92)
@dataclass(frozen=True, slots=True)
class CoordinatorAnnounce(Message):
    """The elected candidate announces itself as coordinator for *epoch*."""

    coordinator_id: str
    epoch: int
    servers: tuple[ServerInfo, ...]
    list_version: int


@register(93)
@dataclass(frozen=True, slots=True)
class BackupAssign(Message):
    """Coordinator directs a server to hold a hot-standby copy of a group.

    The replicated service keeps at least two live copies of each group's
    state (paper §4.1); when only one interested server remains, a backup
    is elected among the others.
    """

    group: str
    server_id: str


@register(96)
@dataclass(frozen=True, slots=True)
class ForwardCreateGroup(Message):
    """A replica forwards a client's ``createGroup`` to the coordinator,
    which owns the cluster-wide group registry."""

    forward_id: int
    origin: str
    group: str
    persistent: bool
    initial_state: tuple[ObjectState, ...]


@register(97)
@dataclass(frozen=True, slots=True)
class ForwardDeleteGroup(Message):
    """A replica forwards a client's ``deleteGroup`` to the coordinator."""

    forward_id: int
    origin: str
    group: str


@register(98)
@dataclass(frozen=True, slots=True)
class ForwardReduceLog(Message):
    """A replica forwards a client's log-reduction request."""

    forward_id: int
    origin: str
    group: str


@register(99)
@dataclass(frozen=True, slots=True)
class ForwardOutcome(Message):
    """Coordinator's verdict on a forwarded control request."""

    forward_id: int
    ok: bool
    code: str = ""
    detail: str = ""


@register(100)
@dataclass(frozen=True, slots=True)
class GroupCreated(Message):
    """Coordinator announces a new group to every server."""

    group: str
    persistent: bool
    initial_state: tuple[ObjectState, ...]
    created_at: float


@register(101)
@dataclass(frozen=True, slots=True)
class GroupDropped(Message):
    """Coordinator announces a group's deletion (or transient death)."""

    group: str


@register(102)
@dataclass(frozen=True, slots=True)
class MemberUpdate(Message):
    """A replica reports local membership changes to the coordinator."""

    server_id: str
    group: str
    joined: tuple[MemberInfo, ...]
    left: tuple[MemberInfo, ...]


@register(103)
@dataclass(frozen=True, slots=True)
class GroupMembership(Message):
    """Coordinator pushes the group-wide membership view to servers."""

    group: str
    joined: tuple[MemberInfo, ...]
    left: tuple[MemberInfo, ...]
    members: tuple[MemberInfo, ...]


@register(104)
@dataclass(frozen=True, slots=True)
class ReduceOrder(Message):
    """Coordinator instructs every state holder to reduce a group's log
    up to *seqno* (keeping replicated reductions aligned)."""

    group: str
    seqno: int


@register(105)
@dataclass(frozen=True, slots=True)
class ForwardAcquireLock(Message):
    """A replica forwards a lock acquire to the coordinator, which owns
    the group-wide lock table (locks must be global across servers)."""

    forward_id: int
    origin: str
    group: str
    object_id: str
    client: str
    request_id: int
    blocking: bool


@register(106)
@dataclass(frozen=True, slots=True)
class ForwardReleaseLock(Message):
    """A replica forwards a lock release to the coordinator."""

    forward_id: int
    origin: str
    group: str
    object_id: str
    client: str


@register(107)
@dataclass(frozen=True, slots=True)
class RemoteLockGrant(Message):
    """Coordinator grants a queued lock to a client on another server."""

    group: str
    object_id: str
    client: str
    request_id: int


@register(94)
@dataclass(frozen=True, slots=True)
class ReconcileOffer(Message):
    """After a partition heals, each side describes its branch of a group.

    ``partition_base`` is the last sequence number this side believes was
    globally agreed — recorded at coordinator takeover time.  ``-2`` means
    the side never took over (it kept the pre-partition coordinator).
    """

    group: str
    branch_id: str
    checkpoint_seqno: int
    tip_seqno: int
    partition_base: int = -2


@register(108)
@dataclass(frozen=True, slots=True)
class GroupRebase(Message):
    """A coordinator replaces a group's state cluster-wide after
    reconciliation (the losing branch adopts the winner's snapshot)."""

    group: str
    snapshot: StateSnapshot


@register(109)
@dataclass(frozen=True, slots=True)
class GroupForked(Message):
    """Reconciliation chose FORK: this side's branch of *group* continues
    under *new_name* as a separate group (paper §4.2)."""

    group: str
    new_name: str


@register(61)
@dataclass(frozen=True, slots=True)
class RebaseNotice(Message):
    """Server tells a client its replica of *group* was rebased onto a
    reconciled snapshot; the client must replace its view."""

    group: str
    snapshot: StateSnapshot


@register(62)
@dataclass(frozen=True, slots=True)
class ForkNotice(Message):
    """Server tells a client its group continues under a new name."""

    group: str
    new_name: str


class DisconnectReason(enum.IntEnum):
    """Typed reason codes carried by :class:`Disconnect`."""

    #: The connection's bounded outbox overflowed and coalescing could not
    #: shrink it: the consumer is too slow for the traffic it subscribed
    #: to (``docs/flow-control.md``, lag-kick).
    SLOW_CONSUMER = 1
    #: The server is shutting down in an orderly fashion.
    SERVER_SHUTDOWN = 2
    #: The peer violated the protocol.
    PROTOCOL_ERROR = 3


@register(63)
@dataclass(frozen=True, slots=True)
class Disconnect(Message):
    """Server-initiated disconnect notice, flushed on the control lane
    before the transport is closed so the client learns *why* it lost the
    connection (e.g. lag-kicked as a slow consumer)."""

    reason: DisconnectReason
    detail: str = ""


@register(95)
@dataclass(frozen=True, slots=True)
class ReconcileChoice(Message):
    """The application-selected reconciliation outcome for a group.

    ``common_seqno`` carries the last globally consistent point for
    ``ROLL_BACK``; ``adopted_branch`` names the winner for ``ADOPT_ONE``.
    """

    group: str
    policy: ReconcilePolicy
    adopted_branch: str = ""
    common_seqno: int = -2
