"""The single-server Corona core: the stateful logical server of §3.

One :class:`ServerCore` implements the full service suite the paper
describes — group membership, group multicast with sender-inclusive and
sender-exclusive delivery, member-independent state transfer, per-object
locks, and state-log reduction — as a deterministic sans-io state machine.

The core itself is only hello/auth/routing: every group-scoped operation
lives in a :class:`~repro.core.group_runtime.GroupRuntime`, one
self-contained object per group in :attr:`ServerCore.runtimes`.  Request
handlers resolve the runtime for the request's group and delegate; the
``group_sequenced`` / ``group_emptied`` / ``group_reduced`` hooks are
where the replicated service (:mod:`repro.replication`) turns local
decisions into cluster-wide ones.  This split is what lets later work
shard groups across workers and servers (paper §4.1).

The server is *stateful*: it keeps an up-to-date copy of every group's
shared state, in memory (``Group.state`` / ``Group.log``) and, when
persistence is enabled, on stable storage via ``AppendWal`` and
``WriteCheckpoint`` effects that the host executes **off the critical
path**.  Setting ``stateful=False`` turns it into the pure sequencer the
paper compares against in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.auth import Authenticator
from repro.core.clock import Clock
from repro.core.errors import (
    CoronaError,
    GroupExistsError,
    NoSuchGroupError,
    NotAMemberError,
    NotAuthorizedError,
    ProtocolError,
    StaleStateError,
)
from repro.core.events import (
    CreateGroupStorage,
    Effect,
    PurgeGroupStorage,
    StartTimer,
)
from repro.core.group import Group
from repro.core.group_runtime import GroupRuntime, GroupsView
from repro.core.ids import ClientId, ConnId, GroupId
from repro.core.interpreter import DispatchStats
from repro.core.locks import LockGrant
from repro.core.reduction import NeverReduce, ReductionPolicy
from repro.core.scheduler import CommandScheduler
from repro.core.session import AllowAll, GroupAction, SessionCore, SessionManager
from repro.core.transfer import OutgoingTransfer, TransferConfig, chunk_marker
from repro.storage.store import RecoveredGroup
from repro.wire import codec, frames
from repro.wire.messages import (
    Ack,
    AcquireLockRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    ChunkAck,
    CreateGroupRequest,
    DeleteGroupRequest,
    Delivery,
    DeliveryMode,
    GetMembershipRequest,
    GroupDeletedNotice,
    GroupListReply,
    GroupMeta,
    Hello,
    JoinGroupRequest,
    JoinReply,
    LeaveGroupRequest,
    ListGroupsRequest,
    LockGranted,
    MemberInfo,
    MemberRole,
    MembershipNotice,
    Message,
    PingRequest,
    ReduceLogRequest,
    ReleaseLockRequest,
    StateSnapshot,
    TransferResume,
    UpdateKind,
    UpdateRecord,
)

__all__ = ["ServerConfig", "ServerCore", "state_from_snapshot"]

#: Message types that may join an open speculation window instead of
#: flushing it (plain broadcasts; ``bcastState`` barriers inside
#: ``GroupRuntime.broadcast`` after validation).  ``ChunkAck`` only moves
#: a transfer's byte cursor — it reads no group state, so it must not
#: serialize speculated work.
_WINDOW_SAFE = (BcastStateRequest, BcastUpdateRequest, ChunkAck)

#: Prefix of the per-transfer resume-TTL timer key.
_TRANSFER_TTL_PREFIX = "transfer-ttl:"


@dataclass
class _TransferSession:
    """One client's in-flight chunked transfer, plus what the server
    needs to re-admit the member when the transfer resumes."""

    transfer: OutgoingTransfer
    role: MemberRole
    notify_membership: bool


@dataclass
class _Link:
    """A peer host's open connections and its last transfer's bandwidth."""

    conns: int = 0
    bandwidth: float = 0.0


@dataclass
class ServerConfig:
    """Behavioural knobs of one Corona server."""

    server_id: str = "corona-1"
    #: Maintain shared state and the update log.  ``False`` gives the
    #: stateless sequencer-only comparator of Figure 3.
    stateful: bool = True
    #: Write WAL records / checkpoints (requires ``stateful``).
    persist: bool = True
    #: When the service itself triggers state-log reduction.
    reduction: ReductionPolicy = field(default_factory=NeverReduce)
    #: External authority over group-management actions.
    session_manager: SessionManager = field(default_factory=AllowAll)
    #: Fan deliveries out as one multicast per network segment instead of
    #: point-to-point copies (paper §5.3's IP-multicast mode).  Hosts
    #: without multicast support fall back to a unicast loop.
    use_multicast: bool = False
    #: Admission control for the Hello handshake (paper §5.3 future work).
    authenticator: "Authenticator" = field(default_factory=lambda: _allow_any())
    #: Execution lanes for dependency-aware optimistic parallel execution
    #: inside each group (:mod:`repro.core.scheduler`).  0 = strictly
    #: serial, the historical behaviour and the default.
    exec_lanes: int = 0
    #: Commands per speculation window before the owning worker flushes.
    exec_window: int = 64
    #: Chunked/resumable state-transfer knobs (:mod:`repro.core.transfer`).
    transfer: TransferConfig = field(default_factory=TransferConfig)


class ServerCore(SessionCore):
    """Sans-io protocol core of one Corona server."""

    def __init__(
        self,
        config: ServerConfig,
        clock: Clock,
        recovered: dict[str, RecoveredGroup] | None = None,
    ) -> None:
        super().__init__(config, clock)
        #: The per-group service objects, keyed by group name.
        self.runtimes: dict[GroupId, GroupRuntime] = {}
        #: Compatibility mapping ``GroupId -> Group`` over ``runtimes``.
        self.groups = GroupsView(self)
        self._client_groups: dict[ClientId, set[GroupId]] = {}
        #: Observer (trace validation) notified after each state-log
        #: reduction: ``fn(group_name, fold_seqno)``.
        self.on_checkpoint: Callable[[GroupId, int], None] | None = None
        #: Transfer/snapshot counters.  Hosts rebind this to their
        #: interpreter's :class:`DispatchStats` (the same pattern the
        #: optimistic scheduler uses) so the counts surface alongside the
        #: dispatch counters; a bare core keeps its own instance.
        self.stats = DispatchStats()
        #: In-flight chunked transfers, keyed by ``(group, client)``.
        self._transfers: dict[tuple[GroupId, ClientId], _TransferSession] = {}
        self._next_transfer_id = 1
        #: Each connected peer host's link: a transfer opens at the
        #: bandwidth the host's last one measured.
        self._links: dict[Any, _Link] = {}
        self._dispatch: dict[type, Callable[[ConnId, Any], None]] = {
            Hello: self._on_hello,
            CreateGroupRequest: self._on_create,
            DeleteGroupRequest: self._on_delete,
            JoinGroupRequest: self._on_join,
            LeaveGroupRequest: self._on_leave,
            GetMembershipRequest: self._on_get_membership,
            ListGroupsRequest: self._on_list_groups,
            BcastStateRequest: self._on_bcast_state,
            BcastUpdateRequest: self._on_bcast_update,
            AcquireLockRequest: self._on_acquire_lock,
            ReleaseLockRequest: self._on_release_lock,
            ReduceLogRequest: self._on_reduce_log,
            PingRequest: self._on_ping,
            ChunkAck: self._on_chunk_ack,
            TransferResume: self._on_transfer_resume,
        }
        #: Optimistic intra-group parallel scheduler, or ``None`` for the
        #: strictly serial fast path (``exec_lanes == 0``).
        self.scheduler: CommandScheduler | None = (
            CommandScheduler(self, config.exec_lanes, config.exec_window)
            if config.exec_lanes > 0
            else None
        )
        if recovered:
            self._recover(recovered)

    # ------------------------------------------------------------------
    # the per-group runtimes
    # ------------------------------------------------------------------

    def install_group(self, group: Group) -> GroupRuntime:
        """Wrap *group* in a runtime and register it under its name."""
        runtime = GroupRuntime(group, self)
        self.runtimes[group.name] = runtime
        return runtime

    def _runtime_named(self, name: GroupId) -> GroupRuntime:
        runtime = self.runtimes.get(name)
        if runtime is None:
            raise NoSuchGroupError(f"no group named {name!r}")
        return runtime

    def _group_named(self, name: GroupId) -> Group:
        return self._runtime_named(name).group

    # ------------------------------------------------------------------
    # live migration (repro.runtime.sharding drives these)
    # ------------------------------------------------------------------

    def detach_group(self, name: GroupId) -> GroupRuntime | None:
        """Freeze half of a migration: unregister the runtime so no new
        command can reach it, but keep the client indexes intact — the
        members are still connected and, if the migration aborts, the
        runtime is re-adopted as-is via :meth:`adopt_group`."""
        return self.runtimes.pop(name, None)

    def adopt_group(self, group: Group) -> GroupRuntime:
        """Install a migrated-in (or abort-restored) group, re-linking
        every member into the client→groups index so a later disconnect
        removes them here, on the new owner."""
        runtime = self.install_group(group)
        for member in group.members():
            self._client_groups.setdefault(member.client_id, set()).add(group.name)
        return runtime

    def forget_group(self, group: Group) -> None:
        """Drop every reference to a migrated-away group without emitting
        leave notices — the group still exists, it just lives elsewhere
        now.  Safe to call whether or not the runtime is still (or again)
        registered."""
        self.runtimes.pop(group.name, None)
        self._drop_transfers_of(group.name)
        for member in group.members():
            self._client_groups.get(member.client_id, set()).discard(group.name)

    # ------------------------------------------------------------------
    # per-group hooks (the replication layer overrides these)
    # ------------------------------------------------------------------

    def group_sequenced(
        self,
        runtime: GroupRuntime,
        record: UpdateRecord,
        mode: DeliveryMode,
        sender_conn: ConnId,
    ) -> None:
        """A record was sequenced by a local client request.  The
        replicated coordinator distributes it to interested peers."""

    def group_emptied(self, runtime: GroupRuntime) -> None:
        """The last member left.  Locally a transient group dies with
        null membership (§3.1); a replica instead withdraws interest and
        leaves the decision to the coordinator."""
        if runtime.group.dies_when_empty:
            self._drop_group(runtime.group)

    def group_reduced(self, runtime: GroupRuntime, tip: int) -> None:
        """A state-log reduction up to *tip* was requested (and performed
        when anything remained to fold).  The replicated coordinator
        relays the order cluster-wide."""

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def _recover(self, recovered: dict[str, RecoveredGroup]) -> None:
        """Rebuild persistent groups from checkpoints + WAL suffixes."""
        for name, data in recovered.items():
            meta = codec.decode(data.meta)
            if not isinstance(meta, GroupMeta):
                raise ProtocolError(f"group {name!r} has corrupt metadata")
            group = Group(
                name=meta.name,
                persistent=meta.persistent,
                initial_state=meta.initial_state,
                created_at=meta.created_at,
            )
            if data.snapshot is not None:
                snapshot = codec.decode(data.snapshot)
                if not isinstance(snapshot, StateSnapshot):
                    raise ProtocolError(f"group {name!r} has corrupt checkpoint")
                group.state = state_from_snapshot(snapshot)
                group.log.trim_to(snapshot.base_seqno)
                group.sequencer.fast_forward(snapshot.base_seqno)
            for _seqno, payload in data.records:
                record = codec.decode(payload)
                if not isinstance(record, UpdateRecord):
                    raise ProtocolError(f"group {name!r} has a corrupt WAL record")
                group.log.append(record)
                group.state.apply(record)
                group.sequencer.fast_forward(record.seqno)
            self.install_group(group)

    # ------------------------------------------------------------------
    # host entry points
    # ------------------------------------------------------------------

    def handle_message(self, conn: ConnId, message: Message) -> None:
        scheduler = self.scheduler
        if (
            scheduler is not None
            and scheduler.pending
            and type(message) not in _WINDOW_SAFE
        ):
            # everything except plain broadcasts is a scheduling barrier:
            # membership, locks, reduction, and queries must observe
            # fully committed state
            scheduler.flush()
        handler = self._dispatch.get(type(message))
        if handler is None:
            self._reply_error(
                conn, getattr(message, "request_id", 0),
                ProtocolError(f"unexpected message {type(message).__name__}"),
            )
            return
        try:
            handler(conn, message)
        except CoronaError as err:
            if scheduler is not None and scheduler.pending:
                # the error reply must not overtake speculated work on
                # the same connection — commit first, reply after
                scheduler.flush()
            self._reply_error(conn, getattr(message, "request_id", 0), err)

    def handle_timer(self, key: str) -> None:
        if key.startswith(_TRANSFER_TTL_PREFIX):
            self._expire_transfer(int(key[len(_TRANSFER_TTL_PREFIX):]))
            return
        if self.scheduler is not None and self.scheduler.pending:
            self.scheduler.flush()

    def begin_batch(self) -> None:
        """Open a speculation window (no-op on a serial core).

        Worker loops bracket each mailbox batch with ``begin_batch`` /
        ``end_batch``; in between, broadcasts execute optimistically on
        the scheduler's lanes and commit in seqno order.
        """
        if self.scheduler is not None:
            self.scheduler.open()

    def end_batch(self) -> list[Effect]:
        """Close the window, commit everything pending, and return the
        effects those commits emitted."""
        if self.scheduler is not None:
            self.scheduler.close()
        return self.drain()

    def handle_connected(self, conn: ConnId, peer: Any, key: str) -> None:
        super().handle_connected(conn, peer, key)
        host = self._host_of(conn)
        if host is not None:
            self._links.setdefault(host, _Link()).conns += 1

    def _host_of(self, conn: ConnId | None) -> Any:
        """*conn*'s peer host: a TCP "address:port" without its port, the
        client's host id in the simulator (None: not known)."""
        peer = self._conn_addr.get(conn)
        return (peer.rpartition(":")[0] or peer) if isinstance(peer, str) else peer

    def _forget_conn(self, conn: ConnId) -> ClientId | None:
        host = self._host_of(conn)
        link = self._links.get(host)
        if link is not None:
            link.conns -= 1
            if not link.conns:  # forgotten with the host's last connection
                del self._links[host]
        return super()._forget_conn(conn)

    def handle_closed(self, conn: ConnId) -> None:
        """Client failure or disconnect: unobtrusive removal everywhere."""
        if self.scheduler is not None and self.scheduler.pending:
            # membership changes are whole-state barriers
            self.scheduler.flush()
        client = self._forget_conn(conn)
        if client is None:
            return
        for group_name in sorted(self._client_groups.pop(client, set())):
            runtime = self.runtimes.get(group_name)
            if runtime is not None and runtime.group.is_member(client):
                runtime.remove_member(client)
        now = self.clock.now()
        for (_group, owner_client), session in self._transfers.items():
            if owner_client == client and not session.transfer.paused:
                session.transfer.pause(now)
                self.emit(StartTimer(
                    f"{_TRANSFER_TTL_PREFIX}{session.transfer.transfer_id}",
                    self.config.transfer.resume_ttl,
                ))

    # ------------------------------------------------------------------
    # group management
    # ------------------------------------------------------------------

    def _on_create(self, conn: ConnId, msg: CreateGroupRequest) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.CREATE, msg.group)
        if msg.group in self.runtimes:
            raise GroupExistsError(f"group {msg.group!r} already exists")
        group = Group(
            name=msg.group,
            persistent=msg.persistent,
            initial_state=msg.initial_state,
            created_at=self.clock.now(),
        )
        self.install_group(group)
        if self._persists:
            meta = GroupMeta(
                name=msg.group,
                persistent=msg.persistent,
                initial_state=msg.initial_state,
                created_at=group.created_at,
            )
            self.emit(CreateGroupStorage(msg.group, frames.payload_of(meta)))
        self.send(conn, Ack(msg.request_id))

    def _on_delete(self, conn: ConnId, msg: DeleteGroupRequest) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.DELETE, msg.group)
        group = self._group_named(msg.group)
        notice = GroupDeletedNotice(msg.group)
        for member in group.members():
            self._client_groups.get(member.client_id, set()).discard(msg.group)
            if member.client_id != client:
                self.send(member.conn, notice)
        self._drop_group(group)
        self.send(conn, Ack(msg.request_id))

    def _drop_group(self, group: Group) -> None:
        del self.runtimes[group.name]
        self._drop_transfers_of(group.name)
        if self._persists:
            self.emit(PurgeGroupStorage(group.name))

    def _on_join(self, conn: ConnId, msg: JoinGroupRequest) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.JOIN, msg.group)
        runtime = self._runtime_named(msg.group)
        # A fresh join supersedes any resumable transfer left over from a
        # previous attempt — the client chose to restart, not resume.
        self._transfers.pop((msg.group, client), None)
        runtime.join(conn, client, msg)
        self._client_groups.setdefault(client, set()).add(msg.group)

    def _on_leave(self, conn: ConnId, msg: "LeaveGroupRequest") -> None:
        client = self._client_of(conn)
        runtime = self._runtime_named(msg.group)
        if not runtime.group.is_member(client):
            raise NotAMemberError(f"{client!r} is not in {msg.group!r}")
        self._client_groups.get(client, set()).discard(msg.group)
        self._transfers.pop((msg.group, client), None)
        runtime.remove_member(client)
        self.send(conn, Ack(msg.request_id))

    def _notify_membership(
        self,
        group: Group,
        joined: tuple[MemberInfo, ...],
        left: tuple[MemberInfo, ...],
    ) -> None:
        subscribers = group.notice_subscribers()
        if not subscribers:
            return
        notice = MembershipNotice(
            group=group.name,
            joined=joined,
            left=left,
            members=group.member_infos(),
        )
        changed = {m.client_id for m in joined} | {m.client_id for m in left}
        for member in subscribers:
            if member.client_id not in changed:
                self.send(member.conn, notice)

    def _membership_for_reply(self, group: Group) -> tuple[MemberInfo, ...]:
        """Membership reported to clients; replicas override with the
        coordinator-maintained group-wide view."""
        return group.member_infos()

    def _on_get_membership(self, conn: ConnId, msg: GetMembershipRequest) -> None:
        self._client_of(conn)
        self._runtime_named(msg.group).reply_membership(conn, msg.request_id)

    def _on_list_groups(self, conn: ConnId, msg: ListGroupsRequest) -> None:
        self._client_of(conn)
        infos = tuple(g.info() for g in self.groups.values())
        self.send(conn, GroupListReply(msg.request_id, infos))

    # ------------------------------------------------------------------
    # multicast
    # ------------------------------------------------------------------

    def _on_bcast_state(self, conn: ConnId, msg: BcastStateRequest) -> None:
        self._bcast(conn, msg, UpdateKind.STATE)

    def _on_bcast_update(self, conn: ConnId, msg: BcastUpdateRequest) -> None:
        self._bcast(conn, msg, UpdateKind.UPDATE)

    def _bcast(
        self,
        conn: ConnId,
        msg: BcastStateRequest | BcastUpdateRequest,
        kind: UpdateKind,
    ) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.BROADCAST, msg.group)
        self._runtime_named(msg.group).broadcast(conn, client, msg, kind)

    def apply_and_deliver(
        self,
        group: Group,
        record: UpdateRecord,
        mode: DeliveryMode,
    ) -> None:
        """Apply a sequenced record on *group*'s runtime (compatibility
        entry point for callers holding a :class:`Group`)."""
        self.runtimes[group.name].apply_and_deliver(record, mode)

    # ------------------------------------------------------------------
    # chunked state transfer (contract: docs/protocol.md)
    # ------------------------------------------------------------------

    def start_transfer(
        self,
        client: ClientId,
        snapshot: StateSnapshot,
        *,
        role: MemberRole,
        notify_membership: bool,
    ) -> StateSnapshot | None:
        """Open a chunked transfer session for *snapshot* if it is worth
        chunking; returns the ``SNAP_CHUNKED`` marker to put in the
        :class:`JoinReply`, or ``None`` to stay on the monolithic path
        (small payloads keep the byte/timing-identical cached fast path).
        """
        cfg = self.config.transfer
        if len(frames.payload_of(snapshot)) <= cfg.chunk_threshold_bytes:
            return None
        host = self._host_of(self._client_conn.get(client))
        transfer = OutgoingTransfer(
            group=snapshot.group,
            client=client,
            transfer_id=self._next_transfer_id,
            snapshot=snapshot,
            config=cfg,
            now=self.clock.now(),
            bandwidth=self._links.get(host, _Link()).bandwidth,
        )
        self._next_transfer_id += 1
        self._transfers[(snapshot.group, client)] = _TransferSession(
            transfer, role, notify_membership
        )
        self.stats.chunked_transfers += 1
        return chunk_marker(snapshot)

    def pump_transfer(self, group: GroupId, client: ClientId) -> None:
        """Send every chunk the transfer's in-flight window allows."""
        session = self._transfers.get((group, client))
        conn = self._client_conn.get(client)
        if session is None or conn is None:
            return
        for chunk in session.transfer.next_chunks():
            self.send(conn, chunk)

    def _on_chunk_ack(self, conn: ConnId, msg: ChunkAck) -> None:
        client = self._client_of(conn)
        key = (msg.group, client)
        session = self._transfers.get(key)
        if session is None or session.transfer.transfer_id != msg.transfer_id:
            # Ack for a finished or superseded transfer — harmless.
            return
        for chunk in session.transfer.on_ack(msg.offset, self.clock.now()):
            self.send(conn, chunk)
        if session.transfer.done:
            del self._transfers[key]
            link = self._links.get(self._host_of(conn))
            if link is not None:  # a transfer without a sample keeps the old one
                link.bandwidth = session.transfer.bandwidth or link.bandwidth

    def _on_transfer_resume(self, conn: ConnId, msg: TransferResume) -> None:
        client = self._client_of(conn)
        key = (msg.group, client)
        session = self._transfers.get(key)
        now = self.clock.now()
        if (session is None
                or session.transfer.transfer_id != msg.transfer_id
                or (session.transfer.expires_at is not None
                    and now >= session.transfer.expires_at)):
            self._transfers.pop(key, None)
            raise StaleStateError(
                f"transfer {msg.transfer_id} for {msg.group!r} is not "
                f"resumable; rejoin instead"
            )
        runtime = self._runtime_named(msg.group)
        group = runtime.group
        # The catch-up suffix must still exist: the frozen payload plus
        # the deliveries after ``have_seqno`` is what reaches tip state.
        # StaleStateError propagates to the client, which rejoins fresh.
        try:
            missed = group.log.since(msg.have_seqno)
        except StaleStateError:
            self._transfers.pop(key, None)
            raise
        if not session.transfer.resume(msg.offset, now):
            self._transfers.pop(key, None)
            raise StaleStateError(
                f"offset {msg.offset} is outside transfer {msg.transfer_id}"
            )
        self.stats.transfer_resumes += 1
        if group.is_member(client):
            group.rebind_member(client, conn)
        else:
            member = group.add_member(
                client, conn, session.role,
                wants_membership_notices=session.notify_membership,
            )
            self._client_groups.setdefault(client, set()).add(msg.group)
            self._notify_membership(group, joined=(member.info(),), left=())
        self.send(conn, JoinReply(
            msg.request_id,
            chunk_marker(session.transfer.snapshot),
            self._membership_for_reply(group),
        ))
        # Replay the deliveries the client missed while disconnected;
        # they land in its catch-up buffer like any live update.
        for record in missed:
            self.send(conn, Delivery(group.name, record))
        self.pump_transfer(msg.group, client)

    def _expire_transfer(self, transfer_id: int) -> None:
        """TTL fired: forget the session if it is still paused."""
        for key, session in list(self._transfers.items()):
            transfer = session.transfer
            if (transfer.transfer_id == transfer_id and transfer.paused
                    and transfer.expires_at is not None
                    and self.clock.now() >= transfer.expires_at):
                del self._transfers[key]

    def _drop_transfers_of(self, group: GroupId) -> None:
        for key in [k for k in self._transfers if k[0] == group]:
            del self._transfers[key]

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------

    def _on_acquire_lock(self, conn: ConnId, msg: AcquireLockRequest) -> None:
        client = self._client_of(conn)
        runtime = self._runtime_named(msg.group)
        runtime.group.member(client)  # must be a member
        runtime.acquire_lock(conn, client, msg)

    def _on_release_lock(self, conn: ConnId, msg: ReleaseLockRequest) -> None:
        client = self._client_of(conn)
        self._runtime_named(msg.group).release_lock(conn, client, msg)

    def _send_grant(self, group: Group, grant: LockGrant) -> None:
        conn = self._client_conn.get(grant.client)
        if conn is not None:
            self.send(conn, LockGranted(grant.request_id, group.name, grant.object_id))

    # ------------------------------------------------------------------
    # log reduction
    # ------------------------------------------------------------------

    def _on_reduce_log(self, conn: ConnId, msg: ReduceLogRequest) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.REDUCE, msg.group)
        self._runtime_named(msg.group).reduce()
        self.send(conn, Ack(msg.request_id))

    def reduce_group(self, group: Group, upto: int | None = None) -> None:
        """Reduce *group*'s runtime (compatibility entry point)."""
        self.runtimes[group.name].reduce(upto=upto)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def _authorize(self, client: ClientId, action: GroupAction, group: GroupId) -> None:
        if not self.config.session_manager.authorize(client, action, group):
            raise NotAuthorizedError(
                f"{client!r} may not {action.value} {group!r}"
            )

    @property
    def _persists(self) -> bool:
        return self.config.stateful and self.config.persist


def _allow_any() -> Authenticator:
    from repro.core.auth import AllowAnyClient

    return AllowAnyClient()


def state_from_snapshot(snapshot: StateSnapshot) -> "SharedState":
    """Rebuild a SharedState from a folded checkpoint snapshot."""
    from repro.core.state import SharedState

    state = SharedState(snapshot.objects, base_seqno=snapshot.base_seqno)
    for record in snapshot.updates:
        state.apply(record)
    return state
