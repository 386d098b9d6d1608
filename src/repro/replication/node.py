"""The replicated Corona server node (paper §4).

One :class:`ReplicatedServerCore` runs on every server of a replicated
deployment.  The node at the head of the server list acts as
**coordinator**: it sequences every multicast (global total order), owns
the cluster-wide group registry, membership view and lock table, monitors
the other servers with heartbeats, and keeps a copy of every group's
state.  The other nodes are **replicas**: they serve their local clients
directly, keep state copies for the groups those clients use (plus any
hot-standby assignments), and forward sequencing/control decisions to the
coordinator.

Message flow for a broadcast from a client of replica R (paper §4.1):

    client -> R        BcastUpdateRequest
    R -> coordinator   ForwardBcast                (after local validation)
    coordinator        allocates seqno, applies to its copy, logs
    coordinator -> S*  SequencedBcast              (only interested servers)
    S* -> clients      Delivery                    (their local members)
    R -> client        Ack                         (on its SequencedBcast)

Failure handling follows §4.2: the coordinator heartbeats every server;
replicas watch for heartbeat silence with position-scaled patience (the
first in line suspects after t, the second after 2t, ...), then run the
ack-from-half-plus-one takeover protocol.  A new coordinator rebuilds the
registry from the surviving replicas' re-registrations and state fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.clock import Clock
from repro.core.errors import (
    CoronaError,
    GroupExistsError,
    LockHeldError,
    NoSuchGroupError,
    NotAuthorizedError,
    PartitionedError,
)
from repro.core.events import (
    CreateGroupStorage,
    OpenConnection,
    StartTimer,
)
from repro.core.events import SendMulticast as SendMulticastEffect
from repro.core.events import WriteCheckpoint as WriteCheckpointEffect
from repro.core.group import Group
from repro.core.ids import ClientId, ConnId, GroupId
from repro.core.log import StateLog
from repro.core.server import ServerConfig, ServerCore, state_from_snapshot
from repro.core.session import GroupAction
from repro.core.transfer import build_snapshot
from repro.storage.store import RecoveredGroup
from repro.wire import codec, frames
from repro.wire.messages import (
    Ack,
    AcquireLockRequest,
    BackupAssign,
    BcastStateRequest,
    BcastUpdateRequest,
    CoordinatorAnnounce,
    CreateGroupRequest,
    DeleteGroupRequest,
    DeliveryMode,
    ElectionReply,
    ElectionRequest,
    ErrorReply,
    ForwardAcquireLock,
    ForwardBcast,
    ForwardCreateGroup,
    ForwardDeleteGroup,
    ForwardOutcome,
    ForwardReduceLog,
    ForwardReleaseLock,
    GroupCreated,
    GroupDeletedNotice,
    GroupDropped,
    GroupInfo,
    GroupInterest,
    GroupListReply,
    GroupMembership,
    GroupMeta,
    Heartbeat,
    HeartbeatAck,
    JoinGroupRequest,
    ListGroupsRequest,
    LockGranted,
    MemberInfo,
    MemberRole,
    MembershipNotice,
    MemberUpdate,
    Message,
    ReduceLogRequest,
    ReduceOrder,
    ReleaseLockRequest,
    RemoteLockGrant,
    SequencedBcast,
    ServerHello,
    ServerHelloReply,
    ServerInfo,
    ServerListUpdate,
    StateFetchReply,
    StateFetchRequest,
    StateSnapshot,
    TransferPolicy,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)
from repro.replication.partition import (
    ReconcileChooser,
    adopt_senior,
    common_point,
    rollback_state,
)
from repro.replication.topology import ServerList
from repro.wire.messages import (
    ForkNotice,
    GroupForked,
    GroupRebase,
    RebaseNotice,
    ReconcileChoice,
    ReconcileOffer,
    ReconcilePolicy,
)

__all__ = [
    "ReplicationConfig",
    "ReplicatedServerCore",
    "TIMER_HB_SEND",
    "TIMER_HB_WATCH",
    "TIMER_ELECTION",
]

#: Timer keys of the replication layer (shared with tests and tooling so
#: failure-injection scripts can fire them without re-spelling strings).
TIMER_HB_SEND = "repl-hb-send"
TIMER_HB_WATCH = "repl-hb-watch"
TIMER_ELECTION = "repl-election"


@dataclass
class ReplicationConfig:
    """Deployment parameters of one replicated node."""

    #: This server's identity and address.
    info: ServerInfo
    #: The configuration-file server list, in bring-up order; its head is
    #: the initial coordinator.
    initial_servers: tuple[ServerInfo, ...]
    #: Coordinator-to-server heartbeat period (paper §4.2).
    heartbeat_interval: float = 1.0
    #: Base suspicion timeout t; server at succession position p waits p*t.
    suspicion_timeout: float = 3.0
    #: Application policy for diverged groups after a partition heals
    #: (paper §4.2: "the selection [...] is application dependent").
    reconcile_chooser: ReconcileChooser = adopt_senior


@dataclass
class _PendingForward:
    """Bookkeeping for one client request forwarded to the coordinator."""

    conn: ConnId
    request_id: int
    kind: str


class ReplicatedServerCore(ServerCore):
    """A Corona server participating in the replicated service."""

    def __init__(
        self,
        config: ServerConfig,
        rconfig: ReplicationConfig,
        clock: Clock,
        recovered: dict[str, RecoveredGroup] | None = None,
    ) -> None:
        super().__init__(config, clock, recovered=recovered)
        self.rconfig = rconfig
        self.server_list = ServerList(list(rconfig.initial_servers))
        self.epoch = 0
        #: Cluster-wide registry: every group that exists, installed or not.
        self.known_groups: dict[GroupId, GroupCreated] = {}
        #: Group-wide membership view (maintained by the coordinator,
        #: mirrored at replicas through GroupMembership pushes).
        self.global_members: dict[GroupId, dict[ClientId, MemberInfo]] = {}
        #: client id -> server id hosting it (for remote lock grants).
        self.client_server: dict[ClientId, str] = {}
        # coordinator-side registries
        self._interest: dict[GroupId, set[str]] = {}
        self._backups: dict[GroupId, set[str]] = {}
        self._hb_seq = 0
        self._hb_acks: dict[str, float] = {}
        self._remote_waiters: dict[tuple[GroupId, str, ClientId], tuple[str, int]] = {}
        # replica-side state
        self._peer_conn: dict[str, ConnId] = {}
        self._conn_peer: dict[ConnId, str] = {}
        self._pending_forwards: dict[int, _PendingForward] = {}
        self._forward_ids = iter(range(1, 1 << 62))
        self._last_heartbeat = clock.now()
        self._pending_joins: dict[GroupId, list[tuple[ConnId, JoinGroupRequest]]] = {}
        self._buffered: dict[GroupId, list[SequencedBcast]] = {}
        self._fetching: set[GroupId] = set()
        self._fetch_ids = iter(range(1, 1 << 62))
        self._fetch_groups: dict[int, GroupId] = {}
        #: Forwarded broadcasts parked while this (new) coordinator is
        #: still fetching the group's state.
        self._parked_forwards: dict[GroupId, list[tuple[ConnId, ForwardBcast]]] = {}
        self._backup_of: set[GroupId] = set()
        # election state
        self._votes: set[str] = set()
        self._election_dead: set[str] = set()
        self._candidate_epoch = 0
        self._voted_epochs: set[int] = set()
        self._suspects_coordinator = False
        # reconciliation state (junior side)
        self._takeover_base: dict[GroupId, int] = {}
        self._reconcile_with: str | None = None
        self._reconcile_outstanding: set[GroupId] = set()
        self._pending_demotion: ServerHelloReply | None = None
        self._extra_peers: dict[str, ServerInfo] = {}
        self._fetch_purpose: dict[int, str] = {}
        # seed registries from any recovered groups
        for name, group in self.groups.items():
            self.known_groups[name] = GroupCreated(
                name, group.persistent, group.initial_state, group.created_at
            )
        self._server_dispatch: dict[type, Any] = {
            ServerHello: self._on_server_hello,
            ServerHelloReply: self._on_server_hello_reply,
            ServerListUpdate: self._on_server_list,
            Heartbeat: self._on_heartbeat,
            HeartbeatAck: self._on_heartbeat_ack,
            ForwardBcast: self._on_forward_bcast,
            SequencedBcast: self._on_sequenced,
            ForwardCreateGroup: self._on_forward_create,
            ForwardDeleteGroup: self._on_forward_delete,
            ForwardReduceLog: self._on_forward_reduce,
            ForwardAcquireLock: self._on_forward_acquire,
            ForwardReleaseLock: self._on_forward_release,
            RemoteLockGrant: self._on_remote_grant,
            ForwardOutcome: self._on_forward_outcome,
            GroupCreated: self._on_group_created,
            GroupDropped: self._on_group_dropped,
            GroupInterest: self._on_group_interest,
            MemberUpdate: self._on_member_update,
            GroupMembership: self._on_group_membership,
            ReduceOrder: self._on_reduce_order,
            StateFetchRequest: self._on_state_fetch,
            StateFetchReply: self._on_state_fetch_reply,
            ElectionRequest: self._on_election_request,
            ElectionReply: self._on_election_reply,
            CoordinatorAnnounce: self._on_coordinator_announce,
            BackupAssign: self._on_backup_assign,
            ReconcileOffer: self._on_reconcile_offer,
            ReconcileChoice: self._on_reconcile_choice,
            GroupRebase: self._on_group_rebase,
            GroupForked: self._on_group_forked,
        }

    # ------------------------------------------------------------------
    # identity helpers
    # ------------------------------------------------------------------

    @property
    def server_id(self) -> str:
        return self.rconfig.info.server_id

    @property
    def is_coordinator(self) -> bool:
        head = self.server_list.coordinator()
        return head is not None and head.server_id == self.server_id

    @property
    def coordinator_id(self) -> str | None:
        head = self.server_list.coordinator()
        return head.server_id if head else None

    def _coordinator_conn(self) -> ConnId | None:
        coord = self.coordinator_id
        if coord is None or coord == self.server_id:
            return None
        return self._peer_conn.get(coord)

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------

    def start(self) -> list:
        """Arm timers and dial the coordinator; host runs this once."""
        if self.is_coordinator:
            self.emit(StartTimer(TIMER_HB_SEND, self.rconfig.heartbeat_interval))
            # the initial coordinator installs every recovered group
            for name in self.groups:
                self._interest.setdefault(name, set())
        else:
            self._dial(self.coordinator_id)
            self.emit(StartTimer(TIMER_HB_WATCH, self.rconfig.heartbeat_interval))
        return []

    def _dial(self, server_id: str | None) -> None:
        if server_id is None or server_id == self.server_id:
            return
        if server_id in self._peer_conn:
            return
        info = self.server_list.get(server_id) or self._extra_peers.get(server_id)
        if info is None:
            return
        self.emit(OpenConnection((info.host, info.port), key=f"peer:{server_id}"))

    def _send_peer(self, server_id: str, message: Message) -> bool:
        conn = self._peer_conn.get(server_id)
        if conn is None:
            return False
        self.send(conn, message)
        return True

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def handle_connected(self, conn: ConnId, peer: Any, key: str) -> None:
        super().handle_connected(conn, peer, key)
        if key.startswith("peer:"):
            server_id = key.split(":", 1)[1]
            self._peer_conn[server_id] = conn
            self._conn_peer[conn] = server_id
            self.send(conn, ServerHello(self.rconfig.info, self.epoch))
            if self._candidate_epoch > self.epoch:
                # mid-election dial completed: deliver our vote request
                self.send(conn, ElectionRequest(self.server_id, self._candidate_epoch))

    def handle_closed(self, conn: ConnId) -> None:
        server_id = self._conn_peer.pop(conn, None)
        if server_id is None:
            super().handle_closed(conn)  # a client connection
            return
        self._forget_conn(conn)  # its host's link counted it on connect
        if self._peer_conn.get(server_id) == conn:
            del self._peer_conn[server_id]
        if self.is_coordinator:
            self._coordinator_lost_server(server_id)
        elif server_id == self.coordinator_id:
            self._suspects_coordinator = True
            self._fail_pending_forwards()
            self._schedule_election_attempt()
        elif self._candidate_epoch > self.epoch:
            # an electorate member is unreachable mid-election: it cannot
            # vote, so it leaves the electorate (simultaneous crashes —
            # the paper's k-of-k+1 case)
            self._election_dead.add(server_id)
            self._maybe_win_election()

    def handle_message(self, conn: ConnId, message: Message) -> None:
        handler = self._server_dispatch.get(type(message))
        if handler is None:
            super().handle_message(conn, message)
            return
        try:
            handler(conn, message)
        except CoronaError as err:
            # inter-server messages have no request/reply channel; a
            # protocol error here indicates a bug, so re-raise loudly.
            raise

    # ------------------------------------------------------------------
    # server handshake and list maintenance
    # ------------------------------------------------------------------

    def _on_server_hello(self, conn: ConnId, msg: ServerHello) -> None:
        server_id = msg.info.server_id
        self._peer_conn[server_id] = conn
        self._conn_peer[conn] = server_id
        self.epoch = max(self.epoch, msg.epoch)
        if not self.is_coordinator:
            return  # peer-to-peer link (election traffic only)
        if self.server_list.add(msg.info):
            self._broadcast_server_list()
        self.send(
            conn,
            ServerHelloReply(
                self.server_id, self.epoch,
                tuple(self.server_list.servers), self.server_list.version,
            ),
        )

    def _on_server_hello_reply(self, conn: ConnId, msg: ServerHelloReply) -> None:
        if self._reconcile_with == self._conn_peer.get(conn):
            # junior coordinator contacting the senior after a partition
            # heals: reconcile every group before demoting
            self._pending_demotion = msg
            self._send_reconcile_offers(conn)
            return
        self.server_list.replace(msg.servers, msg.list_version)
        self.epoch = max(self.epoch, msg.epoch)
        self._last_heartbeat = self.clock.now()
        self._suspects_coordinator = False
        self._reregister_with_coordinator()

    def _broadcast_server_list(self) -> None:
        update = ServerListUpdate(
            tuple(self.server_list.servers), self.server_list.version, self.epoch
        )
        for info in self.server_list.peers_of(self.server_id):
            self._send_peer(info.server_id, update)

    def _on_server_list(self, conn: ConnId, msg: ServerListUpdate) -> None:
        if msg.epoch >= self.epoch:
            self.server_list.replace(msg.servers, msg.list_version)

    # ------------------------------------------------------------------
    # heartbeats and failure detection (paper §4.2)
    # ------------------------------------------------------------------

    def handle_timer(self, key: str) -> None:
        if key == TIMER_HB_SEND:
            self._heartbeat_round()
        elif key == TIMER_HB_WATCH:
            self._watch_coordinator()
        elif key == TIMER_ELECTION:
            self._start_election()
        else:
            super().handle_timer(key)

    def _heartbeat_round(self) -> None:
        if not self.is_coordinator:
            return
        self._hb_seq += 1
        beat = Heartbeat(self.server_id, self._hb_seq, self.epoch)
        now = self.clock.now()
        for info in self.server_list.peers_of(self.server_id):
            sid = info.server_id
            if not self._send_peer(sid, beat):
                self._dial(sid)
            last = self._hb_acks.get(sid)
            if last is not None and now - last > self.rconfig.suspicion_timeout:
                self._coordinator_lost_server(sid)
        self.emit(StartTimer(TIMER_HB_SEND, self.rconfig.heartbeat_interval))

    def _on_heartbeat(self, conn: ConnId, msg: Heartbeat) -> None:
        if msg.epoch < self.epoch:
            return  # a deposed coordinator; ignore
        self.epoch = max(self.epoch, msg.epoch)
        self._last_heartbeat = self.clock.now()
        self._suspects_coordinator = False
        self.send(conn, HeartbeatAck(self.server_id, msg.seq, self.epoch))

    def _on_heartbeat_ack(self, conn: ConnId, msg: HeartbeatAck) -> None:
        self._hb_acks[msg.server_id] = self.clock.now()

    def _watch_coordinator(self) -> None:
        if not self.is_coordinator:
            position = max(1, self.server_list.position(self.server_id))
            patience = self.rconfig.suspicion_timeout * position
            if self.clock.now() - self._last_heartbeat > patience:
                self._suspects_coordinator = True
                self._start_election()
            self.emit(StartTimer(TIMER_HB_WATCH, self.rconfig.heartbeat_interval))

    def _schedule_election_attempt(self) -> None:
        position = max(1, self.server_list.position(self.server_id))
        # position-scaled delay: the rightful successor moves first
        delay = self.rconfig.suspicion_timeout * 0.2 * position
        self.emit(StartTimer(TIMER_ELECTION, delay))

    def _coordinator_lost_server(self, server_id: str) -> None:
        """Coordinator-side handling of a dead replica."""
        if not self.server_list.remove(server_id):
            return
        self._hb_acks.pop(server_id, None)
        self._broadcast_server_list()
        for group, holders in self._interest.items():
            holders.discard(server_id)
        for group, holders in self._backups.items():
            holders.discard(server_id)
        # dead server's clients are gone: update membership and locks
        for group, members in list(self.global_members.items()):
            gone = [
                info for cid, info in members.items()
                if self.client_server.get(cid) == server_id
            ]
            if gone:
                self._coordinator_membership_change(
                    group, joined=(), left=tuple(gone)
                )
        self._ensure_backups()

    # ------------------------------------------------------------------
    # election (paper §4.2)
    # ------------------------------------------------------------------

    def _start_election(self) -> None:
        if self.is_coordinator or not self._suspects_coordinator:
            return
        dead_coord = self.coordinator_id
        self._candidate_epoch = self.epoch + 1
        self._voted_epochs.add(self._candidate_epoch)  # our vote is ours
        self._votes = {self.server_id}
        self._election_dead = set()
        request = ElectionRequest(self.server_id, self._candidate_epoch)
        for info in self.server_list.peers_of(self.server_id):
            if info.server_id == dead_coord:
                continue
            if not self._send_peer(info.server_id, request):
                # no link yet: dial; the request is re-sent on connect
                self._dial(info.server_id)
        self._maybe_win_election()

    def _on_election_request(self, conn: ConnId, msg: ElectionRequest) -> None:
        fresh = msg.epoch > self.epoch and msg.epoch not in self._voted_epochs
        senior_rival = (
            # same-epoch tie-break: defer to a candidate earlier in the
            # bring-up order (the paper's rightful successor)
            msg.epoch == self._candidate_epoch
            and self._candidate_epoch > self.epoch
            and 0 <= self.server_list.position(msg.candidate)
            < self.server_list.position(self.server_id)
        )
        granted = (
            (fresh or senior_rival)
            and self._suspects_coordinator
            and not self.is_coordinator
        )
        if granted:
            self._voted_epochs.add(msg.epoch)
            if senior_rival:
                self._candidate_epoch = 0  # abandon our own candidacy
        self.send(conn, ElectionReply(self.server_id, msg.epoch, granted))

    def _on_election_reply(self, conn: ConnId, msg: ElectionReply) -> None:
        if msg.epoch != self._candidate_epoch or not msg.granted:
            return
        self._votes.add(msg.voter)
        self._maybe_win_election()

    def _maybe_win_election(self) -> None:
        if self._candidate_epoch <= self.epoch:
            return
        # half+1 of the remaining servers (the dead coordinator and peers
        # found unreachable during this election excluded)
        remaining = [
            s for s in self.server_list.ids()
            if s != self.coordinator_id and s not in self._election_dead
        ]
        needed = len(remaining) // 2 + 1
        if len(self._votes) < needed:
            return
        old_coordinator = self.coordinator_id
        self.epoch = self._candidate_epoch
        self._candidate_epoch = 0
        if old_coordinator:
            self.server_list.remove(old_coordinator)
        # move self to the head (it may not have been position 1 if
        # intermediate servers also died)
        self_info = self.server_list.get(self.server_id) or self.rconfig.info
        self.server_list.remove(self.server_id)
        self.server_list.servers.insert(0, self_info)
        self.server_list.version += 1
        self._suspects_coordinator = False
        announce = CoordinatorAnnounce(
            self.server_id, self.epoch,
            tuple(self.server_list.servers), self.server_list.version,
        )
        for info in self.server_list.peers_of(self.server_id):
            self._dial(info.server_id)
            self._send_peer(info.server_id, announce)
        self.emit(StartTimer(TIMER_HB_SEND, self.rconfig.heartbeat_interval))
        # remember each group's tip: if this takeover turns out to be one
        # side of a partition, these are the last globally agreed seqnos
        for name, group in self.groups.items():
            self._takeover_base.setdefault(name, group.log.last_seqno)
        # every group this node already holds is now coordinator-held
        for name in self.groups:
            self._interest.setdefault(name, set())
            members = self.global_members.setdefault(name, {})
            for member in self.groups[name].members():
                members[member.client_id] = member.info()
                self.client_server[member.client_id] = self.server_id

    def _on_coordinator_announce(self, conn: ConnId, msg: CoordinatorAnnounce) -> None:
        if msg.epoch <= self.epoch and msg.coordinator_id != self.coordinator_id:
            return
        self.epoch = msg.epoch
        self.server_list.replace(msg.servers, msg.list_version)
        self._last_heartbeat = self.clock.now()
        self._suspects_coordinator = False
        self._candidate_epoch = 0
        self._dial(msg.coordinator_id)
        self._reregister_with_coordinator()

    def _reregister_with_coordinator(self) -> None:
        """(Re)declare groups, interest and members to the coordinator.

        A re-registering server may hold *stale* state (it restarted from
        its WAL, or rejoined after a coordinator change): it fetches the
        update suffix since its own tip for every installed group,
        buffering live broadcasts until the catch-up lands.
        """
        conn = self._coordinator_conn()
        if conn is None:
            return
        for name, created in self.known_groups.items():
            self.send(conn, created)
        for name, group in self.groups.items():
            self.send(
                conn,
                GroupInterest(self.server_id, name, True, len(group)),
            )
            members = tuple(m.info() for m in group.members())
            if members:
                self.send(conn, MemberUpdate(self.server_id, name, members, ()))
            if not self.is_coordinator and self.coordinator_id:
                self._fetching.add(name)
                self._buffered.setdefault(name, [])
                self._fetch_state(
                    name, from_server=self.coordinator_id,
                    purpose="catchup", since_seqno=group.log.last_seqno,
                )

    def _fail_pending_forwards(self) -> None:
        err = PartitionedError("coordinator unreachable; please retry")
        for pending in self._pending_forwards.values():
            self.send(
                pending.conn,
                ErrorReply(pending.request_id, err.code, str(err)),
            )
        self._pending_forwards.clear()

    # ------------------------------------------------------------------
    # forwarding plumbing (replica side)
    # ------------------------------------------------------------------

    def _forward(self, conn: ConnId, request_id: int, kind: str, build: Any) -> None:
        coord_conn = self._coordinator_conn()
        if coord_conn is None:
            raise PartitionedError("coordinator unreachable")
        forward_id = next(self._forward_ids)
        self._pending_forwards[forward_id] = _PendingForward(conn, request_id, kind)
        self.send(coord_conn, build(forward_id))

    def _on_forward_outcome(self, conn: ConnId, msg: ForwardOutcome) -> None:
        pending = self._pending_forwards.pop(msg.forward_id, None)
        if pending is None:
            return
        if msg.ok:
            if pending.kind == "acquire_lock":
                # granted immediately; code/detail carry (group, object_id)
                self.send(
                    pending.conn,
                    LockGranted(pending.request_id, msg.code, msg.detail),
                )
            else:
                self.send(pending.conn, Ack(pending.request_id))
        else:
            self.send(pending.conn, ErrorReply(pending.request_id, msg.code, msg.detail))

    # ------------------------------------------------------------------
    # group creation / deletion
    # ------------------------------------------------------------------

    def _on_create(self, conn: ConnId, msg: CreateGroupRequest) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.CREATE, msg.group)
        if msg.group in self.known_groups:
            raise GroupExistsError(f"group {msg.group!r} already exists")
        if self.is_coordinator:
            super()._on_create(conn, msg)
            self._register_created_group(
                msg.group, msg.persistent, msg.initial_state,
                self.groups[msg.group].created_at,
            )
            self._interest.setdefault(msg.group, set())
            self._broadcast_to_peers(self.known_groups[msg.group])
            self._ensure_backups()
        else:
            self._forward(
                conn, msg.request_id, "create",
                lambda fid: ForwardCreateGroup(
                    fid, self.server_id, msg.group, msg.persistent, msg.initial_state
                ),
            )

    def _register_created_group(
        self, name: GroupId, persistent: bool, initial: tuple, created_at: float
    ) -> None:
        self.known_groups[name] = GroupCreated(name, persistent, initial, created_at)
        self.global_members.setdefault(name, {})

    def _broadcast_to_peers(self, message: Message, only: set[str] | None = None) -> None:
        for info in self.server_list.peers_of(self.server_id):
            if only is not None and info.server_id not in only:
                continue
            self._send_peer(info.server_id, message)

    def _on_forward_create(self, conn: ConnId, msg: ForwardCreateGroup) -> None:
        if msg.group in self.known_groups:
            self.send(conn, ForwardOutcome(
                msg.forward_id, False, "corona.group_exists",
                f"group {msg.group!r} already exists",
            ))
            return
        group = Group(msg.group, msg.persistent, msg.initial_state, self.clock.now())
        self.groups[msg.group] = group
        if self._persists:
            meta = GroupMeta(msg.group, msg.persistent, msg.initial_state, group.created_at)
            self.emit(CreateGroupStorage(msg.group, frames.payload_of(meta)))
        self._register_created_group(
            msg.group, msg.persistent, msg.initial_state, group.created_at
        )
        self._interest.setdefault(msg.group, set())
        self._broadcast_to_peers(self.known_groups[msg.group])
        self.send(conn, ForwardOutcome(msg.forward_id, True))
        self._ensure_backups()

    def _on_group_created(self, conn: ConnId, msg: GroupCreated) -> None:
        if msg.group in self.known_groups:
            return
        self.known_groups[msg.group] = msg
        self.global_members.setdefault(msg.group, {})
        if self.is_coordinator and msg.group not in self.groups:
            # re-registration after failover: adopt and fetch the state
            group = Group(msg.group, msg.persistent, msg.initial_state, msg.created_at)
            self.groups[msg.group] = group
            self._interest.setdefault(msg.group, set())
            sender = self._conn_peer.get(conn)
            if sender is not None:
                self._fetch_state(msg.group, from_server=sender)

    def _on_delete(self, conn: ConnId, msg: DeleteGroupRequest) -> None:
        client = self._client_of(conn)
        self._authorize(client, GroupAction.DELETE, msg.group)
        if self.is_coordinator:
            if msg.group not in self.known_groups:
                raise NoSuchGroupError(f"no group named {msg.group!r}")
            self._drop_group_everywhere(msg.group)
            self.send(conn, Ack(msg.request_id))
        else:
            if msg.group not in self.known_groups:
                raise NoSuchGroupError(f"no group named {msg.group!r}")
            self._forward(
                conn, msg.request_id, "delete",
                lambda fid: ForwardDeleteGroup(fid, self.server_id, msg.group),
            )

    def _on_forward_delete(self, conn: ConnId, msg: ForwardDeleteGroup) -> None:
        if msg.group not in self.known_groups:
            self.send(conn, ForwardOutcome(
                msg.forward_id, False, "corona.no_such_group",
                f"no group named {msg.group!r}",
            ))
            return
        self._drop_group_everywhere(msg.group)
        self.send(conn, ForwardOutcome(msg.forward_id, True))

    def _drop_group_everywhere(self, name: GroupId) -> None:
        """Coordinator: delete a group cluster-wide."""
        self._broadcast_to_peers(GroupDropped(name))
        self._drop_group_locally(name)
        self._interest.pop(name, None)
        self._backups.pop(name, None)

    def _on_group_dropped(self, conn: ConnId, msg: GroupDropped) -> None:
        self._drop_group_locally(msg.group)
        self._backup_of.discard(msg.group)

    def _drop_group_locally(self, name: GroupId) -> None:
        self.known_groups.pop(name, None)
        self.global_members.pop(name, None)
        group = self.groups.get(name)
        if group is None:
            return
        notice = GroupDeletedNotice(name)
        for member in group.members():
            self._client_groups.get(member.client_id, set()).discard(name)
            self.send(member.conn, notice)
        self._drop_group(group)

    # ------------------------------------------------------------------
    # joins, interest, and state fetch
    # ------------------------------------------------------------------

    def _on_join(self, conn: ConnId, msg: JoinGroupRequest) -> None:
        if self.is_coordinator or msg.group in self.groups:
            super()._on_join(conn, msg)
            return
        if msg.group not in self.known_groups:
            raise NoSuchGroupError(f"no group named {msg.group!r}")
        # group exists cluster-wide but is not installed here: register
        # interest, fetch the state, park the join until it arrives
        self._pending_joins.setdefault(msg.group, []).append((conn, msg))
        if msg.group not in self._fetching:
            self._install_group_remotely(msg.group)

    def _install_group_remotely(self, name: GroupId) -> None:
        self._fetching.add(name)
        self._buffered.setdefault(name, [])
        coord_conn = self._coordinator_conn()
        if coord_conn is None:
            raise PartitionedError("coordinator unreachable")
        self.send(coord_conn, GroupInterest(self.server_id, name, True, 0))
        self._fetch_state(name, from_server=self.coordinator_id or "")

    def _fetch_state(
        self, name: GroupId, from_server: str, purpose: str = "install",
        since_seqno: int = -1,
    ) -> None:
        fetch_id = next(self._fetch_ids)
        self._fetch_groups[fetch_id] = name
        self._fetch_purpose[fetch_id] = purpose
        if purpose == "install":
            self._fetching.add(name)
            self._buffered.setdefault(name, [])
        request = StateFetchRequest(fetch_id, name, since_seqno)
        if not self._send_peer(from_server, request):
            self._dial(from_server)
            self._send_peer(from_server, request)

    def _on_state_fetch(self, conn: ConnId, msg: StateFetchRequest) -> None:
        group = self.groups.get(msg.group)
        if group is None:
            self.send(conn, StateFetchReply(msg.request_id, False, None))
            return
        if msg.since_seqno >= 0:
            spec = TransferSpec(TransferPolicy.SINCE_SEQNO, since_seqno=msg.since_seqno)
        else:
            spec = TransferSpec(TransferPolicy.FULL)
        snapshot = build_snapshot(group, spec)
        self.send(conn, StateFetchReply(msg.request_id, True, snapshot))

    def _on_state_fetch_reply(self, conn: ConnId, msg: StateFetchReply) -> None:
        name = self._fetch_groups.pop(msg.request_id, None)
        if name is None:
            return
        purpose = self._fetch_purpose.pop(msg.request_id, "install")
        if purpose == "catchup":
            self._finish_catchup(name, msg)
            return
        if purpose != "install":
            if msg.found and msg.snapshot is not None:
                self._rebase_group(name, msg.snapshot)
            if purpose == "reconcile":
                self._reconcile_done(name)
            return
        self._fetching.discard(name)
        if not msg.found or msg.snapshot is None:
            # the peer lost it too; fail parked joins
            for join_conn, join_msg in self._pending_joins.pop(name, []):
                err = NoSuchGroupError(f"group {name!r} state unavailable")
                self.send(join_conn, ErrorReply(join_msg.request_id, err.code, str(err)))
            return
        self._install_snapshot(name, msg.snapshot)
        if self.is_coordinator:
            # adopted after a takeover: the snapshot tip is the last seqno
            # this side agrees on — the reconciliation base if this
            # takeover turns out to be one half of a partition
            self._takeover_base.setdefault(name, self.groups[name].log.last_seqno)
        for join_conn, join_msg in self._pending_joins.pop(name, []):
            try:
                super()._on_join(join_conn, join_msg)
            except CoronaError as err:
                self.send(join_conn, ErrorReply(join_msg.request_id, err.code, str(err)))
        for fwd_conn, fwd_msg in self._parked_forwards.pop(name, []):
            self._on_forward_bcast(fwd_conn, fwd_msg)

    def _finish_catchup(self, name: GroupId, msg: StateFetchReply) -> None:
        """Apply the post-restart suffix, then drain buffered broadcasts."""
        self._fetching.discard(name)
        group = self.groups.get(name)
        if group is None:
            self._buffered.pop(name, None)
            return
        if msg.found and msg.snapshot is not None:
            snapshot = msg.snapshot
            if snapshot.objects or snapshot.base_seqno > group.log.last_seqno:
                # the suffix we asked for was reduced away: adopt wholesale
                self._rebase_group(name, snapshot)
            else:
                for record in snapshot.updates:
                    if record.seqno >= group.log.next_seqno:
                        self.apply_and_deliver(group, record, DeliveryMode.INCLUSIVE)
        for buffered in self._buffered.pop(name, []):
            if buffered.update.seqno >= group.log.next_seqno:
                self._apply_sequenced(group, buffered)

    def _install_snapshot(self, name: GroupId, snapshot: StateSnapshot) -> None:
        created = self.known_groups.get(name)
        group = Group(
            name,
            created.persistent if created else True,
            created.initial_state if created else (),
            created.created_at if created else self.clock.now(),
        )
        group.state = _snapshot_state(snapshot)
        group.log.trim_to(snapshot.base_seqno)
        for record in snapshot.updates:
            group.log.append(record)
        group.sequencer.fast_forward(snapshot.next_seqno - 1)
        self.groups[name] = group
        self._persist_adopted_group(group)
        # drain updates sequenced while the fetch was in flight
        for buffered in self._buffered.pop(name, []):
            if buffered.update.seqno >= group.log.next_seqno:
                self._apply_sequenced(group, buffered)

    def _persist_adopted_group(self, group: Group) -> None:
        """Make a fetched/rebased group recoverable from this server's own
        stable storage: on-disk structures plus a checkpoint at the
        adopted tip (the preceding history is not locally replayable)."""
        if not self._persists:
            return
        meta = GroupMeta(
            group.name, group.persistent, group.initial_state, group.created_at
        )
        self.emit(CreateGroupStorage(group.name, frames.payload_of(meta)))
        tip = group.log.last_seqno
        if tip >= 0:
            full = build_snapshot(group, TransferSpec(TransferPolicy.FULL))
            self.emit(WriteCheckpointEffect(group.name, tip, frames.payload_of(full)))

    # ------------------------------------------------------------------
    # interest bookkeeping (coordinator)
    # ------------------------------------------------------------------

    def _on_group_interest(self, conn: ConnId, msg: GroupInterest) -> None:
        holders = self._interest.setdefault(msg.group, set())
        if msg.interested:
            holders.add(msg.server_id)
            # bring the newly interested server up to date on membership
            members = tuple(self.global_members.get(msg.group, {}).values())
            self.send(conn, GroupMembership(msg.group, (), (), members))
            if (
                self.is_coordinator
                and msg.group in self.known_groups
                and msg.group not in self.groups
                and msg.group not in self._fetching
            ):
                # a freshly promoted coordinator adopts state it lacks
                # from the server that declared it holds a copy
                created = self.known_groups[msg.group]
                self.groups[msg.group] = Group(
                    msg.group, created.persistent, created.initial_state,
                    created.created_at,
                )
                self._fetch_state(msg.group, from_server=msg.server_id)
        else:
            holders.discard(msg.server_id)
        self._ensure_backups()

    def _ensure_backups(self) -> None:
        """Hot standby (paper §4.1): at least two live copies per group.

        The coordinator always holds one copy; when no replica holds
        another, one is drafted as backup."""
        if not self.is_coordinator:
            return
        for name in list(self.known_groups):
            holders = self._interest.get(name, set()) | self._backups.get(name, set())
            holders = {h for h in holders if h in self.server_list}
            if holders:
                continue
            candidate = next(
                (
                    info.server_id
                    for info in self.server_list.peers_of(self.server_id)
                    if info.server_id in self._peer_conn
                ),
                None,
            )
            if candidate is not None:
                self._backups.setdefault(name, set()).add(candidate)
                self._send_peer(candidate, BackupAssign(name, candidate))

    # ------------------------------------------------------------------
    # multicast: forward, sequence, distribute
    # ------------------------------------------------------------------

    def _bcast(
        self,
        conn: ConnId,
        msg: BcastStateRequest | BcastUpdateRequest,
        kind: UpdateKind,
    ) -> None:
        if self.is_coordinator:
            super()._bcast(conn, msg, kind)
            return
        client = self._client_of(conn)
        self._authorize(client, GroupAction.BROADCAST, msg.group)
        group = self._group_named(msg.group)
        member = group.member(client)
        if member.role is MemberRole.OBSERVER:
            raise NotAuthorizedError(f"observer {client!r} cannot broadcast")
        self._forward(
            conn, msg.request_id, "bcast",
            lambda fid: ForwardBcast(
                fid, self.server_id, msg.group, kind, msg.object_id,
                msg.data, client, msg.mode, self.clock.now(),
            ),
        )

    def group_sequenced(self, runtime, record, mode, sender_conn) -> None:
        """Coordinator fast path: distribute a locally sequenced bcast."""
        self._distribute(
            runtime.name, record, mode, origin=self.server_id, forward_id=0
        )

    def _on_forward_bcast(self, conn: ConnId, msg: ForwardBcast) -> None:
        if msg.group in self._fetching:
            self._parked_forwards.setdefault(msg.group, []).append((conn, msg))
            return
        group = self.groups.get(msg.group)
        if group is None:
            self.send(conn, ForwardOutcome(
                msg.forward_id, False, "corona.no_such_group",
                f"no group named {msg.group!r}",
            ))
            return
        record = UpdateRecord(
            seqno=group.sequencer.allocate(),
            kind=msg.kind,
            object_id=msg.object_id,
            data=msg.data,
            sender=msg.sender,
            timestamp=self.clock.now(),
        )
        self.apply_and_deliver(group, record, msg.mode)
        self._distribute(msg.group, record, msg.mode, origin=msg.origin,
                         forward_id=msg.forward_id)

    def _distribute(
        self,
        name: GroupId,
        record: UpdateRecord,
        mode: DeliveryMode,
        origin: str,
        forward_id: int,
    ) -> None:
        sequenced = SequencedBcast(name, record, origin, forward_id, mode)
        targets = self._interest.get(name, set()) | self._backups.get(name, set())
        conns = [
            self._peer_conn[server_id]
            for server_id in sorted(targets)
            if server_id != self.server_id and server_id in self._peer_conn
        ]
        if self.config.use_multicast and len(conns) > 1:
            # §4.1: "it is possible to use IP-multicast for broadcasting
            # messages among the servers"
            self.emit(SendMulticastEffect(tuple(conns), sequenced))
        else:
            for conn in conns:
                self.send(conn, sequenced)

    def _on_sequenced(self, conn: ConnId, msg: SequencedBcast) -> None:
        group = self.groups.get(msg.group)
        if group is None or msg.group in self._fetching:
            self._buffered.setdefault(msg.group, []).append(msg)
            self._ack_own_forward(msg)
            return
        self._apply_sequenced(group, msg)
        self._ack_own_forward(msg)

    def _apply_sequenced(self, group: Group, msg: SequencedBcast) -> None:
        self.apply_and_deliver(group, msg.update, msg.mode)

    def _ack_own_forward(self, msg: SequencedBcast) -> None:
        if msg.origin != self.server_id:
            return
        pending = self._pending_forwards.pop(msg.forward_id, None)
        if pending is not None:
            self.send(pending.conn, Ack(pending.request_id))

    # ------------------------------------------------------------------
    # membership synchronization
    # ------------------------------------------------------------------

    def _notify_membership(self, group, joined, left) -> None:
        if self.is_coordinator:
            for info in joined:
                self.client_server[info.client_id] = self.server_id
            self._coordinator_membership_change(group.name, joined, left)
        else:
            conn = self._coordinator_conn()
            if conn is not None and (joined or left):
                self.send(conn, MemberUpdate(self.server_id, group.name, joined, left))

    def _on_member_update(self, conn: ConnId, msg: MemberUpdate) -> None:
        for info in msg.joined:
            self.client_server[info.client_id] = msg.server_id
        self._coordinator_membership_change(msg.group, msg.joined, msg.left)

    def _coordinator_membership_change(
        self,
        name: GroupId,
        joined: tuple[MemberInfo, ...],
        left: tuple[MemberInfo, ...],
    ) -> None:
        members = self.global_members.setdefault(name, {})
        for info in joined:
            members[info.client_id] = info
        for info in left:
            members.pop(info.client_id, None)
            # a departed member's locks are stripped globally
            group = self.groups.get(name)
            if group is not None:
                for grant in group.locks.release_all(info.client_id):
                    self._send_grant(group, grant)
        # push only the delta: each server maintains its own mirror of the
        # view (full snapshots travel only on interest registration), so
        # membership traffic stays O(1) per change rather than O(members)
        view = GroupMembership(name, joined, left, ())
        targets = self._interest.get(name, set()) | self._backups.get(name, set())
        for server_id in sorted(targets):
            if server_id != self.server_id:
                self._send_peer(server_id, view)
        self._notify_local_subscribers(name, joined, left, tuple(members.values()))
        created = self.known_groups.get(name)
        if created is not None and not created.persistent and not members:
            # transient group reached null membership cluster-wide
            self._drop_group_everywhere(name)

    def _on_group_membership(self, conn: ConnId, msg: GroupMembership) -> None:
        if msg.joined or msg.left:
            # incremental update to the mirrored view
            members = self.global_members.setdefault(msg.group, {})
            for info in msg.joined:
                members[info.client_id] = info
            for info in msg.left:
                members.pop(info.client_id, None)
        else:
            # full snapshot (sent when this server registered interest)
            members = {info.client_id: info for info in msg.members}
            self.global_members[msg.group] = members
        self._notify_local_subscribers(
            msg.group, msg.joined, msg.left, tuple(members.values())
        )

    def _notify_local_subscribers(
        self,
        name: GroupId,
        joined: tuple[MemberInfo, ...],
        left: tuple[MemberInfo, ...],
        members: tuple[MemberInfo, ...],
    ) -> None:
        group = self.groups.get(name)
        if group is None or (not joined and not left):
            return
        notice = MembershipNotice(name, joined, left, members)
        changed = {m.client_id for m in joined} | {m.client_id for m in left}
        for member in group.notice_subscribers():
            if member.client_id not in changed:
                self.send(member.conn, notice)

    def _membership_for_reply(self, group: Group) -> tuple[MemberInfo, ...]:
        merged = dict(self.global_members.get(group.name, {}))
        for member in group.members():
            merged[member.client_id] = member.info()
        return tuple(merged.values())

    def group_emptied(self, runtime) -> None:
        # the transient-death decision is global (the coordinator's), so
        # the base drop-when-empty behaviour is deliberately not invoked
        if self.is_coordinator:
            return
        if runtime.name not in self._backup_of:
            # no local members left: stop receiving this group's traffic
            conn = self._coordinator_conn()
            if conn is not None:
                self.send(conn, GroupInterest(self.server_id, runtime.name, False, 0))
            self.runtimes.pop(runtime.name, None)

    # ------------------------------------------------------------------
    # hot standby assignment (replica side)
    # ------------------------------------------------------------------

    def _on_backup_assign(self, conn: ConnId, msg: BackupAssign) -> None:
        self._backup_of.add(msg.group)
        if msg.group not in self.groups and msg.group not in self._fetching:
            self._fetch_state(msg.group, from_server=self.coordinator_id or "")
            coord = self._coordinator_conn()
            if coord is not None:
                self.send(coord, GroupInterest(self.server_id, msg.group, True, 0))

    # ------------------------------------------------------------------
    # locks (global table at the coordinator)
    # ------------------------------------------------------------------

    def _on_acquire_lock(self, conn: ConnId, msg: AcquireLockRequest) -> None:
        if self.is_coordinator:
            super()._on_acquire_lock(conn, msg)
            return
        client = self._client_of(conn)
        group = self._group_named(msg.group)
        group.member(client)
        self._forward(
            conn, msg.request_id, "acquire_lock",
            lambda fid: ForwardAcquireLock(
                fid, self.server_id, msg.group, msg.object_id,
                client, msg.request_id, msg.blocking,
            ),
        )

    def _on_forward_acquire(self, conn: ConnId, msg: ForwardAcquireLock) -> None:
        group = self.groups.get(msg.group)
        if group is None:
            self.send(conn, ForwardOutcome(
                msg.forward_id, False, "corona.no_such_group", msg.group
            ))
            return
        outcome = group.locks.acquire(msg.object_id, msg.client, msg.request_id, msg.blocking)
        if outcome is True:
            # code/detail carry (group, object) so the origin can build the
            # LockGranted reply
            self.send(conn, ForwardOutcome(msg.forward_id, True, msg.group, msg.object_id))
        elif outcome is False:
            err = LockHeldError(
                f"lock on {msg.object_id!r} held by {group.locks.holder(msg.object_id)!r}"
            )
            self.send(conn, ForwardOutcome(msg.forward_id, False, err.code, str(err)))
        else:
            self._remote_waiters[(msg.group, msg.object_id, msg.client)] = (
                msg.origin, msg.request_id,
            )
            self._pending_forwards.pop(msg.forward_id, None)

    def _on_release_lock(self, conn: ConnId, msg: ReleaseLockRequest) -> None:
        if self.is_coordinator:
            super()._on_release_lock(conn, msg)
            return
        client = self._client_of(conn)
        self._group_named(msg.group)
        self._forward(
            conn, msg.request_id, "release_lock",
            lambda fid: ForwardReleaseLock(
                fid, self.server_id, msg.group, msg.object_id, client
            ),
        )

    def _on_forward_release(self, conn: ConnId, msg: ForwardReleaseLock) -> None:
        group = self.groups.get(msg.group)
        if group is None:
            self.send(conn, ForwardOutcome(
                msg.forward_id, False, "corona.no_such_group", msg.group
            ))
            return
        try:
            grant = group.locks.release(msg.object_id, msg.client)
        except CoronaError as err:
            self.send(conn, ForwardOutcome(msg.forward_id, False, err.code, str(err)))
            return
        self.send(conn, ForwardOutcome(msg.forward_id, True))
        if grant is not None:
            self._send_grant(group, grant)

    def _send_grant(self, group: Group, grant) -> None:
        conn = self._client_conn.get(grant.client)
        if conn is not None:
            super()._send_grant(group, grant)
            return
        # the lucky client lives on another server
        waiter = self._remote_waiters.pop(
            (group.name, grant.object_id, grant.client), None
        )
        server_id = waiter[0] if waiter else self.client_server.get(grant.client)
        request_id = waiter[1] if waiter else grant.request_id
        if server_id:
            self._send_peer(
                server_id,
                RemoteLockGrant(group.name, grant.object_id, grant.client, request_id),
            )

    def _on_remote_grant(self, conn: ConnId, msg: RemoteLockGrant) -> None:
        client_conn = self._client_conn.get(msg.client)
        if client_conn is not None:
            self.send(client_conn, LockGranted(msg.request_id, msg.group, msg.object_id))

    # ------------------------------------------------------------------
    # log reduction (cluster-wide)
    # ------------------------------------------------------------------

    def _on_reduce_log(self, conn: ConnId, msg: ReduceLogRequest) -> None:
        if self.is_coordinator:
            super()._on_reduce_log(conn, msg)
            return
        client = self._client_of(conn)
        self._authorize(client, GroupAction.REDUCE, msg.group)
        self._group_named(msg.group)
        self._forward(
            conn, msg.request_id, "reduce",
            lambda fid: ForwardReduceLog(fid, self.server_id, msg.group),
        )

    def _on_forward_reduce(self, conn: ConnId, msg: ForwardReduceLog) -> None:
        group = self.groups.get(msg.group)
        if group is None:
            self.send(conn, ForwardOutcome(
                msg.forward_id, False, "corona.no_such_group", msg.group
            ))
            return
        self.reduce_group(group)
        self.send(conn, ForwardOutcome(msg.forward_id, True))

    def group_reduced(self, runtime, tip: int) -> None:
        if self.is_coordinator and tip >= 0:
            order = ReduceOrder(runtime.name, tip)
            targets = self._interest.get(runtime.name, set()) | self._backups.get(
                runtime.name, set()
            )
            for server_id in sorted(targets):
                if server_id != self.server_id:
                    self._send_peer(server_id, order)

    def _on_reduce_order(self, conn: ConnId, msg: ReduceOrder) -> None:
        runtime = self.runtimes.get(msg.group)
        if runtime is not None:
            # group_reduced fires here too, but a replica never relays
            runtime.reduce(upto=msg.seqno)

    # ------------------------------------------------------------------
    # partition reconciliation (paper §4.2)
    # ------------------------------------------------------------------

    @property
    def _branch_id(self) -> str:
        return f"{self.server_id}#e{self.epoch}"

    def initiate_reconciliation(self, senior: ServerInfo) -> None:
        """Reconcile this (junior) coordinator's branch with *senior*.

        Called after network connectivity is re-established.  For every
        group both sides know, the configured chooser decides ROLL_BACK /
        ADOPT_ONE / FORK; afterwards this node demotes to a replica of the
        senior coordinator and re-registers its groups and members.
        """
        if not self.is_coordinator:
            raise PartitionedError("only a coordinator can reconcile")
        self._reconcile_with = senior.server_id
        self._extra_peers[senior.server_id] = senior
        self._dial(senior.server_id)

    def _send_reconcile_offers(self, conn: ConnId) -> None:
        self._reconcile_outstanding = set(self.groups)
        if not self._reconcile_outstanding:
            self._complete_demotion()
            return
        for name, group in self.groups.items():
            self.send(conn, ReconcileOffer(
                group=name,
                branch_id=self._branch_id,
                checkpoint_seqno=group.log.first_seqno - 1,
                tip_seqno=group.log.last_seqno,
                partition_base=self._takeover_base.get(name, -2),
            ))

    def _offer_for(self, group: Group) -> ReconcileOffer:
        return ReconcileOffer(
            group=group.name,
            branch_id=self._branch_id,
            checkpoint_seqno=group.log.first_seqno - 1,
            tip_seqno=group.log.last_seqno,
            partition_base=self._takeover_base.get(group.name, -2),
        )

    def _on_reconcile_offer(self, conn: ConnId, msg: ReconcileOffer) -> None:
        """Senior side: decide the fate of one diverged group."""
        group = self.groups.get(msg.group)
        if group is None:
            # the group was born during the partition on the junior side;
            # the junior keeps it and re-registers it after demotion
            self.send(conn, ReconcileChoice(
                msg.group, ReconcilePolicy.ADOPT_ONE, msg.branch_id
            ))
            return
        mine = self._offer_for(group)
        policy, adopted = self.rconfig.reconcile_chooser(mine, msg)
        common = common_point(mine, msg)
        if policy is ReconcilePolicy.ROLL_BACK:
            if self._rollback_group(group, common):
                self._broadcast_rebase(group)
            else:
                # history needed for the rewind is gone; fall back
                policy, adopted = ReconcilePolicy.ADOPT_ONE, mine.branch_id
        if policy is ReconcilePolicy.ADOPT_ONE and adopted == msg.branch_id:
            # the junior branch wins: pull its state over this connection
            peer = self._conn_peer.get(conn, "")
            self._fetch_state(msg.group, from_server=peer, purpose="rebase")
        self.send(conn, ReconcileChoice(msg.group, policy, adopted, common))

    def _on_reconcile_choice(self, conn: ConnId, msg: ReconcileChoice) -> None:
        """Junior side: apply the senior's (application's) decision."""
        group = self.groups.get(msg.group)
        if group is None:
            self._reconcile_done(msg.group)
            return
        if msg.policy is ReconcilePolicy.ADOPT_ONE:
            if msg.adopted_branch == self._branch_id:
                self._reconcile_done(msg.group)  # our branch won: keep it
            else:
                peer = self._conn_peer.get(conn, "")
                self._fetch_state(msg.group, from_server=peer, purpose="reconcile")
        elif msg.policy is ReconcilePolicy.ROLL_BACK:
            if self._rollback_group(group, msg.common_seqno):
                self._broadcast_rebase(group)
                self._reconcile_done(msg.group)
            else:
                peer = self._conn_peer.get(conn, "")
                self._fetch_state(msg.group, from_server=peer, purpose="reconcile")
        elif msg.policy is ReconcilePolicy.FORK:
            self._fork_group(msg.group)
            self._reconcile_done(msg.group)

    def _reconcile_done(self, name: GroupId) -> None:
        self._reconcile_outstanding.discard(name)
        if not self._reconcile_outstanding and self._pending_demotion is not None:
            self._complete_demotion()

    def _complete_demotion(self) -> None:
        """Junior coordinator steps down and rejoins the senior's cluster."""
        pending = self._pending_demotion
        if pending is None:
            return
        self._pending_demotion = None
        senior_id = self._reconcile_with
        self._reconcile_with = None
        old_peers = [
            info for info in self.server_list.peers_of(self.server_id)
            if info.server_id != senior_id
        ]
        new_epoch = max(self.epoch, pending.epoch) + 1
        merged = list(pending.servers)
        merged_ids = {s.server_id for s in merged}
        if self.server_id not in merged_ids:
            merged.append(self.rconfig.info)
        for info in old_peers:
            if info.server_id not in merged_ids:
                merged.append(info)
        version = max(self.server_list.version, pending.list_version) + 1
        self.epoch = new_epoch
        self.server_list.servers = merged
        self.server_list.version = version
        self._takeover_base.clear()
        self._suspects_coordinator = False
        self._last_heartbeat = self.clock.now()
        # steer this side's replicas to the senior coordinator
        announce = CoordinatorAnnounce(
            pending.coordinator_id, new_epoch, tuple(merged), version
        )
        for info in old_peers:
            self._send_peer(info.server_id, announce)
        # tell the senior about the new epoch, then re-register everything
        if senior_id is not None:
            self._send_peer(senior_id, ServerHello(self.rconfig.info, new_epoch))
        self._reregister_with_coordinator()
        self.emit(StartTimer(TIMER_HB_WATCH, self.rconfig.heartbeat_interval))

    def _rollback_group(self, group: Group, seqno: int) -> bool:
        """Rewind a branch to *seqno*; False when history is unavailable."""
        if seqno < group.log.first_seqno - 1:
            return False
        result = rollback_state(group.state, seqno)
        if not result.ok:
            return False
        group.log.truncate_after(seqno)
        group.sequencer.next_seqno = seqno + 1
        return True

    def _broadcast_rebase(self, group: Group, exclude: set[str] = frozenset()) -> None:
        """Push a reconciled snapshot to this side's servers and clients."""
        snapshot = build_snapshot(group, TransferSpec(TransferPolicy.FULL))
        rebase = GroupRebase(group.name, snapshot)
        skip = set(exclude) | {self._reconcile_with}
        for info in self.server_list.peers_of(self.server_id):
            if info.server_id not in skip:
                self._send_peer(info.server_id, rebase)
        notice = RebaseNotice(group.name, snapshot)
        for member in group.members():
            self.send(member.conn, notice)

    def _rebase_group(
        self, name: GroupId, snapshot: StateSnapshot, from_peer: str | None = None
    ) -> None:
        """Replace a group's state in place, keeping local membership."""
        group = self.groups.get(name)
        if group is None:
            self._install_snapshot(name, snapshot)
            group = self.groups[name]
        else:
            group.state = state_from_snapshot(snapshot)
            log = StateLog()
            log.trim_to(snapshot.base_seqno)
            for record in snapshot.updates:
                log.append(record)
            group.log = log
            group.sequencer.next_seqno = snapshot.next_seqno
            self._persist_adopted_group(group)
        if self.is_coordinator or self._reconcile_with is not None:
            # a coordinator (or demoting junior) relays onwards — never
            # back to where the rebase came from, which would loop
            exclude = {from_peer} if from_peer else set()
            self._broadcast_rebase(group, exclude=exclude)
        else:
            notice = RebaseNotice(name, snapshot)
            for member in group.members():
                self.send(member.conn, notice)

    def _on_group_rebase(self, conn: ConnId, msg: GroupRebase) -> None:
        if msg.group in self.groups:
            self._rebase_group(msg.group, msg.snapshot, self._conn_peer.get(conn))

    def _fork_group(self, name: GroupId) -> None:
        """FORK outcome: this branch continues as a separate group."""
        new_name = f"{name}~{self._branch_id}"
        self._rename_group(name, new_name)
        for info in self.server_list.peers_of(self.server_id):
            if info.server_id != self._reconcile_with:
                self._send_peer(info.server_id, GroupForked(name, new_name))

    def _on_group_forked(self, conn: ConnId, msg: GroupForked) -> None:
        self._rename_group(msg.group, msg.new_name)

    def _rename_group(self, name: GroupId, new_name: GroupId) -> None:
        group = self.groups.pop(name, None)
        created = self.known_groups.pop(name, None)
        if created is not None:
            self.known_groups[new_name] = GroupCreated(
                new_name, created.persistent, created.initial_state,
                created.created_at,
            )
        members = self.global_members.pop(name, None)
        if members is not None:
            self.global_members[new_name] = members
        if name in self._interest:
            self._interest[new_name] = self._interest.pop(name)
        if name in self._backups:
            self._backups[new_name] = self._backups.pop(name)
        if group is None:
            return
        group.name = new_name
        self.groups[new_name] = group
        notice = ForkNotice(name, new_name)
        for member in group.members():
            groups = self._client_groups.get(member.client_id)
            if groups is not None and name in groups:
                groups.discard(name)
                groups.add(new_name)
            self.send(member.conn, notice)

    # ------------------------------------------------------------------
    # misc overrides
    # ------------------------------------------------------------------

    def _on_list_groups(self, conn: ConnId, msg: ListGroupsRequest) -> None:
        self._client_of(conn)
        infos = tuple(
            GroupInfo(
                created.group,
                created.persistent,
                len(self.global_members.get(created.group, {})),
                self.groups[created.group].log.next_seqno
                if created.group in self.groups
                else -1,
            )
            for created in self.known_groups.values()
        )
        self.send(conn, GroupListReply(msg.request_id, infos))


def _snapshot_state(snapshot: StateSnapshot):
    return state_from_snapshot(snapshot)
