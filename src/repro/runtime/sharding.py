"""Group sharding, backend-free: router, front sessions, worker, front.

The paper observes (§4.1) that a stateful group server parallelizes
naturally along group boundaries: updates for different groups never
touch shared state, so groups can be partitioned across workers that
proceed independently.  This module is that design with no event loop
in it — everything here runs unchanged under the asyncio driver
(:mod:`repro.runtime.shard`) and the simulator's kernel/``CpuLanes``
driver (:mod:`repro.sim.shard`), so there is one copy of the
coordination logic and nothing for a parity test to keep in sync:

* :class:`ShardFront` is the host-side coordinator: it owns the router,
  the sessions core and the workers, opens and recovers each shard's
  :class:`~repro.storage.GroupStore` rooted at ``<store_root>/shard<i>``
  (WAL segments never cross shards), and implements posting, the front
  half of every worker relay, migration, drain, shard restart and the
  autoscaling control loop.
* :class:`ShardSessions` is the front's protocol core — the
  connection/session half of :class:`~repro.core.server.ServerCore`
  (Hello handshake, auth, stale connections, Ping, ListGroups) with
  every group-scoped request routed to the owning shard.
* :class:`ShardWorkerBase` is one shard: its own
  :class:`~repro.core.server.ServerCore` holding only the groups it
  owns, its own :class:`~repro.core.interpreter.EffectInterpreter` and
  store, the mailbox item protocol, its sends and its relays to the front.
* :class:`ShardRouter` maps ``GroupId -> shard`` with a consistent-hash
  ring (stable across restarts and shard-count-preserving recoveries)
  plus an explicit per-group *lease* for groups that live away from
  their natural owner (placed while the owner was draining, found in
  another shard's store during recovery, or moved by a live migration).
  Each lease carries a monotone *epoch*; forwarded commands are stamped
  with the epoch at routing time and a worker rejects commands whose
  epoch is behind its lease (``corona.stale_epoch``) instead of
  silently serving a group it no longer owns.

Ownership moves only through live migration (``migrate_group``): the
front freezes the group (buffering its commands), the source worker
barriers its speculation window, snapshots the
:class:`~repro.core.group_runtime.GroupRuntime` (state, log tail,
membership, locks, sequencer) together with its durable base
(checkpoint + WAL tail), the destination installs the snapshot and
adopts the storage into its own segment, and the front then bumps the
lease epoch and replays the buffered commands to the new owner.  A
crash of either side mid-migration aborts cleanly: the source re-adopts
its stashed runtime and the lease (and epoch) never move.

A connection can span groups on several shards: the front lazily
*introduces* the connection to a shard (a synthesized Hello carrying the
authenticated client id) before forwarding its first request there, and
fans a close out to every shard that was introduced.  A worker's sends
go straight into the host's outboxes, so per-connection send order is
the worker's FIFO and each send is counted once, by the interpreter that
ran it — :attr:`ShardFront.dispatch_stats` is the field-wise sum,
identical under both drivers and equal to a flat server's.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.core.auth import AllowAnyClient
from repro.core.clock import Clock
from repro.core.errors import CoronaError, ProtocolError, StaleEpochError
from repro.core.group_runtime import GroupRuntime
from repro.core.ids import ClientId, ConnId, GroupId
from repro.core.interpreter import DispatchStats, EffectInterpreter, Middleware
from repro.core.server import ServerConfig, ServerCore
from repro.core.session import SessionCore
from repro.runtime.backend import HostBackend
from repro.runtime.migration import (
    GroupSnapshot,
    MigrationRecord,
    restore_group,
    snapshot_group,
)
from repro.runtime.topology import (
    MigrateGroup,
    RestartShard,
    TopologyConfig,
    TopologyController,
    sample_workers,
)
from repro.storage.store import GroupStore, RecoveredGroup
from repro.wire.messages import (
    AcquireLockRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    ChunkAck,
    CreateGroupRequest,
    DeleteGroupRequest,
    GetMembershipRequest,
    GroupInfo,
    GroupListReply,
    Hello,
    HelloReply,
    JoinGroupRequest,
    LeaveGroupRequest,
    ListGroupsRequest,
    Message,
    PingRequest,
    ReduceLogRequest,
    ReleaseLockRequest,
    TransferResume,
)

__all__ = [
    "ShardFront",
    "ShardRouter",
    "ShardSessions",
    "ShardWorkerBase",
    "aggregate_stats",
    "front_middlewares",
    "shard_config",
]

#: Points each shard contributes to the consistent-hash ring.
VNODES = 64

#: Ring owners a :class:`ShardRouter` memoizes before clearing the memo.
NATURAL_MEMO = 4096

#: Request types the front routes to the owning shard (each carries a
#: ``group`` field).  Everything ServerCore dispatches except the three
#: session-scoped requests the front answers itself.
FORWARDED_REQUESTS = frozenset({
    CreateGroupRequest,
    DeleteGroupRequest,
    JoinGroupRequest,
    LeaveGroupRequest,
    GetMembershipRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    AcquireLockRequest,
    ReleaseLockRequest,
    ReduceLogRequest,
    # chunked state transfer: acks and resumes must reach the shard
    # that owns the transfer session for the group
    ChunkAck,
    TransferResume,
})


def aggregate_stats(parts: Iterable[DispatchStats]) -> DispatchStats:
    """Field-wise sum of per-interpreter counters (front + every shard)."""
    total = DispatchStats()
    for part in parts:
        for f in dataclasses.fields(DispatchStats):
            setattr(total, f.name, getattr(total, f.name) + getattr(part, f.name))
    return total


def shard_config(config: ServerConfig, index: int) -> ServerConfig:
    """Derive the ServerConfig one shard core runs with.

    The front already authenticated the client, so shard cores accept
    any introduction; everything else (statefulness, persistence,
    reduction policy, session manager) is inherited.
    """
    return dataclasses.replace(
        config,
        server_id=f"{config.server_id}/shard{index}",
        authenticator=AllowAnyClient(),
    )


class ShardRouter:
    """Consistent-hash placement of groups onto shards, with leases.

    The ring (:data:`VNODES` points per shard, SHA-1 keyed) makes placement
    a pure function of the group name — two servers with the same shard
    count agree on every group's owner with no coordination, and a
    restart recovers each group onto the shard whose store holds it.
    A *lease* records the exceptions: groups created while their natural
    owner was draining, discovered on a different shard during recovery,
    or moved by a live migration.  :meth:`migrate` is the only operation
    that moves an existing group's lease, and it bumps the group's
    *epoch* — a monotone counter stamped onto every forwarded command so
    a worker can reject commands routed before an ownership change
    instead of silently misrouting them.  Epochs never decrease and
    survive unpinning and even group deletion, so a stale in-flight
    command cannot masquerade as current after a name is reused.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"need at least one shard, got {shards}")
        self.shards = shards
        ring = sorted(
            (self._hash(f"shard{s}#vnode{v}"), s)
            for s in range(shards)
            for v in range(VNODES)
        )
        self._points = [h for h, _ in ring]
        self._owners = [s for _, s in ring]
        #: group -> ring owner, bounded by NATURAL_MEMO (the ring is fixed)
        self._natural: dict[GroupId, int] = {}
        self._leases: dict[GroupId, int] = {}
        self._epochs: dict[GroupId, int] = {}
        self._drained: set[int] = set()

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode()).digest()[:8], "big")

    # -- placement ------------------------------------------------------

    def natural(self, group: GroupId) -> int:
        """The ring owner of *group*, ignoring pins and drains."""
        owner = self._natural.get(group)
        if owner is None:
            if len(self._natural) >= NATURAL_MEMO:
                self._natural.clear()
            owner = self._natural[group] = self._ring_owner(group, frozenset())
        return owner

    def route(self, group: GroupId) -> int:
        """Where requests for *group* go: its lease, else the ring owner.

        Draining does NOT divert routing — a draining shard still owns
        (and must keep serving) the groups already placed on it.
        """
        leased = self._leases.get(group)
        if leased is not None:
            return leased
        return self.natural(group)

    def assign(self, group: GroupId) -> int:
        """Placement for a group being *created* now.

        Prefers the existing lease, then the natural owner; a draining
        natural owner is skipped along the ring and the displaced
        placement is leased so later :meth:`route` calls stay stable.
        """
        leased = self._leases.get(group)
        if leased is not None and leased not in self._drained:
            return leased
        natural = self.natural(group)
        if natural not in self._drained:
            self._leases.pop(group, None)
            return natural
        shard = self._ring_owner(group, avoid=self._drained)
        self._leases[group] = shard
        return shard

    def migrate(self, group: GroupId, dst: int) -> int:
        """Commit an ownership move: lease *group* to *dst* and bump its
        epoch.  This is the ONLY way an existing group changes owner —
        :meth:`pin` seeds recovery placement for groups a store already
        holds, it never moves a live one.  Returns the new epoch."""
        if not (0 <= dst < self.shards):
            raise ValueError(f"no shard {dst} (have {self.shards})")
        self._leases[group] = dst
        self._epochs[group] = self._epochs.get(group, 0) + 1
        return self._epochs[group]

    def lease(self, group: GroupId) -> int | None:
        """The shard holding *group*'s lease, or None (ring placement)."""
        return self._leases.get(group)

    def epoch(self, group: GroupId) -> int:
        """Current ownership epoch of *group* (0 until first migration)."""
        return self._epochs.get(group, 0)

    def epochs(self) -> dict[GroupId, int]:
        """Every group whose epoch ever moved (``repro topology``)."""
        return dict(self._epochs)

    def drained(self) -> frozenset[int]:
        """Shards currently refusing new placements."""
        return frozenset(self._drained)

    def _ring_owner(self, group: GroupId, avoid: frozenset[int] | set[int]) -> int:
        h = self._hash(group)
        idx = bisect.bisect_right(self._points, h)
        n = len(self._owners)
        for step in range(n):
            owner = self._owners[(idx + step) % n]
            if owner not in avoid:
                return owner
        return self._owners[idx % n]  # everything drained: natural owner

    # -- pins and drains ------------------------------------------------

    def pin(self, group: GroupId, shard: int) -> None:
        """Lease *group* to *shard* without an epoch bump (recovery found
        its data there; no ownership ever moved)."""
        self._leases[group] = shard

    def unpin(self, group: GroupId) -> None:
        """Drop the lease (the epoch, if any, survives)."""
        self._leases.pop(group, None)

    def pins(self) -> dict[GroupId, int]:
        """The full lease table (compatibility name)."""
        return dict(self._leases)

    def drain(self, shard: int) -> None:
        """Stop placing NEW groups on *shard* (existing ones stay)."""
        self._drained.add(shard)

    def undrain(self, shard: int) -> None:
        self._drained.discard(shard)


class ShardSessions(SessionCore):
    """The front core: sessions, auth, routing — no group state at all.

    The connection-scoped half is :class:`SessionCore`, the very code
    :class:`ServerCore` runs (same error texts, same stale-connection
    handling), so a client cannot tell a sharded server from a flat
    one; every group-scoped request is then forwarded into the owning
    shard's mailbox.
    """

    def __init__(
        self,
        config: ServerConfig,
        clock: Clock,
        router: ShardRouter,
        shard_count: int,
        post: Callable[[int, tuple], None],
    ) -> None:
        super().__init__(config, clock)
        self.router = router
        self.shard_count = shard_count
        self._post = post
        #: Which shards each connection has been introduced to.
        self._intro: defaultdict[ConnId, set[int]] = defaultdict(set)
        #: In-flight ListGroups scatter-gathers: (conn, request_id) ->
        #: {"remaining": shards yet to answer, "infos": fragments so far}.
        self._gathers: dict[tuple[ConnId, int], dict[str, Any]] = {}
        #: In-flight migrations: group -> mutable state (see
        #: :meth:`begin_migration` for the schema and phases).
        self._migrations: dict[GroupId, dict[str, Any]] = {}
        #: Ids tie worker relays to the migration attempt that caused
        #: them, so relays from an aborted attempt cannot corrupt a
        #: newer one for the same group.
        self._migration_seq = 0
        #: Finished migrations, oldest first (``repro topology`` and the
        #: migration benchmark read freeze windows / bytes from here).
        self.migration_log: list[MigrationRecord] = []

    # -- host entry points ----------------------------------------------

    def handle_message(self, conn: ConnId, message: Message) -> None:
        try:
            if isinstance(message, Hello):
                self._on_hello(conn, message)
            elif isinstance(message, PingRequest):
                self._on_ping(conn, message)
            elif isinstance(message, ListGroupsRequest):
                self._client_of(conn)
                self._scatter_list(conn, message.request_id)
            elif type(message) in FORWARDED_REQUESTS:
                client = self._client_of(conn)
                mig = self._migrations.get(message.group)
                if mig is not None:
                    # the group is frozen mid-migration: hold the command
                    # here; it replays, in arrival order, to whichever
                    # shard owns the group once the migration settles
                    mig["buffer"].append((conn, client, message))
                    return
                if isinstance(message, CreateGroupRequest):
                    shard = self.router.assign(message.group)
                else:
                    shard = self.router.route(message.group)
                self._forward(shard, conn, client, message)
            else:
                raise ProtocolError(
                    f"unexpected message {type(message).__name__}"
                )
        except CoronaError as err:
            self._reply_error(conn, getattr(message, "request_id", 0), err)

    def handle_closed(self, conn: ConnId) -> None:
        for shard in sorted(self._intro.pop(conn, ())):
            self._post(shard, ("closed", conn))
        for key in [k for k in self._gathers if k[0] == conn]:
            del self._gathers[key]
        self._forget_conn(conn)

    # -- routing ---------------------------------------------------------

    def _forward(
        self, shard: int, conn: ConnId, client: ClientId, message: Message
    ) -> None:
        self._introduce(shard, conn, client)
        # stamp the ownership epoch at routing time: if the group moves
        # before the worker dequeues this, the command is rejected with
        # corona.stale_epoch instead of silently served by a non-owner
        self._post(
            shard, ("message", conn, message, self.router.epoch(message.group))
        )

    def _introduce(self, shard: int, conn: ConnId, client: ClientId) -> None:
        """Present the already-authenticated *client* to *shard*'s core
        before anything of its connection lands there (once per shard;
        the worker drops the HelloReply echo)."""
        seen = self._intro[conn]
        if shard not in seen:
            seen.add(shard)
            peer = self._conn_addr.get(conn)
            self._post(shard, ("hello", conn, Hello(client_id=client), peer))

    def forget_shard(self, index: int) -> None:
        """A shard restarted with a fresh core: every connection must be
        re-introduced before its next request lands there."""
        for seen in self._intro.values():
            seen.discard(index)

    # -- live migration (front-loop only) ---------------------------------
    #
    # State machine per group:
    #
    #   begin_migration      "freezing"    commands buffer at the front;
    #                                      source told to freeze+snapshot
    #   migration_snapshot   "installing"  source detached the runtime;
    #                                      destination told to install
    #   migration_installed  (done)        lease moved, epoch bumped,
    #                                      buffer replayed to destination
    #
    # abort_migrations_for_shard unwinds from any phase: destination down
    # -> the source re-adopts its stashed runtime; source down -> any
    # installed copy is discarded and the lease (and epoch) never move.

    def begin_migration(self, group: GroupId, dst: int) -> None:
        """Start moving *group* onto shard *dst*.

        Validation is front-local; whether the group actually exists is
        the source worker's call (``migration_failed`` unwinds cleanly).
        """
        if group in self._migrations:
            raise ValueError(f"group {group!r} is already migrating")
        if not (0 <= dst < self.shard_count):
            raise ValueError(f"no shard {dst} (have {self.shard_count})")
        src = self.router.route(group)
        if dst == src:
            raise ValueError(f"group {group!r} already lives on shard {dst}")
        if dst in self.router.drained():
            raise ValueError(f"shard {dst} is draining")
        self._migration_seq += 1
        mig_id = self._migration_seq
        self._migrations[group] = {
            "id": mig_id,
            "src": src,
            "dst": dst,
            "epoch": self.router.epoch(group),
            "phase": "freezing",
            "buffer": [],
            "record": MigrationRecord(
                group=group, src=src, dst=dst,
                epoch=self.router.epoch(group), started=self.clock.now(),
            ),
        }
        self._post(src, ("migrate_out", group, mig_id))

    def migrations(self) -> dict[GroupId, str]:
        """Phase of every in-flight migration (introspection/tests)."""
        return {group: mig["phase"] for group, mig in self._migrations.items()}

    def migration_failed(self, group: GroupId, mig_id: int) -> None:
        """Source relay: it does not host *group* (front-loop only)."""
        mig = self._migrations.get(group)
        if mig is None or mig["id"] != mig_id:
            return
        del self._migrations[group]
        self._finish_migration(mig, "failed")

    def migration_snapshot(
        self, group: GroupId, src: int, snap: GroupSnapshot, mig_id: int
    ) -> None:
        """Source relay: the group is frozen and captured (front-loop
        only).  Introduces live member connections to the destination,
        flags members whose connection died during the freeze (the
        source never saw those closes for the detached runtime), and
        streams the snapshot on."""
        mig = self._migrations.get(group)
        if mig is None or mig["id"] != mig_id:
            # this attempt was aborted while the snapshot was in flight:
            # hand ownership straight back to the source
            self._post(src, ("migrate_abort", group, mig_id))
            return
        mig["phase"] = "installing"
        mig["record"].bytes = snap.size_bytes()
        dst = mig["dst"]
        dead = []
        for client_id, conn, _role, _notices in snap.members:
            if self._conn_client.get(conn) != client_id:
                dead.append(client_id)
                continue
            self._introduce(dst, conn, client_id)
        self._post(
            dst,
            ("migrate_in", group, snap, mig["epoch"] + 1, tuple(dead), mig_id),
        )

    def migration_installed(self, group: GroupId, dst: int, mig_id: int) -> None:
        """Destination relay: snapshot installed + storage adopted
        (front-loop only).  Commits: the lease moves, the epoch bumps,
        and the frozen backlog replays to the new owner."""
        mig = self._migrations.get(group)
        if mig is None or mig["id"] != mig_id:
            # aborted mid-install (a shard restarted underneath it):
            # drop that attempt's copy — the id check on the worker makes
            # this a no-op if a newer attempt already owns the name
            self._post(dst, ("migrate_discard", group, mig_id))
            return
        del self._migrations[group]
        new_epoch = self.router.migrate(group, mig["dst"])
        self._post(mig["src"], ("migrate_commit", group, mig_id))
        self._post(mig["dst"], ("migrate_activate", group, mig_id))
        self._finish_migration(mig, "committed", epoch=new_epoch)

    def abort_migrations_for_shard(self, index: int) -> None:
        """A shard crashed or restarted: unwind every migration it was
        part of.  The lease never moved, so after the unwind the source
        (or its restarted self, recovering from its own store) still
        owns each group and the buffered commands replay there."""
        for group, mig in list(self._migrations.items()):
            if mig["dst"] == index:
                del self._migrations[group]
                self._post(mig["src"], ("migrate_abort", group, mig["id"]))
                self._finish_migration(mig, "aborted")
            elif mig["src"] == index:
                del self._migrations[group]
                if mig["phase"] == "installing":
                    self._post(mig["dst"], ("migrate_discard", group, mig["id"]))
                self._finish_migration(mig, "aborted")

    def _finish_migration(
        self, mig: dict[str, Any], outcome: str, epoch: int | None = None
    ) -> None:
        record = mig["record"]
        record.finished = self.clock.now()
        record.buffered = len(mig["buffer"])
        record.outcome = outcome
        if epoch is not None:
            record.epoch = epoch
        self.migration_log.append(record)
        # replay the frozen backlog in arrival order through the normal
        # routing path: fresh route, fresh epoch stamp, and connections
        # that died during the freeze drop out here
        for conn, client, message in mig["buffer"]:
            if self._conn_client.get(conn) != client:
                continue
            self.handle_message(conn, message)

    # -- ListGroups scatter-gather ---------------------------------------

    def _scatter_list(self, conn: ConnId, request_id: int) -> None:
        self._gathers[(conn, request_id)] = {
            "remaining": self.shard_count,
            "infos": [],
        }
        for shard in range(self.shard_count):
            self._post(shard, ("list", conn, request_id))

    def list_fragment(
        self, conn: ConnId, request_id: int, infos: tuple[GroupInfo, ...]
    ) -> None:
        """One shard's slice of a ListGroups answer (front-loop only)."""
        gather = self._gathers.get((conn, request_id))
        if gather is None:
            return  # connection closed while the scatter was in flight
        gather["remaining"] -= 1
        gather["infos"].extend(infos)
        if gather["remaining"] == 0:
            del self._gathers[(conn, request_id)]
            merged = tuple(sorted(gather["infos"], key=lambda info: info.name))
            self.send(conn, GroupListReply(request_id, merged))


class ShardWorkerBase(HostBackend):
    """The backend-independent half of a shard worker.

    Owns the shard's :class:`ServerCore` + interpreter, its private
    store, the mailbox item protocol, its sends and its relays to the front.
    A driver subclass supplies the mailbox and what drains it
    — :meth:`post`, :meth:`start`, :meth:`stop` and
    :meth:`~repro.runtime.backend.HostBackend.call_later` (a deque and
    one drain callback per tick of the front's asyncio loop in
    :mod:`repro.runtime.shard`, kernel events on a CPU lane in
    :mod:`repro.sim.shard`) — and feeds each dequeued item through
    :meth:`_unwrap` into :meth:`process_item`.

    Mailbox items::

        ("hello",   conn, Hello, peer)    introduce an authenticated client
        ("message", conn, Message, epoch) a routed group-scoped request,
                                          stamped with the lease epoch at
                                          routing time
        ("closed",  conn)                 the connection went away
        ("list",    conn, rid)            answer one ListGroups fragment

        ("migrate_out",      group, mid)                   freeze + stream out
        ("migrate_in",       group, snap, epoch, dead, mid) install a snapshot
        ("migrate_commit",   group, mid)                   source: let go
        ("migrate_activate", group, mid)                   destination: serve
        ("migrate_abort",    group, mid)                   source: take back
        ("migrate_discard",  group, mid|None)              drop a stale copy
    """

    index: int
    core: ServerCore
    conns: set[int]
    recovered_groups: tuple[str, ...]

    def __init__(
        self,
        host: "ShardFront",
        index: int,
        config: ServerConfig,
        clock: Clock,
        recovered: dict[str, RecoveredGroup] | None,
        store: GroupStore | None,
        race_recorder: Any = None,
    ) -> None:
        self._host = host
        self.index = index
        # handed in by the builder rather than read off the host, so the
        # worker never reaches into front-owned state; its hops to the
        # front go through the recorded relays racecheck orders
        self._recorder = race_recorder
        #: Race-trace lane name (matches the recorder middleware lane).
        self._race_lane = f"shard{index}"
        middlewares: tuple[Middleware, ...] = ()
        if race_recorder is not None:
            middlewares = (race_recorder.middleware(self._race_lane),)
        super().__init__(store, middlewares)
        # set_core points the core's transfer counters at this worker's
        # interpreter stats, so aggregate_stats() sees them alongside
        # the effect counters
        self.set_core(ServerCore(config, clock=clock, recovered=recovered))
        scheduler = self.core.scheduler
        if scheduler is not None:
            # scheduler counters land there too
            scheduler.stats = self.interpreter.stats
            if race_recorder is not None:
                scheduler.bind_recorder(race_recorder, self._race_lane)
        #: Immutable snapshot of the groups recovered from this shard's
        #: store, published before the worker loop starts so the front
        #: can seed router leases without reaching into the live core.
        self.recovered_groups = tuple(sorted(recovered)) if recovered else ()
        #: Connections this shard has been introduced to; gates the sends
        #: so those after a forwarded close count as drops, exactly like
        #: the flat server's unknown-connection semantics.
        self.conns = set()
        #: Lease epoch last seen per locally served group; commands
        #: stamped with an older epoch are rejected (corona.stale_epoch).
        self._group_epochs: dict[str, int] = {}
        #: Groups frozen and streamed out, awaiting commit/abort:
        #: name -> (migration id, stashed runtime).
        self._migrating_out: dict[str, tuple[int, GroupRuntime]] = {}
        #: Groups installed but not yet activated: name -> migration id.
        #: Excluded from ListGroups fragments (the source still answers
        #: for them from its stash until the commit lands).
        self._importing: dict[str, int] = {}
        #: Immutable snapshot of served group names, republished after
        #: every item so the front-side topology controller can sample
        #: placement without reaching into the live core.
        self.owned_groups: tuple[str, ...] = self.recovered_groups

    # -- mailbox: what the driver fills in, and what it calls ---------------

    def post(self, item: Any) -> None:
        """Enqueue *item* for this worker's loop, FIFO (front side)."""
        raise NotImplementedError

    def start(self) -> None:
        """Begin draining the mailbox (nothing to do for a worker whose
        loop is driven from outside, like the simulator's)."""

    def stop(self) -> None:
        """Stop serving and close this shard's own store — the worker
        owns its storage handle end to end; the front never touches it
        (racecheck flags an unordered WAL access from any other lane)."""
        raise NotImplementedError

    def _unwrap(self, item: Any) -> tuple:
        """Strip the race-recorder wrap :meth:`ShardFront.post` puts on
        an item, recording the receiving end of the mailbox hop."""
        if type(item) is tuple and item and item[0] == "traced":
            _, token, item = item
            if self._recorder is not None:
                self._recorder.recv(
                    self._race_lane, f"mbox:{self._race_lane}", token
                )
        return item

    def process_item(self, item: tuple) -> None:
        kind = item[0]
        if kind == "hello":
            _, conn, hello, peer = item
            self.conns.add(conn)
            # the shard core learns the peer as a flat core does; the
            # client has the front's HelloReply: the echo goes unsent
            self.interpreter.execute(self.core.on_connected(conn, peer=peer) + [
                effect for effect in self.core.on_message(conn, hello)
                if type(getattr(effect, "message", None)) is not HelloReply
            ])
        elif kind == "message":
            _, conn, message, epoch = item
            if self._epoch_ok(conn, message, epoch):
                self.interpreter.execute(self.core.on_message(conn, message))
        elif kind == "closed":
            _, conn = item
            self.conns.discard(conn)
            self.interpreter.execute(self.core.on_closed(conn))
        elif kind == "list":
            _, conn, request_id = item
            # ListGroups bypasses core dispatch, so the barrier the core
            # applies to non-broadcast messages must happen here, before
            # the log tips are read for the fragment
            self._barrier()
            # Frozen mid-migration groups answer from the stash; freshly
            # installed ones stay invisible until activation — between
            # the two, every scatter (whole-mailbox FIFO before or after
            # the commit posts) counts each group exactly once.
            infos = tuple(
                g.info() for g in self.core.groups.values()
                if g.name not in self._importing
            ) + tuple(
                rt.group.info() for _mid, rt in self._migrating_out.values()
            )
            self._relay(
                lambda: self._host.sessions.list_fragment(conn, request_id, infos)
            )
        elif kind.startswith("migrate_"):
            # the six migration items above: ``_<kind>(*fields)``
            getattr(self, f"_{kind}")(*item[1:])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown mailbox item {item!r}")
        self._publish_groups()

    def _barrier(self) -> None:
        """Commit and send every speculated command, then reopen the
        window (no-op on a serial core or an empty window)."""
        scheduler = self.core.scheduler
        if scheduler is not None and scheduler.pending:
            self.interpreter.execute(self.core.end_batch())
            self.core.begin_batch()

    # -- epoch fencing ----------------------------------------------------

    def _epoch_ok(self, conn: int, message: Message, epoch: int) -> bool:
        group = getattr(message, "group", None)
        if group is None:
            return True
        known = self._group_epochs.get(group)
        if known is None or epoch > known:
            # first sight of the group (or the front re-leased it to us
            # at a higher epoch): adopt the front's stamp
            self._group_epochs[group] = epoch
            return True
        if epoch == known:
            return True
        self.interpreter.stats.stale_epoch_rejects += 1
        # the rejection must not overtake speculated replies on the same
        # connection (mirrors the core's error-path barrier)
        self._barrier()
        err = StaleEpochError(
            f"group {group!r} migrated: command carries epoch {epoch}, "
            f"lease is at epoch {known}"
        )
        self.core._reply_error(conn, getattr(message, "request_id", 0), err)
        self.interpreter.execute(self.core.drain())
        return False

    # -- migration protocol (source side) ---------------------------------

    def _migrate_out(self, group: str, mig_id: int) -> None:
        runtime = self.core.runtimes.get(group)
        if runtime is None:
            self.migration_event_to_front("migration_failed", group, mig_id)
            return
        # freeze barrier: every speculated command must commit (and its
        # effects go out) before the state is captured
        self._barrier()
        snap = snapshot_group(runtime, self.store)
        self.core.detach_group(group)
        self._migrating_out[group] = (mig_id, runtime)
        self.interpreter.stats.migrations_out += 1
        if self._recorder is not None:
            # the snapshot read is the source end of the handoff edge:
            # the race checker must see it ordered before the
            # destination's install write via the mig: relay hops
            self._recorder.read(self._race_lane, f"wal:{group}")
        self.migration_event_to_front(
            "migration_snapshot", group, self.index, snap, mig_id
        )

    def _migrate_commit(self, group: str, mig_id: int) -> None:
        entry = self._migrating_out.get(group)
        if entry is None or entry[0] != mig_id:
            return
        del self._migrating_out[group]
        _mid, runtime = entry
        self.core.forget_group(runtime.group)
        # WAL segment handoff: the destination's store owns the group's
        # durable state now; this shard's segments are dead weight
        self.purge_group_storage(group)
        self._group_epochs.pop(group, None)

    def _migrate_abort(self, group: str, mig_id: int) -> None:
        entry = self._migrating_out.get(group)
        if entry is None or entry[0] != mig_id:
            return
        del self._migrating_out[group]
        _mid, runtime = entry
        restored = self.core.adopt_group(runtime.group)
        # reconcile closes that arrived while the group was detached:
        # handle_closed skipped it (not in runtimes), but conns tracked
        # the disconnect, so strip those members now — with notices,
        # exactly as if the close had been processed normally
        for member in list(runtime.group.members()):
            if member.conn not in self.conns:
                restored.remove_member(member.client_id)
        self.interpreter.stats.migration_aborts += 1
        self.interpreter.execute(self.core.drain())

    # -- migration protocol (destination side) ----------------------------

    def _migrate_in(
        self,
        group: str,
        snap: GroupSnapshot,
        epoch: int,
        dead: tuple[str, ...],
        mig_id: int,
    ) -> None:
        group_obj = restore_group(snap)
        runtime = self.core.adopt_group(group_obj)
        self._importing[group] = mig_id
        self._group_epochs[group] = epoch
        self.adopt_group_storage(snap)
        self.interpreter.stats.migrations_in += 1
        if self._recorder is not None:
            # destination end of the handoff edge (see _migrate_out)
            self._recorder.write(self._race_lane, f"wal:{group}")
        for client_id in dead:
            # the member's connection died during the freeze and the
            # source could not process the close for the detached
            # runtime — deliver the removal (with notices) exactly once,
            # here on the new owner
            if group_obj.is_member(client_id):
                runtime.remove_member(client_id)
        self.interpreter.execute(self.core.drain())
        self.migration_event_to_front(
            "migration_installed", group, self.index, mig_id
        )

    def _migrate_activate(self, group: str, mig_id: int) -> None:
        if self._importing.get(group) == mig_id:
            del self._importing[group]

    def _migrate_discard(self, group: str, mig_id: int | None) -> None:
        """Drop a copy that lost its migration (or, with ``mig_id=None``,
        a recovered copy whose lease points elsewhere)."""
        if mig_id is not None and self._importing.get(group) != mig_id:
            return
        self._importing.pop(group, None)
        self._group_epochs.pop(group, None)
        runtime = self.core.runtimes.get(group)
        if runtime is not None:
            self.core.forget_group(runtime.group)
            self.purge_group_storage(group)

    # -- housekeeping ------------------------------------------------------

    def _publish_groups(self) -> None:
        # every item adds or removes at most one group, so a length
        # check is enough to notice a change without sorting every time
        if len(self.core.runtimes) != len(self.owned_groups):
            self.owned_groups = tuple(sorted(self.core.runtimes))

    def adopt_group_storage(self, snap: GroupSnapshot) -> None:
        """Install a migrated group's durable base into this shard's own
        store segment (no-op when the deployment does not persist)."""
        if self.store is not None:
            self.store.adopt(
                snap.name,
                snap.meta_payload,
                snap.wal_base,
                snap.wal_snapshot,
                list(snap.wal_records),
            )

    # -- relays to the front -------------------------------------------------

    def _hop_token(self, label: str) -> int:
        """Record the sending end of a hop to the front when a race
        recorder is attached (0 = not instrumented)."""
        if self._recorder is None:
            return 0
        return self._recorder.send(self._race_lane, f"{label}:front")

    def _relay(self, fn: Callable[[], None]) -> None:
        """Hand *fn* to the front (the closure runs in front context)."""
        self._host.call_front(fn, self._hop_token("mbox"))

    # -- EffectBackend: sends go straight into the host's outboxes, inline
    # (per-connection order is the worker's FIFO); the host's verdict counts

    def deliver(self, conn: int, message: Any) -> bool:
        host = self._host
        return conn in self.conns and host.alive and host.deliver(conn, message)

    def deliver_batch(self, conn: int, messages: list[Any]) -> bool:
        host = self._host
        return conn in self.conns and host.alive and host.deliver_batch(conn, messages)

    def deliver_fanout(self, conns: Sequence[int], message: Any) -> int:
        """One host call for the whole fan-out, minus unknown recipients."""
        if not self.conns.issuperset(conns):
            conns = tuple(filter(self.conns.__contains__, conns))
        return self._host.deliver_fanout(conns, message) if self._host.alive else 0

    def migration_event_to_front(self, method: str, *args: Any) -> None:
        """Send a migration lifecycle event to the front's sessions
        core as its OWN callback (not inline like the relays above), so
        commands, crashes and restarts can interleave mid-migration at
        deterministic points.  These are the ``mig:`` happens-before
        hops of the handoff protocol — the label lets analysis tooling
        isolate them, and stripping them from a race trace must make
        the source's snapshot read and the destination's install write
        concurrent (see tests)."""
        self.call_later(
            self.migration_event_delay(method, args),
            self._host.run_front,
            lambda: getattr(self._host.sessions, method)(*args),
            self._hop_token("mig"),
        )

    def migration_event_delay(self, method: str, args: tuple) -> float:
        """Seconds a lifecycle event takes to reach the front (the
        simulator charges the snapshot's streaming time here)."""
        return 0.0

    def notify(self, kind: str, payload: Any) -> None:
        self._relay(lambda: self._host.notify(kind, payload))

    def shutdown(self, reason: str) -> None:
        self._relay(lambda: self._host.shutdown(reason))

    # -- EffectBackend: connections ------------------------------------------

    def open_connection(self, address: Any, key: str) -> None:
        pass  # shard cores never dial

    def close_connection(self, conn: int) -> None:
        # A stale-connection close from the shard core: the front owns
        # the real connection (and already closed it); just stop
        # delivering from this shard.
        self.conns.discard(conn)


def front_middlewares(
    middlewares: Iterable[Middleware], race_recorder: Any
) -> tuple[Middleware, ...]:
    """The front interpreter's middleware stack: the caller's, plus the
    race recorder's ``front`` lane when tracing is on."""
    stack = tuple(middlewares)
    if race_recorder is not None:
        stack += (race_recorder.middleware("front"),)
    return stack


class ShardFront:
    """Front coordination of a sharded host, independent of the loop.

    Owns the router, the sessions core, the workers (and the stats of
    retired ones) and everything that coordinates them.  All of it runs
    in *front context* — the one loop that owns the client connections —
    and reaches a worker only through its mailbox.

    A driver mixes this into the
    :class:`~repro.runtime.backend.HostBackend` that runs the sessions
    core — the host *is* its own front — which brings ``interpreter``,
    ``deliver*`` (a worker's sends), ``notify``, ``call_later(delay, fn,
    *args)`` and ``shutdown(reason)`` (stop the whole host: a worker core
    emitted ``ShutDown``).  On top of that it supplies:

    ``alive``
        False once the host stopped or crashed (worker sends drop,
        relays and controller ticks become no-ops);
    ``worker_class``
        the driver's :class:`ShardWorkerBase` subclass.

    Workers supply their own half (``post`` / ``start`` / ``stop`` /
    ``call_later``, see :class:`ShardWorkerBase`).
    """

    interpreter: EffectInterpreter
    alive: bool
    worker_class: type[ShardWorkerBase]

    def __init__(
        self,
        config: ServerConfig,
        shards: int,
        core_clock: Clock,
        store_root: str | Path | None = None,
        race_recorder: Any = None,
    ) -> None:
        self.config = config
        self.shards = shards
        self.core_clock = core_clock
        #: Optional repro.analysis.racecheck.RaceRecorder (duck-typed so
        #: the runtime never imports the analysis package).
        self.race_recorder = race_recorder
        self.router = ShardRouter(shards)  # rejects shards < 1
        self.sessions = ShardSessions(
            config, core_clock, self.router, shards, self.post
        )
        self._store_root = Path(store_root) if store_root is not None else None
        self.workers: list[ShardWorkerBase] = []
        self._retired: list[DispatchStats] = []
        self._controller_timer: Any = None

    # -- workers -------------------------------------------------------------

    def start_workers(self) -> None:
        """Build and start every shard, then lease every recovered group
        that lives away from its natural ring owner, so routing after a
        restart matches where the data actually is — deterministically."""
        for index in range(self.shards):
            self.workers.append(self._build_worker(index))
        for worker in self.workers:
            worker.start()
        for worker in self.workers:
            self._seed_pins_for(worker)

    def _build_worker(self, index: int) -> ShardWorkerBase:
        store: GroupStore | None = None
        recovered: dict[str, RecoveredGroup] | None = None
        persists = self.config.stateful and self.config.persist
        if persists and self._store_root is not None:
            store = GroupStore(self._store_root / f"shard{index}")
            recovered = store.recover_all()
        return self.worker_class(
            self, index, shard_config(self.config, index), self.core_clock,
            recovered, store, self.race_recorder,
        )

    def _seed_pins_for(self, worker: ShardWorkerBase) -> None:
        # recovered_groups is an immutable snapshot published before the
        # worker started — the front never reads the live core
        for name in worker.recovered_groups:
            lease = self.router.lease(name)
            if lease is not None and lease != worker.index:
                # the lease moved while this shard was down (the group
                # migrated away): the recovered copy is stale — the
                # lease holder is authoritative, drop the local replica
                self.post(worker.index, ("migrate_discard", name, None))
            elif lease is None and self.router.natural(name) != worker.index:
                self.router.pin(name, worker.index)

    # -- the two directions of the mailbox fabric -----------------------------

    def post(self, shard: int, item: tuple) -> None:
        """Enqueue *item* on shard *shard*'s mailbox (front context)."""
        if self.race_recorder is not None:
            # migration protocol hops get their own channel label so the
            # analysis layer can tell handoff edges from routine traffic
            label = "mig" if item[0].startswith("migrate_") else "mbox"
            token = self.race_recorder.send("front", f"{label}:shard{shard}")
            item = ("traced", token, item)
        self.workers[shard].post(item)

    def run_front(self, fn: Callable[[], None], token: int = 0) -> None:
        """Run *fn* in front context, then execute the effects it made
        the sessions core emit.  *token* carries the race-recorder hop id
        when instrumentation is on."""
        if not self.alive:
            return
        if token and self.race_recorder is not None:
            self.race_recorder.recv("front", "mbox:front", token)
        fn()
        self.interpreter.execute(self.sessions.drain())

    def call_front(self, fn: Callable[[], None], token: int = 0) -> None:
        """A worker's relay back to the front (``notify``, ``shutdown``,
        ListGroups fragments; sends do not relay).  Inline under every
        driver: workers run on the front's own loop (or kernel), so the
        relay is part of the worker's callback."""
        self.run_front(fn, token)

    # -- stats ---------------------------------------------------------------

    @property
    def dispatch_stats(self) -> DispatchStats:
        """Aggregated counters: front + every shard (including retired
        workers from shard restarts)."""
        parts = [self.interpreter.stats]
        parts.extend(w.interpreter.stats for w in self.workers)
        parts.extend(self._retired)
        return aggregate_stats(parts)

    # -- shard management ----------------------------------------------------

    def drain_shard(self, index: int) -> None:
        """Divert NEW group placements away from shard *index*."""
        self.router.drain(index)

    def undrain_shard(self, index: int) -> None:
        self.router.undrain(index)

    def migrate_group(self, group: GroupId, dst: int) -> None:
        """Begin a live migration of *group* onto shard *dst* (call in
        front context).  The group freezes briefly while its state
        streams over; commands arriving meanwhile buffer at the front
        and replay to the new owner in order."""
        self.run_front(lambda: self.sessions.begin_migration(group, dst))

    def restart_shard(self, index: int) -> ShardWorkerBase:
        """Crash-restart one shard: stop it, recover its store into a
        fresh core, and make the front re-introduce every connection.
        Migrations the shard was part of abort cleanly — ownership stays
        where the lease says it is."""
        old = self.workers[index]
        old.stop()
        # ordered by the stop above: the retired worker can no longer run
        self._retired.append(old.interpreter.stats)
        self.sessions.forget_shard(index)
        worker = self._build_worker(index)
        self.workers[index] = worker
        worker.start()
        self._seed_pins_for(worker)
        # after the fresh worker is reachable: unwind in-flight
        # migrations (buffered commands may replay onto it)
        self.sessions.abort_migrations_for_shard(index)
        self.interpreter.execute(self.sessions.drain())
        return worker

    # -- autoscaling control loop ---------------------------------------------

    def start_controller(
        self, config: TopologyConfig | None = None, ticks: int | None = None
    ) -> TopologyController:
        """Run a :class:`~repro.runtime.topology.TopologyController` in
        front context: sample per-shard load every ``sample_interval``
        seconds and apply the actions it decides (split hot shards via
        migration, merge idle ones, restart wedged workers).  *ticks*
        bounds the number of samples (None = until the host stops)."""
        controller = TopologyController(config or TopologyConfig())

        def arm(left: int | None) -> None:
            if left is None or left > 0:
                self._controller_timer = self.call_later(
                    controller.config.sample_interval, tick, left
                )

        def tick(left: int | None) -> None:
            if self.alive:
                actions = controller.observe(sample_workers(self.workers))
                self.apply_topology_actions(actions)
                arm(None if left is None else left - 1)

        arm(ticks)
        return controller

    def stop_controller(self) -> None:
        if self._controller_timer is not None:
            self._controller_timer.cancel()
            self._controller_timer = None

    def apply_topology_actions(self, actions: Iterable[Any]) -> None:
        """Apply controller decisions (front context only)."""
        for action in actions:
            if isinstance(action, MigrateGroup):
                try:
                    self.migrate_group(action.group, action.dst)
                except ValueError:
                    pass  # raced a concurrent migration/drain; next cycle
            elif isinstance(action, RestartShard):
                self.restart_shard(action.shard)
