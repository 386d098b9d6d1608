"""Per-group runtime: one self-contained service object per group.

:class:`~repro.core.server.ServerCore` used to interleave group-scoped
work (sequencing, state application, lock grants, reduction) with
connection routing in one flat class, which blocked the paper's §4.1
"split groups over servers" scale-out.  A :class:`GroupRuntime` owns
everything scoped to one :class:`~repro.core.group.Group` — its log,
membership, locks, reduction — and is keyed by ``GroupId`` in
``ServerCore.runtimes``.  The core keeps only hello/auth/routing; it
resolves the runtime for a request's group and delegates.

Because a runtime touches nothing outside its group except the owner
callbacks below, runtimes are independently relocatable: a later PR can
place different groups' runtimes on different worker shards or servers
without touching the protocol logic.

Owner callbacks (overridden by ``ReplicatedServerCore`` to make
decisions global instead of local):

* ``group_sequenced(runtime, record, mode, sender_conn)`` — a record was
  sequenced locally (the coordinator distributes it to peers);
* ``group_emptied(runtime)`` — the last member left (locally drop a
  transient group / withdraw interest with the coordinator);
* ``group_reduced(runtime, tip)`` — a reduction was requested (the
  coordinator orders peers to reduce too);
* ``_membership_for_reply(group)`` / ``_notify_membership(group, ...)``
  / ``_send_grant(group, grant)`` — membership views and lock-grant
  delivery, which need the owner's routing tables.

:class:`GroupsView` keeps the historical ``core.groups`` mapping of
``GroupId -> Group`` working: reading yields the runtime's group,
assigning installs a runtime.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, MutableMapping

from repro.core.errors import AlreadyMemberError, LockHeldError, NotAuthorizedError
from repro.core.events import AppendWal, SendFanout, SendMulticast, WriteCheckpoint
from repro.core.group import Group
from repro.core.ids import ClientId, ConnId, GroupId
from repro.core.locks import LockGrant
from repro.core.transfer import build_checkpoint, build_snapshot
from repro.wire import frames
from repro.wire.messages import (
    SNAP_DELTA,
    SNAP_FORCED_FULL,
    AcquireLockRequest,
    Ack,
    Delivery,
    DeliveryMode,
    JoinGroupRequest,
    JoinReply,
    LockGranted,
    MemberRole,
    MembershipReply,
    ReleaseLockRequest,
    StateSnapshot,
    UpdateKind,
    UpdateRecord,
)

if TYPE_CHECKING:
    from repro.core.server import ServerCore

__all__ = ["GroupRuntime", "GroupsView"]


class GroupRuntime:
    """The service logic of one group, bound to its owning core."""

    def __init__(self, group: Group, owner: "ServerCore") -> None:
        self.group = group
        self.owner = owner

    @property
    def name(self) -> GroupId:
        return self.group.name

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def join(self, conn: ConnId, client: ClientId, msg: JoinGroupRequest) -> None:
        group, owner = self.group, self.owner
        if group.is_member(client):
            raise AlreadyMemberError(f"{client!r} already joined {group.name!r}")
        if owner.config.stateful:
            snapshot = build_snapshot(group, msg.transfer)
            if snapshot.flags & SNAP_FORCED_FULL:
                owner.stats.forced_full_transfers += 1
            if snapshot.flags & SNAP_DELTA:
                owner.stats.delta_transfers += 1
        else:
            # A stateless sequencer has no state to transfer.
            snapshot = StateSnapshot(
                group=group.name,
                base_seqno=group.log.last_seqno,
                objects=(),
                updates=(),
                next_seqno=group.log.next_seqno,
            )
        reply_snapshot = snapshot
        if owner.config.stateful and msg.transfer.chunked:
            marker = owner.start_transfer(
                client, snapshot,
                role=msg.role, notify_membership=msg.notify_membership,
            )
            if marker is not None:
                reply_snapshot = marker
        member = group.add_member(
            client, conn, msg.role, wants_membership_notices=msg.notify_membership
        )
        owner.send(
            conn,
            JoinReply(msg.request_id, reply_snapshot, self.membership_for_reply()),
        )
        if reply_snapshot is not snapshot:
            # The member is in the group before the first chunk is
            # planned, so every concurrent update fans out to it live —
            # chunks and deliveries interleave on the bulk lane.
            owner.pump_transfer(group.name, client)
        owner._notify_membership(group, joined=(member.info(),), left=())

    def remove_member(self, client: ClientId) -> None:
        """Leave or failure: grants move on, subscribers hear, and the
        owner decides what an empty group means."""
        group, owner = self.group, self.owner
        member = group.remove_member(client)
        for grant in group.locks.release_all(client):
            owner._send_grant(group, grant)
        owner._notify_membership(group, joined=(), left=(member.info(),))
        if group.empty:
            owner.group_emptied(self)

    def membership_for_reply(self) -> tuple:
        return self.owner._membership_for_reply(self.group)

    def reply_membership(self, conn: ConnId, request_id: int) -> None:
        self.owner.send(
            conn,
            MembershipReply(request_id, self.name, self.membership_for_reply()),
        )

    # ------------------------------------------------------------------
    # multicast
    # ------------------------------------------------------------------

    def sequence(
        self, kind: UpdateKind, object_id: str, data: bytes, sender: ClientId
    ) -> UpdateRecord:
        """Allocate the next global sequence number for one update."""
        # positional: one of these per broadcast, and a keyword call
        # costs more than the fields' stores
        return UpdateRecord(
            self.group.sequencer.allocate(), kind, object_id, data, sender,
            self.owner.clock.now(),
        )

    def broadcast(
        self,
        conn: ConnId,
        client: ClientId,
        msg,
        kind: UpdateKind,
    ) -> None:
        group, owner = self.group, self.owner
        member = group.member(client)
        if member.role is MemberRole.OBSERVER:
            raise NotAuthorizedError(f"observer {client!r} cannot broadcast")
        scheduler = owner.scheduler
        if scheduler is not None and scheduler.active:
            if kind is UpdateKind.STATE:
                # whole-object override: a barrier — everything
                # speculated ahead of it must commit first, then the
                # command itself runs on the serial path below
                scheduler.flush()
            else:
                scheduler.submit(self, conn, client, msg, kind)
                return
        record = self.sequence(kind, msg.object_id, msg.data, client)
        self.apply_and_deliver(record, msg.mode)
        owner.send(conn, Ack(msg.request_id))
        owner.group_sequenced(self, record, msg.mode, conn)

    def apply_and_deliver(
        self,
        record: UpdateRecord,
        mode: DeliveryMode,
        delivery: Delivery | None = None,
    ) -> None:
        """Apply a sequenced record and fan it out to local members, in
        join order, as ONE effect however many they are.

        Shared by the local fast path, the replicated slow path (where
        the record arrives already sequenced by the coordinator), and
        the scheduler commit path, which passes the *delivery* it
        prepared on an execution lane so the frame encodes only once.
        """
        group, owner = self.group, self.owner
        # keep the sequencer ahead of everything applied — a replica that
        # is later promoted to coordinator must not reuse sequence numbers
        group.sequencer.fast_forward(record.seqno)
        if owner.config.stateful:
            group.log.append(record)
            group.state.apply(record)
            if owner.config.persist:
                owner.emit(
                    AppendWal(group.name, record.seqno, frames.payload_of(record))
                )
        if delivery is None:
            delivery = Delivery(group.name, record)
        if mode is DeliveryMode.EXCLUSIVE:
            targets = group.conns_without(record.sender)
        else:
            targets = group.conns
        if owner.config.use_multicast and len(targets) > 1:
            owner.emit(SendMulticast(targets, delivery))
        elif targets:
            owner.emit(SendFanout(targets, delivery))
        if owner.config.stateful and owner.config.reduction.should_reduce(
            group.log, group.state
        ):
            self.reduce()

    # ------------------------------------------------------------------
    # locks
    # ------------------------------------------------------------------

    def acquire_lock(
        self, conn: ConnId, client: ClientId, msg: AcquireLockRequest
    ) -> None:
        group, owner = self.group, self.owner
        outcome = group.locks.acquire(
            msg.object_id, client, msg.request_id, msg.blocking
        )
        if outcome is True:
            owner.send(conn, LockGranted(msg.request_id, group.name, msg.object_id))
        elif outcome is False:
            holder = group.locks.holder(msg.object_id)
            owner._reply_error(
                conn, msg.request_id,
                LockHeldError(f"lock on {msg.object_id!r} held by {holder!r}"),
            )
        # outcome None: queued; LockGranted follows a future release.

    def release_lock(
        self, conn: ConnId, client: ClientId, msg: ReleaseLockRequest
    ) -> None:
        group, owner = self.group, self.owner
        grant: LockGrant | None = group.locks.release(msg.object_id, client)
        owner.send(conn, Ack(msg.request_id))
        if grant is not None:
            owner._send_grant(group, grant)

    # ------------------------------------------------------------------
    # log reduction
    # ------------------------------------------------------------------

    def reduce(self, upto: int | None = None) -> None:
        """Trim the update history and replace it with the folded state."""
        group, owner = self.group, self.owner
        requested = group.log.last_seqno if upto is None else upto
        tip = min(requested, group.log.last_seqno)
        if tip >= 0 and tip >= group.log.first_seqno and owner.config.stateful:
            group.state.fold(tip)
            group.log.trim_to(tip)
            if owner.on_checkpoint is not None:
                owner.on_checkpoint(group.name, tip)
            if owner.config.persist:
                snapshot = build_checkpoint(group, tip)
                owner.emit(
                    WriteCheckpoint(group.name, tip, frames.payload_of(snapshot))
                )
        # the owner hears every reduction request, performed or already
        # satisfied — the coordinator relays the order either way
        owner.group_reduced(self, requested)


class GroupsView(MutableMapping):
    """``dict[GroupId, Group]`` façade over ``ServerCore.runtimes``.

    Reading returns the runtime's :class:`Group`; writing installs a
    :class:`GroupRuntime` for the assigned group, so code (and tests)
    that managed ``core.groups`` directly keeps working unchanged.
    """

    def __init__(self, core: "ServerCore") -> None:
        self._core = core

    def __getitem__(self, name: GroupId) -> Group:
        return self._core.runtimes[name].group

    def __setitem__(self, name: GroupId, group: Group) -> None:
        if group.name != name:
            raise ValueError(f"group {group.name!r} installed under key {name!r}")
        self._core.install_group(group)

    def __delitem__(self, name: GroupId) -> None:
        del self._core.runtimes[name]

    def __iter__(self):
        return iter(self._core.runtimes)

    def __len__(self) -> int:
        return len(self._core.runtimes)

    def __repr__(self) -> str:
        return f"GroupsView({list(self._core.runtimes)!r})"
