"""Live group migration: freeze, snapshot, stream, replay, unfreeze.

A group's ownership (which shard worker runs its
:class:`~repro.core.group_runtime.GroupRuntime`) used to be fixed at
creation.  This module provides the transferable unit that makes
ownership *migratable*: a :class:`GroupSnapshot` captures everything a
destination worker needs to continue the group exactly where the source
froze it —

* the structural shared state (per-object base / base-seqno / unfolded
  increments, NOT the materialized bytes, so the WAL tail replays
  without double-applying),
* the in-memory log tail and its reduction point,
* the sequencer position,
* membership in join order (fan-out order is part of the paper's §4.1
  ordering contract and must survive the handoff),
* the lock table including FIFO waiter queues,
* and the durable half: the newest checkpoint plus the WAL records
  above it, so the destination's store segment recovers the group after
  a crash exactly as the source's would have.

The protocol itself lives in ``repro.runtime.sharding``; this module is
pure data + (de)construction: the definition of "the state that moves".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.group import Group
from repro.core.group_runtime import GroupRuntime
from repro.core.locks import LockTable
from repro.core.log import StateLog
from repro.core.state import SharedState
from repro.wire import frames
from repro.wire.messages import GroupMeta, MemberRole, ObjectState, UpdateRecord

__all__ = [
    "GroupSnapshot",
    "MigrationRecord",
    "restore_group",
    "snapshot_group",
]

#: Migration outcome labels recorded in :class:`MigrationRecord`.
OUTCOMES = ("committed", "aborted", "failed")


@dataclass(frozen=True)
class GroupSnapshot:
    """Everything that moves when a group changes owner."""

    name: str
    persistent: bool
    initial_state: tuple[ObjectState, ...]
    created_at: float
    #: Encoded :class:`GroupMeta` — written verbatim as the destination
    #: store's ``meta.bin`` so recovery decodes the same metadata.
    meta_payload: bytes
    #: ``SharedState.export_objects()``: (id, base, base_seqno, increments).
    objects: tuple
    #: In-memory log tail (records after the last reduction).
    log_records: tuple[UpdateRecord, ...]
    log_first_seqno: int
    #: Sequencer position: the next seqno the group will allocate.
    next_seqno: int
    #: Members in join order: (client_id, conn, role, wants_notices).
    members: tuple[tuple[str, int, MemberRole, bool], ...]
    #: ``LockTable.export()``: (object_id, holder, waiters) per lock.
    locks: tuple
    #: Durable base shipped to the destination store: the source's newest
    #: checkpoint seqno (-1 when none)...
    wal_base: int = -1
    #: ...its snapshot bytes verbatim...
    wal_snapshot: bytes | None = None
    #: ...and the encoded WAL records above it, i.e. the segment tail.
    wal_records: tuple[tuple[int, bytes], ...] = ()

    def size_bytes(self) -> int:
        """Approximate transfer size (reported in migration records)."""
        total = len(self.meta_payload) + len(self.wal_snapshot or b"")
        for _oid, base, _seq, increments in self.objects:
            total += len(base) + sum(len(data) for _s, data in increments)
        total += sum(len(r.data) for r in self.log_records)
        total += sum(len(payload) for _s, payload in self.wal_records)
        return total


@dataclass
class MigrationRecord:
    """One migration's observable life, kept by the front for
    ``repro topology`` and the migration benchmark."""

    group: str
    src: int
    dst: int
    epoch: int
    started: float
    finished: float = 0.0
    #: Commands the front buffered while the group was frozen.
    buffered: int = 0
    #: Snapshot transfer size.
    bytes: int = 0
    outcome: str = "pending"

    @property
    def freeze_window(self) -> float:
        """Wall (or virtual) time the group was frozen."""
        return max(0.0, self.finished - self.started)


def snapshot_group(runtime: GroupRuntime, store) -> GroupSnapshot:
    """Capture *runtime*'s group for transfer.

    The caller must have barriered the scheduler first (no speculated
    command may be in flight).  *store* is the source worker's
    :class:`~repro.storage.store.GroupStore` (or ``None`` when the
    deployment does not persist): it contributes the durable base so the
    destination's store can take over crash recovery for the group.
    """
    group = runtime.group
    meta = GroupMeta(
        name=group.name,
        persistent=group.persistent,
        initial_state=group.initial_state,
        created_at=group.created_at,
    )
    wal_base = -1
    wal_snapshot: bytes | None = None
    wal_records: tuple[tuple[int, bytes], ...] = ()
    if store is not None:
        loaded = store.latest_checkpoint(group.name)
        if loaded is not None:
            wal_base, wal_snapshot = loaded
        # The in-memory log tail IS the WAL suffix above the checkpoint:
        # reduction folds state and trims the log at the same seqno the
        # checkpoint rotation discards segments at.
        wal_records = tuple(
            (record.seqno, frames.payload_of(record))
            for record in group.log.records()
            if record.seqno > wal_base
        )
    return GroupSnapshot(
        name=group.name,
        persistent=group.persistent,
        initial_state=group.initial_state,
        created_at=group.created_at,
        meta_payload=frames.payload_of(meta),
        objects=group.state.export_objects(),
        log_records=group.log.records(),
        log_first_seqno=group.log.first_seqno,
        next_seqno=group.sequencer.next_seqno,
        members=tuple(
            (m.client_id, m.conn, m.role, m.wants_membership_notices)
            for m in group.members()
        ),
        locks=group.locks.export(),
        wal_base=wal_base,
        wal_snapshot=wal_snapshot,
        wal_records=wal_records,
    )


def restore_group(snap: GroupSnapshot) -> Group:
    """Rebuild a :class:`Group` from a snapshot on the new owner.

    Every mutable structure is rebuilt fresh — the restored group shares
    nothing with the source's stashed copy, so an aborted migration can
    re-adopt the original while a committed one continues on the clone.
    """
    group = Group(
        name=snap.name,
        persistent=snap.persistent,
        initial_state=snap.initial_state,
        created_at=snap.created_at,
    )
    group.state = SharedState.from_export(snap.objects)
    group.log = StateLog.restore(snap.log_records, snap.log_first_seqno)
    group.locks = LockTable.restore(snap.locks)
    group.sequencer.fast_forward(snap.next_seqno - 1)
    for client_id, conn, role, wants_notices in snap.members:
        group.add_member(client_id, conn, role, wants_membership_notices=wants_notices)
    return group
