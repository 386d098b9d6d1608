"""Customized state transfer: building the snapshot a joining client gets.

"Based on the speed of its connection to the server and application
characteristics, the client may request either to receive the whole state
of the group or the latest n updates to the state (for incremental
updates).  It may also request to be transferred only the state of certain
objects in the shared state of the group." (paper §3.2)

Policies:

* ``FULL`` — every object's materialized byte stream at the log tip.
* ``LATEST_N`` — only the newest *n* update records (cheap over modems;
  right for append-style tools like the chat box).
* ``SELECTED`` — materialized state of the named objects only.
* ``SINCE_SEQNO`` — the update suffix after a seqno the client already has
  (reconnection).  When reduction trimmed the suffix away the outcome
  depends on the spec: with ``allow_delta`` the server ships a **delta
  snapshot** — only the objects touched after the client's seqno,
  materialized at the tip (flag ``SNAP_DELTA``) — otherwise it degrades
  to ``FULL`` and says so with the ``SNAP_FORCED_FULL`` flag, which the
  owner also counts in ``DispatchStats.forced_full_transfers``.
* ``NONE`` — no state at all (pure notification subscriber).

``FULL`` snapshots are memoized per group: repeated joins against an
unchanged group reuse both the materialized :class:`StateSnapshot` *and*
its encoded payload (pre-warmed through :func:`repro.wire.frames.
payload_of`), so the join fast path is O(1) instead of
re-materializing and re-serializing the whole shared state per joiner.
The cache keys on the identity and mutation counters of the group's
``state`` and ``log``, so any append, overwrite, reduction, rollback or
wholesale state replacement (recovery, rebase) invalidates it.

Chunked transfer (the streaming path, contract: ``docs/protocol.md``):
when a spec asks for ``chunked`` and the encoded snapshot payload
exceeds ``TransferConfig.chunk_threshold_bytes``, the server answers the
join with a *marker* snapshot (``SNAP_CHUNKED``, no objects/updates) and
streams the real payload as :class:`~repro.wire.messages.StateChunk`
frames planned by :class:`OutgoingTransfer`.  The planner keeps a
bounded in-flight window clocked by :class:`~repro.wire.messages.
ChunkAck` and adapts the chunk size to the acked-bytes/elapsed-time
bandwidth estimate, between ``chunk_floor_bytes`` and
``chunk_ceiling_bytes``, starting cold at ``initial_chunk_bytes`` or
warm from the last estimate for the same peer host.  It samples in two
phases: once per window round trip until a round first takes
``target_chunk_seconds`` (so a fast link reaches its chunk size in
round trips, not quarter-seconds), and once per ``target_chunk_seconds``
from then on.  Because the chunk stream is a byte-exact slice of the
one snapshot payload, reassembly is
byte-identical to the monolithic path by construction, and a resume
after disconnect restarts at the first byte the client does not have —
never re-sending acked data.

This module is also the *only* place allowed to materialize whole group
state (lint rule ``PERF004``): everything else must go through
:func:`build_snapshot` / :func:`build_checkpoint` so the memoization and
delta logic cannot be bypassed by accident.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.errors import StaleStateError
from repro.core.group import Group
from repro.core.ids import ClientId, GroupId, SeqNo
from repro.wire import frames
from repro.wire.messages import (
    SNAP_CHUNKED,
    SNAP_DELTA,
    SNAP_FORCED_FULL,
    ObjectState,
    StateChunk,
    StateSnapshot,
    TransferPolicy,
    TransferSpec,
)

__all__ = [
    "build_snapshot",
    "build_checkpoint",
    "TransferConfig",
    "DEFAULT_TRANSFER",
    "transfer_knobs",
    "OutgoingTransfer",
    "chunk_marker",
]

#: Group attribute holding the memoized FULL snapshot and its cache key.
_CACHE_ATTR = "_corona_full_snapshot_cache"


@dataclass(frozen=True)
class TransferConfig:
    """The chunked state-transfer policy knobs (normative: ``docs/protocol.md``).

    Every field name here is part of the documented contract — a CI check
    (``tools/check_docs.py transfer``) fails if ``docs/protocol.md`` stops
    mentioning one of them.
    """

    #: Encoded snapshot payloads at or below this size are sent monolithic
    #: even when the client asked for ``chunked`` — small joins keep the
    #: byte/timing-identical cached fast path.
    chunk_threshold_bytes: int = 64 * 1024
    #: First chunk size of a cold transfer (no estimate for its host).
    initial_chunk_bytes: int = 4 * 1024
    #: Adaptation floor: chunks never shrink below this, so slow links
    #: still make progress instead of drowning in per-frame overhead.
    chunk_floor_bytes: int = 1024
    #: Adaptation ceiling: chunks never grow beyond this, so one chunk
    #: can never monopolize the bulk lane for long (live ``Delivery``
    #: frames interleave at chunk granularity).
    chunk_ceiling_bytes: int = 256 * 1024
    #: In-flight window, in chunks: unacked bytes are capped at
    #: ``inflight_chunks * chunk_bytes``, which is what paces the stream
    #: against the consumer instead of dumping the payload in the outbox.
    inflight_chunks: int = 4
    #: The adaptation target: chunk size is steered toward the bytes the
    #: observed bandwidth moves in this many seconds.
    target_chunk_seconds: float = 0.25
    #: EWMA weight of each new acked-bytes/elapsed bandwidth sample
    #: (0 < gain <= 1; higher adapts faster, lower smooths more).
    bandwidth_gain: float = 0.3
    #: How long a disconnected transfer stays resumable before the server
    #: forgets it (seconds); a ``TransferResume`` after expiry is refused
    #: and the client falls back to a fresh join.
    resume_ttl: float = 60.0

    def __post_init__(self) -> None:
        if self.chunk_threshold_bytes < 0:
            raise ValueError("chunk_threshold_bytes must be >= 0")
        if self.chunk_floor_bytes <= 0:
            raise ValueError("chunk_floor_bytes must be positive")
        if self.chunk_ceiling_bytes < self.chunk_floor_bytes:
            raise ValueError("chunk_ceiling_bytes must be >= chunk_floor_bytes")
        if not (self.chunk_floor_bytes
                <= self.initial_chunk_bytes
                <= self.chunk_ceiling_bytes):
            raise ValueError(
                "initial_chunk_bytes must lie within [floor, ceiling]"
            )
        if self.inflight_chunks < 1:
            raise ValueError("inflight_chunks must be >= 1")
        if self.target_chunk_seconds <= 0:
            raise ValueError("target_chunk_seconds must be positive")
        if not (0.0 < self.bandwidth_gain <= 1.0):
            raise ValueError("bandwidth_gain must be in (0, 1]")
        if self.resume_ttl <= 0:
            raise ValueError("resume_ttl must be positive")


DEFAULT_TRANSFER = TransferConfig()


def transfer_knobs() -> tuple[str, ...]:
    """Names of every exported transfer knob (consumed by the doc-drift CI
    check and by ``docs/protocol.md`` itself)."""
    return tuple(f.name for f in fields(TransferConfig))


def build_snapshot(group: Group, spec: TransferSpec) -> StateSnapshot:
    """Build the state transfer for a join per *spec*.

    Never involves any existing member — the service's own copy is the
    source, which is what makes Corona joins fast and member-independent.
    """
    tip = group.log.last_seqno
    next_seqno = group.log.next_seqno

    if spec.policy is TransferPolicy.FULL:
        return _full(group, tip, next_seqno)

    if spec.policy is TransferPolicy.LATEST_N:
        updates = group.log.latest(spec.last_n)
        base = updates[0].seqno - 1 if updates else tip
        return StateSnapshot(
            group=group.name,
            base_seqno=base,
            objects=(),
            updates=updates,
            next_seqno=next_seqno,
        )

    if spec.policy is TransferPolicy.SELECTED:
        return StateSnapshot(
            group=group.name,
            base_seqno=tip,
            objects=group.state.materialize_selected(spec.object_ids),
            updates=(),
            next_seqno=next_seqno,
        )

    if spec.policy is TransferPolicy.SINCE_SEQNO:
        try:
            updates = group.log.since(spec.since_seqno)
        except StaleStateError:
            # The suffix was reduced away.  Ship a delta of the touched
            # objects when the client can merge one; otherwise degrade to
            # FULL — loudly, via the SNAP_FORCED_FULL flag (the owner
            # counts it in DispatchStats.forced_full_transfers).
            if spec.allow_delta:
                return _delta(group, spec.since_seqno, tip, next_seqno)
            full = _full(group, tip, next_seqno)
            return replace(full, flags=full.flags | SNAP_FORCED_FULL)
        return StateSnapshot(
            group=group.name,
            base_seqno=spec.since_seqno,
            objects=(),
            updates=updates,
            next_seqno=next_seqno,
        )

    if spec.policy is TransferPolicy.NONE:
        return StateSnapshot(
            group=group.name,
            base_seqno=tip,
            objects=(),
            updates=(),
            next_seqno=next_seqno,
        )

    raise ValueError(f"unknown transfer policy {spec.policy!r}")


def build_checkpoint(group: Group, tip: SeqNo) -> StateSnapshot:
    """The folded-state checkpoint log reduction persists (WAL compaction).

    Lives here rather than in the reduction path so that every whole-state
    materialization goes through this module (lint rule ``PERF004``).
    """
    return StateSnapshot(
        group=group.name,
        base_seqno=tip,
        objects=group.state.materialize_all(),
        updates=(),
        next_seqno=tip + 1,
    )


def _full(group: Group, tip: int, next_seqno: int) -> StateSnapshot:
    key = (group.state, group.state.mutations, group.log, group.log.mutations)
    cached = getattr(group, _CACHE_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    snapshot = StateSnapshot(
        group=group.name,
        base_seqno=tip,
        objects=group.state.materialize_all(),
        updates=(),
        next_seqno=next_seqno,
    )
    # Pre-warm the encoded payload: a snapshot travels inside a JoinReply
    # (whose encoder splices the memoized payload) or as chunks of it,
    # never as a frame of its own, so every consumer of the cached
    # snapshot reuses one serialization.  Oversized snapshots fail when
    # the JoinReply is framed, at send time.
    frames.payload_of(snapshot)
    setattr(group, _CACHE_ATTR, (key, snapshot))
    return snapshot


def _delta(
    group: Group, since_seqno: SeqNo, tip: int, next_seqno: int
) -> StateSnapshot:
    """Only the objects touched after *since_seqno*, materialized at tip.

    An object whose ``last_seqno`` is at or below the client's seqno has
    byte-identical content on both sides (materialized state only changes
    through applied updates), so omitting it is lossless; the client
    overlays the shipped objects wholesale and keeps the rest.
    """
    state = group.state
    touched = []
    for object_id in state.object_ids():
        obj = state.get(object_id)
        if obj.last_seqno > since_seqno:
            touched.append(ObjectState(object_id, obj.materialized()))
    return StateSnapshot(
        group=group.name,
        base_seqno=tip,
        objects=tuple(touched),
        updates=(),
        next_seqno=next_seqno,
        flags=SNAP_DELTA,
    )


def chunk_marker(snapshot: StateSnapshot) -> StateSnapshot:
    """The empty ``SNAP_CHUNKED`` snapshot announcing a chunk stream.

    Carries the real snapshot's seqno bookkeeping (and its ``SNAP_DELTA``
    / ``SNAP_FORCED_FULL`` flags) so the client can set up its view and
    catch-up buffer before the first chunk arrives.
    """
    return StateSnapshot(
        group=snapshot.group,
        base_seqno=snapshot.base_seqno,
        objects=(),
        updates=(),
        next_seqno=snapshot.next_seqno,
        flags=snapshot.flags | SNAP_CHUNKED,
    )


class OutgoingTransfer:
    """Server-side chunk planner for one join's snapshot stream.

    Owns the byte cursor over the encoded snapshot payload and decides,
    purely from acks and the config, which :class:`StateChunk` frames to
    emit next.  No I/O and no clock of its own — callers pass ``now`` so
    both backends (wall clock and virtual time) drive the same logic.

    The in-flight window (``inflight_chunks * chunk_bytes`` unacked
    bytes) is what lets live ``Delivery`` traffic interleave: the bulk
    lane never holds more than a window of chunk bytes, so a concurrent
    update queued behind them is sent within one window's transmission
    time instead of after the entire snapshot.

    Bandwidth is sampled in two phases.  In *slow start* a sample is
    taken each time the whole flight that was outstanding after the
    previous sample has been acked — one window round trip, timed from
    the moment that flight went out — so a link whose round trip is a
    millisecond reaches its chunk size after one round instead of never.
    The first round that takes ``target_chunk_seconds`` or longer (or a
    resume) ends the phase for good; from then on a sample is taken at
    most once per ``target_chunk_seconds``.

    A *bandwidth* above 0.0 is a warm start: it sizes the first chunks
    only, and the estimate is the transfer's own from its first sample.
    """

    __slots__ = (
        "group", "client", "transfer_id", "snapshot", "payload",
        "total_bytes", "chunk_bytes", "sent_offset", "acked_offset",
        "paused", "expires_at", "_config", "_bandwidth",
        "_last_sample_at", "_pending_bytes", "_slow_start", "_round_end",
    )

    def __init__(
        self,
        *,
        group: GroupId,
        client: ClientId,
        transfer_id: int,
        snapshot: StateSnapshot,
        config: TransferConfig,
        now: float,
        bandwidth: float = 0.0,
    ) -> None:
        self.group = group
        self.client = client
        self.transfer_id = transfer_id
        self.snapshot = snapshot
        self.payload = frames.payload_of(snapshot)
        self.total_bytes = len(self.payload)
        self._config = config
        self.chunk_bytes = self._clamp(
            bandwidth * config.target_chunk_seconds if bandwidth > 0.0
            else config.initial_chunk_bytes
        )
        self.sent_offset = 0
        self.acked_offset = 0
        #: Bytes/sec EWMA from ack arrivals; 0.0 until the first sample.
        self._bandwidth = 0.0
        self._last_sample_at = now
        self._pending_bytes = 0
        #: Sampling phase: per round trip while True, per interval after.
        self._slow_start = True
        #: Slow start's round mark: ``sent_offset`` as it stood once the
        #: flight that followed the previous round was out.
        self._round_end = 0
        #: True while the client is disconnected; armed with a TTL.
        self.paused = False
        self.expires_at: float | None = None

    # -- introspection ----------------------------------------------------

    @property
    def done(self) -> bool:
        """Every payload byte has been acked; the session can be dropped."""
        return self.acked_offset >= self.total_bytes

    @property
    def bandwidth(self) -> float:
        """Current bytes/sec estimate (0.0 before the first ack)."""
        return self._bandwidth

    def _clamp(self, size: float) -> int:
        cfg = self._config
        # int() last: a sample over a vanishing gap is inf
        return int(max(cfg.chunk_floor_bytes, min(cfg.chunk_ceiling_bytes, size)))

    # -- planning ---------------------------------------------------------

    def next_chunks(self) -> list[StateChunk]:
        """Chunks to send now, respecting the in-flight window."""
        if self.paused:
            return []
        out: list[StateChunk] = []
        # Views, not copies: the codec writes them straight into the frame.
        payload = memoryview(self.payload)
        window = self._config.inflight_chunks * self.chunk_bytes
        while (self.sent_offset < self.total_bytes
               and self.sent_offset - self.acked_offset < window):
            size = min(self.chunk_bytes, self.total_bytes - self.sent_offset)
            end = self.sent_offset + size
            out.append(
                StateChunk(
                    group=self.group,
                    transfer_id=self.transfer_id,
                    offset=self.sent_offset,
                    data=payload[self.sent_offset:end],
                    total_bytes=self.total_bytes,
                    last=end >= self.total_bytes,
                )
            )
            self.sent_offset = end
        if self.acked_offset >= self._round_end:
            # The last round is acked: what is in flight now is the next.
            self._round_end = self.sent_offset
        return out

    def on_ack(self, offset: int, now: float) -> list[StateChunk]:
        """Absorb an ack: advance the window, re-estimate bandwidth,
        adapt the chunk size, and return the chunks that now fit."""
        if self.paused or offset <= self.acked_offset:
            return []
        # Never past what was sent: a sample must not count bytes that
        # never moved, and ``done`` must not come true early.
        offset = min(offset, self.sent_offset)
        self._pending_bytes += offset - self.acked_offset
        self.acked_offset = offset
        # Acks can arrive in bursts (ack compression: on a half-duplex
        # link the return path queues behind the chunks themselves), and
        # a per-ack bytes/elapsed over a microscopic gap would wildly
        # overestimate the link.  So a sample spans a full target
        # interval, which folds a burst into one honest figure — or, in
        # slow start, a full round: the round's last chunk left at the
        # previous sample, so ``elapsed`` is a real send-to-ack time.
        # A round faster than the interval moved more than a chunk per
        # interval, so slow start only ever grows the chunk; the round
        # rule ends with it because after a shrink the window holds
        # delivered bytes whose acks come back to back.
        elapsed = now - self._last_sample_at
        interval = elapsed >= self._config.target_chunk_seconds
        if interval or (
            self._slow_start and offset >= self._round_end and elapsed > 0.0
        ):
            if interval:
                self._slow_start = False
            sample = self._pending_bytes / elapsed
            gain = self._config.bandwidth_gain
            if self._bandwidth <= 0.0:
                self._bandwidth = sample
            else:
                self._bandwidth += gain * (sample - self._bandwidth)
            self.chunk_bytes = self._clamp(
                self._bandwidth * self._config.target_chunk_seconds
            )
            self._pending_bytes = 0
            self._last_sample_at = now
        return self.next_chunks()

    # -- disconnect / resume ----------------------------------------------

    def pause(self, now: float) -> None:
        """The client's connection closed mid-transfer; keep the session
        resumable until the TTL expires."""
        self.paused = True
        self.expires_at = now + self._config.resume_ttl

    def resume(self, offset: int, now: float) -> bool:
        """Rewind to *offset* (the first byte the client lacks) and
        unpause.  False when the offset is out of range — the caller
        refuses the resume and the client rejoins from scratch."""
        if not (0 <= offset <= self.sent_offset):
            return False
        self.paused = False
        self.expires_at = None
        self.sent_offset = offset
        self.acked_offset = offset
        # Restart the bandwidth clock: the link likely changed across the
        # disconnect, and a stale sample window would poison the EWMA.
        self._last_sample_at = now
        self._pending_bytes = 0
        # And no ramp: a link that just dropped the connection gets the
        # interval rule, as every resume did before slow start existed.
        self._slow_start = False
        return True
