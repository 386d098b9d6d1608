"""Bounded, prioritized per-connection send queues (flow control).

This module is the *policy* half of the transport send path; the contract
it implements is documented in :doc:`docs/flow-control.md` (normative).
Hosts on both backends (:class:`repro.runtime.host.AsyncioHost` and
:class:`repro.sim.host.SimHost`) put every outgoing frame through a
:class:`BoundedOutbox` so that a single slow consumer of a blast group
cannot grow server memory without bound:

* **Two lanes.**  Frames are classified by :func:`lane_of` into a
  ``CONTROL`` lane (membership, replies, replication, notices — everything
  that is small and latency-sensitive) and a ``BULK`` lane (sequenced
  :class:`~repro.wire.messages.Delivery` fan-out).  The drain order is
  control-first: control frames may overtake queued bulk, but each lane
  stays FIFO internally.
* **Coalescing.**  ``bcastState`` deliveries *override* the object's whole
  state (paper §3.2), so a queued ``STATE`` delivery that has been
  superseded by a newer ``STATE`` for the same ``(group, object_id)`` is
  droppable.  The dropped frame's seqno is annotated onto the next queued
  delivery of the same group (``Delivery.skipped``) so the receiver's
  contiguity checking can account for the gap deterministically.  A
  count of queued STATE deliveries per key answers "is there one to
  drop?" without scanning the lane.
* **Lag-kick.**  When coalescing cannot get the queue back under its
  bounds, the connection is *kicked*: the bulk lane is discarded, a typed
  :class:`~repro.wire.messages.Disconnect` notice is queued on the control
  lane, and the owner closes the connection once the control lane drains.

The outbox itself performs no I/O and never blocks; it is deterministic
given the same push sequence, which is what makes the asyncio and sim
backends agree counter-for-counter (see ``tests/runtime/test_host_parity``).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, fields, replace
from typing import Any

from repro.wire import frames
from repro.wire.messages import (
    Delivery,
    Disconnect,
    DisconnectReason,
    StateChunk,
    UpdateKind,
)

__all__ = [
    "Lane",
    "lane_of",
    "bulk_class",
    "FlowControlConfig",
    "DEFAULT_FLOW",
    "policy_knobs",
    "BoundedOutbox",
]


class Lane(enum.IntEnum):
    """Priority lane of an outgoing frame (lower value drains first)."""

    #: Membership, replies, notices, replication traffic, disconnects.
    CONTROL = 0
    #: Sequenced ``Delivery`` fan-out — the only coalescible traffic.
    BULK = 1


def lane_of(message: Any) -> Lane:
    """Classify a wire message into its priority lane.

    Client-facing :class:`Delivery` frames and chunked state-transfer
    :class:`StateChunk` frames ride the bulk lane — both are big,
    droppable-or-resumable payload traffic that must never delay
    replies and notices (chunks in particular are paced by the
    transfer's in-flight window, so a bounded number ever queue here).
    ``SequencedBcast`` replication traffic is deliberately *control*: a
    replica's log must stay complete, so it is never coalesced or dropped
    behind a kick.
    """
    return Lane.BULK if type(message) in (Delivery, StateChunk) else Lane.CONTROL


@dataclass(frozen=True)
class FlowControlConfig:
    """The flow-control policy knobs (normative: ``docs/flow-control.md``).

    Every field name here is part of the documented contract — a CI check
    (``tools/check_docs.py flow``) fails if ``docs/flow-control.md`` stops
    mentioning one of them.
    """

    #: Hard cap on queued frames per connection (both lanes combined).
    #: A bulk push that would exceed it triggers coalescing, then a kick.
    max_outbox_frames: int = 1024
    #: Hard cap on queued bytes per connection (encoded frame sizes).
    max_outbox_bytes: int = 16 * 1024 * 1024
    #: Bulk-lane depth at which incoming ``STATE`` deliveries start
    #: coalescing superseded same-object frames.  Below it, pushes are
    #: plain O(1) appends (the uncongested fast path).
    coalesce_watermark: int = 64
    #: How many seconds of in-flight traffic the sim backend allows per
    #: link before frames wait in the outbox instead of the network.  The
    #: asyncio analog is the kernel socket buffer; in the sim it bounds
    #: how far ahead of the link the pump runs, which also bounds how long
    #: a control frame can wait behind already-committed bulk bytes.
    link_window: float = 0.25

    def __post_init__(self) -> None:
        if self.max_outbox_frames < 2:
            raise ValueError("max_outbox_frames must be >= 2")
        if self.max_outbox_bytes <= 0:
            raise ValueError("max_outbox_bytes must be positive")
        if self.coalesce_watermark < 0:
            raise ValueError("coalesce_watermark must be >= 0")
        if self.link_window <= 0:
            raise ValueError("link_window must be positive")


DEFAULT_FLOW = FlowControlConfig()


def policy_knobs() -> tuple[str, ...]:
    """Names of every exported policy knob (consumed by the doc-drift CI
    check and by ``docs/flow-control.md`` itself)."""
    return tuple(f.name for f in fields(FlowControlConfig))


def bulk_class(message: Any) -> bool | None:
    """How :meth:`BoundedOutbox.push` treats *message*: ``None`` for a
    control frame, else whether the bulk frame is a coalescible ``STATE``
    delivery.  A fan-out works it out once and passes it to every push."""
    kind = type(message)
    if kind is Delivery:
        return message.update.kind is UpdateKind.STATE
    return False if kind is StateChunk else None


def _annotate(delivery: Delivery, skipped: tuple[int, ...]) -> Delivery:
    merged = tuple(sorted(set(delivery.skipped) | set(skipped)))
    return replace(delivery, skipped=merged)


class BoundedOutbox:
    """One connection's bounded two-lane send queue.

    Pure policy object: ``push`` decides accept / coalesce / kick, the
    owning host drains it (control-first) and performs the actual I/O.
    ``stats`` is duck-typed — any object with ``outbox_coalesced`` and
    ``outbox_kicks`` integer attributes (in practice the host's
    :class:`~repro.core.interpreter.DispatchStats`).
    """

    __slots__ = (
        "_config", "_stats", "_control", "_bulk", "_states", "_bytes",
        "kicked", "kick_reason", "close_requested",
        "peak_depth", "peak_bytes",
    )

    def __init__(self, config: FlowControlConfig, stats: Any) -> None:
        self._config = config
        self._stats = stats
        self._control: deque[Any] = deque()
        #: ``Delivery`` and ``StateChunk`` frames; only ``Delivery`` is
        #: ever coalesced or annotated.
        self._bulk: deque[Any] = deque()
        #: The coalescing index: ``(group, object_id)`` -> STATE deliveries
        #: queued in ``_bulk`` (no zero entries); a miss costs no scan.
        self._states: dict[tuple[str, str], int] = {}
        self._bytes = 0
        #: Set once the overflow policy gave up on this consumer; the
        #: owner must close the connection after the control lane drains.
        self.kicked = False
        self.kick_reason: DisconnectReason | None = None
        #: Set by the owner when the core asked for a graceful close; the
        #: drain loop closes once the queue is empty.
        self.close_requested = False
        self.peak_depth = 0
        self.peak_bytes = 0

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._control) + len(self._bulk)

    @property
    def depth(self) -> int:
        return len(self._control) + len(self._bulk)

    @property
    def queued_bytes(self) -> int:
        return self._bytes

    @property
    def bulk_depth(self) -> int:
        """Frames queued on the bulk lane (deliveries + transfer chunks)."""
        return len(self._bulk)

    @property
    def empty(self) -> bool:
        return not self._control and not self._bulk

    # -- producing --------------------------------------------------------

    def push(
        self, message: Any, size: int | None = None, is_state: bool | None = None
    ) -> bool:
        """Queue *message*; returns False iff it was refused (kicked).

        Control frames are always accepted — they are small, bounded by
        protocol structure, and must not be lost (a refused reply would
        wedge a client).  Bulk frames are subject to the full overflow
        policy: watermark coalescing, then a sweep, then the kick.

        *size* and *is_state* are the caller's ``frames.frame_size(message)``
        and ``bulk_class(message)``, for a caller that pushes one frame
        on many outboxes; left out, they are worked out here.  Either
        way the outbox ends up in the same state.
        """
        if self.kicked:
            return False
        if size is None:
            size = frames.frame_size(message)
        if is_state is None:
            is_state = bulk_class(message)
        control, bulk = self._control, self._bulk
        if is_state is None:
            control.append(message)
        else:
            cfg = self._config
            if is_state:
                key = (message.group, message.update.object_id)
                if len(bulk) >= cfg.coalesce_watermark and key in self._states:
                    merged = self._coalesce_incoming(message)
                    if merged is not message:
                        message, size = merged, frames.frame_size(merged)
            if (len(control) + len(bulk) >= cfg.max_outbox_frames
                    or self._bytes + size > cfg.max_outbox_bytes):
                self._sweep()
                if (len(control) + len(bulk) >= cfg.max_outbox_frames
                        or self._bytes + size > cfg.max_outbox_bytes):
                    self._kick(DisconnectReason.SLOW_CONSUMER)
                    return False
            bulk.append(message)
            if is_state:
                states = self._states
                states[key] = states.get(key, 0) + 1
        # _account(size), inline: this is the per-recipient hot path
        queued = self._bytes = self._bytes + size
        depth = len(control) + len(bulk)
        if depth > self.peak_depth:
            self.peak_depth = depth
        if queued > self.peak_bytes:
            self.peak_bytes = queued
        return True

    # -- draining ---------------------------------------------------------

    def pop_next(self) -> Any | None:
        """Pop one frame, control lane first; None when empty."""
        if self._control:
            message = self._control.popleft()
        elif self._bulk:
            message = self._bulk.popleft()
            if bulk_class(message):
                self._unindex(message)
        else:
            return None
        self._bytes -= frames.frame_size(message)
        return message

    def pop_all(self) -> list[Any]:
        """Drain everything at once (control lane first, lanes FIFO)."""
        batch = list(self._control)
        batch.extend(self._bulk)
        self._control.clear()
        self._bulk.clear()
        self._states.clear()
        self._bytes = 0
        return batch

    # -- overflow policy --------------------------------------------------

    def _account(self, size: int) -> None:
        self._bytes += size
        depth = self.depth
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self._bytes > self.peak_bytes:
            self.peak_bytes = self._bytes

    def _unindex(self, delivery: Delivery) -> None:
        """A queued STATE *delivery* left the bulk lane."""
        key = (delivery.group, delivery.update.object_id)
        left = self._states[key] - 1
        if left:
            self._states[key] = left
        else:
            del self._states[key]

    def _coalesce_incoming(self, message: Delivery) -> Delivery:
        """Drop the queued STATE delivery that *message* supersedes (the
        index says there is one)."""
        key = (message.group, message.update.object_id)
        for index, queued in enumerate(self._bulk):
            if (bulk_class(queued)
                    and (queued.group, queued.update.object_id) == key):
                return self._drop_at(index, incoming=message)
        return message

    def _drop_at(self, index: int, incoming: Delivery | None) -> Delivery | None:
        """Drop ``bulk[index]`` and move its seqno (plus any skips it was
        already carrying) onto the next queued delivery of the same group —
        or onto *incoming* if none is queued after it.

        The annotation point matters: the receiver discovers the gap
        exactly when it sees the next frame of that group, so that is the
        frame that must explain it (see ``GroupView.apply_delivery``).
        """
        bulk = self._bulk
        victim = bulk[index]
        skips = victim.skipped + (victim.update.seqno,)
        del bulk[index]
        self._unindex(victim)
        self._bytes -= frames.frame_size(victim)
        self._stats.outbox_coalesced += 1
        for later in range(index, len(bulk)):
            successor = bulk[later]
            # Only a Delivery can carry the skip annotation — a queued
            # StateChunk of the same group has no ``skipped`` field.
            if type(successor) is Delivery and successor.group == victim.group:
                annotated = _annotate(successor, skips)
                bulk[later] = annotated
                self._bytes += frames.frame_size(annotated) - frames.frame_size(successor)
                return incoming
        if incoming is None:
            raise AssertionError("sweep dropped a frame with no successor")
        return _annotate(incoming, skips)

    def _sweep(self) -> None:
        """Collapse every queued STATE delivery superseded by a later one
        for the same ``(group, object_id)`` (full coalesce, any key)."""
        while True:
            index = self._find_stale()
            if index is None:
                return
            self._drop_at(index, incoming=None)

    def _find_stale(self) -> int | None:
        seen: set[tuple[str, str]] = set()
        stale: int | None = None
        for index in range(len(self._bulk) - 1, -1, -1):
            queued = self._bulk[index]
            if not bulk_class(queued):
                continue
            key = (queued.group, queued.update.object_id)
            if key in seen:
                stale = index
            else:
                seen.add(key)
        return stale

    def _kick(self, reason: DisconnectReason) -> None:
        dropped = len(self._bulk)
        for queued in self._bulk:
            self._bytes -= frames.frame_size(queued)
        self._bulk.clear()
        self._states.clear()
        self.kicked = True
        self.kick_reason = reason
        self._stats.outbox_kicks += 1
        notice = Disconnect(
            reason=reason,
            detail=f"send queue overflow; {dropped} queued frames dropped",
        )
        self._control.append(notice)
        self._account(frames.frame_size(notice))
