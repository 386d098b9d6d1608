"""``BoundedOutbox.push`` is one implementation with two ways in: the
plain ``push(message)`` and the fan-out's ``push(message, size,
is_state)`` with what a push would otherwise derive from the message.
For any interleaving of control / UPDATE / STATE / ``StateChunk`` pushes
and drains, under bounds tiny enough that the watermark, the sweep and
the kick all fire, both must leave the outbox exactly where the
straightforward reference below leaves it.  The reference shares no code
with the class it checks: it finds what to coalesce by scanning the bulk
lane, where the outbox asks its ``(group, object_id)`` index — and that
index must equal a recount of the bulk lane after every operation.
"""

from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interpreter import DispatchStats
from repro.net.flowcontrol import (
    BoundedOutbox,
    FlowControlConfig,
    Lane,
    bulk_class,
    lane_of,
)
from repro.wire import frames
from repro.wire.messages import (
    Ack,
    Delivery,
    Disconnect,
    DisconnectReason,
    StateChunk,
    UpdateKind,
    UpdateRecord,
)

TINY = FlowControlConfig(
    max_outbox_frames=6, max_outbox_bytes=600, coalesce_watermark=2
)
#: Every STATE push past the watermark asks the index; with many keys
#: and a roomier lane, most of them ask about a key that is not queued.
MISS_HEAVY = FlowControlConfig(
    max_outbox_frames=12, max_outbox_bytes=2000, coalesce_watermark=0
)


def _is_state(message):
    return type(message) is Delivery and message.update.kind is UpdateKind.STATE


def _key(delivery):
    return (delivery.group, delivery.update.object_id)


class ReferenceOutbox:
    """The overflow policy spelled out step by step (docs/flow-control.md
    §2-§5), recomputing everything from the message at each use and
    scanning the bulk lane for every coalescing decision."""

    def __init__(self, config, stats):
        self._config, self._stats = config, stats
        self._control, self._bulk = deque(), deque()
        self.queued_bytes = 0
        self.kicked, self.kick_reason = False, None
        self.peak_depth = self.peak_bytes = 0

    def __len__(self):
        return len(self._control) + len(self._bulk)

    def _account(self, size):
        self.queued_bytes += size
        self.peak_depth = max(self.peak_depth, len(self))
        self.peak_bytes = max(self.peak_bytes, self.queued_bytes)

    def push(self, message):
        if self.kicked:
            return False
        if lane_of(message) is Lane.CONTROL:
            self._control.append(message)
            self._account(frames.frame_size(message))
            return True
        cfg = self._config
        if len(self._bulk) >= cfg.coalesce_watermark and _is_state(message):
            for index, queued in enumerate(self._bulk):
                if _is_state(queued) and _key(queued) == _key(message):
                    message = self._drop_at(index, message)
                    break
        if not self._fits(message):
            self._sweep()
            if not self._fits(message):
                self._kick()
                return False
        self._bulk.append(message)
        self._account(frames.frame_size(message))
        return True

    def _fits(self, message):
        cfg = self._config
        return (len(self) + 1 <= cfg.max_outbox_frames
                and self.queued_bytes + frames.frame_size(message)
                <= cfg.max_outbox_bytes)

    def _drop_at(self, index, incoming):
        bulk = self._bulk
        victim = bulk[index]
        skips = set(victim.skipped) | {victim.update.seqno}
        del bulk[index]
        self.queued_bytes -= frames.frame_size(victim)
        self._stats.outbox_coalesced += 1
        for later in range(index, len(bulk)):
            successor = bulk[later]
            if type(successor) is Delivery and successor.group == victim.group:
                annotated = Delivery(
                    successor.group, successor.update,
                    tuple(sorted(set(successor.skipped) | skips)),
                )
                bulk[later] = annotated
                self.queued_bytes += (frames.frame_size(annotated)
                                      - frames.frame_size(successor))
                return incoming
        return Delivery(
            incoming.group, incoming.update,
            tuple(sorted(set(incoming.skipped) | skips)),
        )

    def _sweep(self):
        while True:
            seen, stale = set(), None
            for index in range(len(self._bulk) - 1, -1, -1):
                queued = self._bulk[index]
                if _is_state(queued):
                    if _key(queued) in seen:
                        stale = index
                    seen.add(_key(queued))
            if stale is None:
                return
            self._drop_at(stale, None)

    def _kick(self):
        dropped = len(self._bulk)
        for queued in self._bulk:
            self.queued_bytes -= frames.frame_size(queued)
        self._bulk.clear()
        self.kicked, self.kick_reason = True, DisconnectReason.SLOW_CONSUMER
        self._stats.outbox_kicks += 1
        notice = Disconnect(
            reason=DisconnectReason.SLOW_CONSUMER,
            detail=f"send queue overflow; {dropped} queued frames dropped",
        )
        self._control.append(notice)
        self._account(frames.frame_size(notice))

    def pop_next(self):
        lane = self._control or self._bulk
        if not lane:
            return None
        message = lane.popleft()
        self.queued_bytes -= frames.frame_size(message)
        return message

    def pop_all(self):
        batch = list(self._control) + list(self._bulk)
        self._control.clear()
        self._bulk.clear()
        self.queued_bytes = 0
        return batch


def _delivery(seqno, kind, object_id, size, groups=2):
    return Delivery(
        f"g{object_id % groups}",
        UpdateRecord(seqno, kind, f"obj-{object_id}", b"x" * size, "sender", 0.0),
    )


_sizes = st.sampled_from([1, 40, 200])
_pushes = st.one_of(
    st.tuples(st.just("control")),
    st.tuples(st.just("update"), st.integers(0, 2), _sizes),
    st.tuples(st.just("state"), st.integers(0, 2), _sizes),
    st.tuples(st.just("chunk"), _sizes),
)
_ops = st.lists(
    st.one_of(_pushes, st.tuples(st.sampled_from(["pop_next", "pop_all"]))),
    max_size=60,
)
#: Mostly STATE pushes over 6 groups x 24 objects: coalescing checks
#: that almost never find a queued frame for their key.
_miss_ops = st.lists(
    st.one_of(
        st.tuples(st.just("state"), st.integers(0, 23), st.sampled_from([1, 40])),
        st.tuples(st.just("state"), st.integers(0, 23), st.sampled_from([1, 40])),
        st.tuples(st.just("update"), st.integers(0, 23), st.sampled_from([1, 40])),
        st.tuples(st.sampled_from(["pop_next", "pop_all"])),
    ),
    max_size=80,
)


def _message(seqno, op, groups):
    if op[0] == "control":
        return Ack(seqno)
    if op[0] == "chunk":
        return StateChunk("g0", 1, seqno, b"c" * op[1], 1 << 20, False)
    kind = UpdateKind.STATE if op[0] == "state" else UpdateKind.UPDATE
    return _delivery(seqno, kind, op[1], op[2], groups)


def _observe(box, stats):
    return (
        list(box._control), list(box._bulk), box.queued_bytes, len(box),
        box.peak_depth, box.peak_bytes, box.kicked, box.kick_reason,
        stats.outbox_coalesced, stats.outbox_kicks,
    )


def _check_against_reference(ops, config, groups):
    sides = []
    for cls, precomputed in (
        (ReferenceOutbox, False), (BoundedOutbox, False), (BoundedOutbox, True),
    ):
        stats = DispatchStats()
        sides.append((cls(config, stats), stats, precomputed, []))
    for seqno, op in enumerate(ops):
        # one frozen instance per step, shared by the three sides exactly
        # as one Delivery is shared by the recipients of a fan-out
        message = None if op[0].startswith("pop") else _message(seqno, op, groups)
        for box, stats, precomputed, returned in sides:
            if message is None:
                returned.append(getattr(box, op[0])())
            elif precomputed:
                returned.append(box.push(
                    message, frames.frame_size(message), bulk_class(message)
                ))
            else:
                returned.append(box.push(message))
            returned.append(_observe(box, stats))
            if isinstance(box, BoundedOutbox):
                recount = Counter(_key(m) for m in box._bulk if _is_state(m))
                assert box._states == recount
    reference = sides[0][3]
    assert sides[1][3] == reference
    assert sides[2][3] == reference


@given(_ops)
@settings(deadline=None, max_examples=300)
def test_precomputed_and_plain_push_match_the_reference(ops):
    _check_against_reference(ops, TINY, groups=2)


@given(_miss_ops)
@settings(deadline=None, max_examples=200)
def test_coalescing_misses_match_the_reference(ops):
    _check_against_reference(ops, MISS_HEAVY, groups=6)


def test_bulk_class_agrees_with_lane_of():
    frames_ = [
        Ack(1), _delivery(1, UpdateKind.UPDATE, 0, 1),
        _delivery(2, UpdateKind.STATE, 0, 1),
        StateChunk("g0", 1, 0, b"c", 10, True),
    ]
    assert [bulk_class(m) for m in frames_] == [None, False, True, False]
    assert [lane_of(m) is Lane.BULK for m in frames_] == [False, True, True, True]
