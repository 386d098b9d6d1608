"""``BoundedOutbox.push`` is one implementation with two ways in: the
plain ``push(message)`` and the fan-out's ``push(message, size,
is_state)`` with what a push would otherwise derive from the message.
For any interleaving of control / UPDATE / STATE / ``StateChunk`` pushes
and drains, under bounds tiny enough that the watermark, the sweep and
the kick all fire, both must leave the outbox exactly where the
straightforward reference below — the push this one was rewritten from,
property chains and all — leaves it.
"""

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
    DisconnectReason,
    StateChunk,
    UpdateKind,
    UpdateRecord,
)

TINY = FlowControlConfig(
    max_outbox_frames=6, max_outbox_bytes=600, coalesce_watermark=2
)


class ReferenceOutbox(BoundedOutbox):
    """The overflow policy spelled out step by step (docs/flow-control.md
    §2-§5), recomputing everything from the message at each use."""

    __slots__ = ()

    def push(self, message):
        if self.kicked:
            return False
        if lane_of(message) is Lane.CONTROL:
            self._control.append(message)
            self._account(frames.frame_size(message))
            return True
        cfg = self._config
        is_state = (
            type(message) is Delivery and message.update.kind is UpdateKind.STATE
        )
        if len(self._bulk) >= cfg.coalesce_watermark and is_state:
            message = self._coalesce_incoming(message)
        if (self.depth + 1 > cfg.max_outbox_frames
                or self.queued_bytes + frames.frame_size(message)
                > cfg.max_outbox_bytes):
            self._sweep()
            if (self.depth + 1 > cfg.max_outbox_frames
                    or self.queued_bytes + frames.frame_size(message)
                    > cfg.max_outbox_bytes):
                self._kick(DisconnectReason.SLOW_CONSUMER)
                return False
        self._bulk.append(message)
        self._account(frames.frame_size(message))
        return True


def _delivery(seqno, kind, object_id, size):
    return Delivery(
        f"g{object_id % 2}",
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


def _message(seqno, op):
    if op[0] == "control":
        return Ack(seqno)
    if op[0] == "chunk":
        return StateChunk("g0", 1, seqno, b"c" * op[1], 1 << 20, False)
    kind = UpdateKind.STATE if op[0] == "state" else UpdateKind.UPDATE
    return _delivery(seqno, kind, op[1], op[2])


def _observe(box, stats):
    return (
        list(box._control), list(box._bulk), box.queued_bytes, len(box),
        box.peak_depth, box.peak_bytes, box.kicked, box.kick_reason,
        stats.outbox_coalesced, stats.outbox_kicks,
    )


@given(_ops)
@settings(deadline=None, max_examples=300)
def test_precomputed_and_plain_push_match_the_reference(ops):
    sides = []
    for cls, precomputed in (
        (ReferenceOutbox, False), (BoundedOutbox, False), (BoundedOutbox, True),
    ):
        stats = DispatchStats()
        sides.append((cls(TINY, stats), stats, precomputed, []))
    for seqno, op in enumerate(ops):
        # one frozen instance per step, shared by the three sides exactly
        # as one Delivery is shared by the recipients of a fan-out
        message = None if op[0].startswith("pop") else _message(seqno, op)
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
    reference = sides[0][3]
    assert sides[1][3] == reference
    assert sides[2][3] == reference


def test_bulk_class_agrees_with_lane_of():
    frames_ = [
        Ack(1), _delivery(1, UpdateKind.UPDATE, 0, 1),
        _delivery(2, UpdateKind.STATE, 0, 1),
        StateChunk("g0", 1, 0, b"c", 10, True),
    ]
    assert [bulk_class(m) for m in frames_] == [None, False, True, False]
    assert [lane_of(m) is Lane.BULK for m in frames_] == [False, True, True, True]
