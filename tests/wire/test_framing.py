"""Tests for stream framing: chunked feeds, batching, limits, and
in-place decoding against the reference decoder."""

from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import FrameTooLargeError
from repro.wire import codec, frames
from repro.wire.framing import FrameDecoder, frame_message
from repro.wire.messages import (
    Ack,
    BcastUpdateRequest,
    DeliveryMode,
    JoinReply,
    Message,
    ObjectState,
    PingRequest,
    StateSnapshot,
)


@codec.register(940)
@dataclass(frozen=True, slots=True)
class _WideCode(Message):
    """A two-byte type code: decoded through the uvarint path, not the
    first-byte table."""

    label: str
    blob: bytes


#: A JoinReply whose one object is 64 KiB: always spans many reads.
_BIG_REPLY = JoinReply(
    9, StateSnapshot("g", 3, (ObjectState("o", bytes(range(256)) * 256),), (), 4), ()
)


def test_single_frame_roundtrip():
    msg = Ack(7)
    dec = FrameDecoder()
    assert list(dec.feed(frame_message(msg))) == [msg]
    assert dec.buffered == 0


def test_byte_at_a_time_feed():
    msg = BcastUpdateRequest(3, "g", "o", b"payload", DeliveryMode.EXCLUSIVE)
    data = frame_message(msg)
    dec = FrameDecoder()
    out = []
    for i in range(len(data)):
        out.extend(dec.feed(data[i : i + 1]))
    assert out == [msg]


def test_multiple_frames_in_one_chunk():
    msgs = [Ack(i) for i in range(10)]
    blob = b"".join(frame_message(x) for x in msgs)
    dec = FrameDecoder()
    assert list(dec.feed(blob)) == msgs


def test_partial_then_rest():
    msgs = [PingRequest(1), PingRequest(2)]
    blob = b"".join(frame_message(x) for x in msgs)
    dec = FrameDecoder()
    first = list(dec.feed(blob[:5]))
    rest = list(dec.feed(blob[5:]))
    assert first + rest == msgs


def test_incoming_frame_too_large():
    dec = FrameDecoder(max_frame_size=8)
    oversized = frame_message(BcastUpdateRequest(1, "g", "o", b"x" * 64, DeliveryMode.INCLUSIVE))
    with pytest.raises(FrameTooLargeError):
        list(dec.feed(oversized))


def test_outgoing_frame_too_large(monkeypatch):
    # The limit is enforced by the frame cache, which framing delegates to.
    monkeypatch.setattr(frames, "MAX_FRAME_SIZE", 1)
    with pytest.raises(FrameTooLargeError):
        frame_message(Ack(1))


def test_buffered_reports_pending_bytes():
    dec = FrameDecoder()
    data = frame_message(Ack(1))
    assert len(data) == 6  # 4-byte prefix + 2-byte payload
    list(dec.feed(data[:5]))
    assert dec.buffered == 5  # every byte held counts, length prefix included
    assert dec.feed(data[5:]) == [Ack(1)]
    assert dec.buffered == 0


def test_a_frame_in_many_pieces_is_appended_until_it_is_whole(monkeypatch):
    """Linear partial frames: until the last piece, a feed only appends
    (returns nothing, holds exactly one piece more), and the frame is
    decoded once, when it is whole."""
    decoded = []
    real_decode_at = codec.decode_at

    def counting_decode_at(data, start, end):
        decoded.append(end - start)
        return real_decode_at(data, start, end)

    monkeypatch.setattr(codec, "decode_at", counting_decode_at)
    data = frame_message(_BIG_REPLY)
    # the prefix itself arrives in two pieces, then the rest in 4 KiB reads
    pieces = [data[:2], data[2:3]] + [data[i:i + 4096] for i in range(3, len(data), 4096)]
    dec = FrameDecoder()
    for piece in pieces[:-1]:
        held = dec.buffered
        assert dec.feed(piece) == []
        assert dec.buffered == held + len(piece)
    assert dec.feed(pieces[-1]) == [_BIG_REPLY]
    assert dec.buffered == 0
    assert decoded == [len(data) - frames.FRAME_OVERHEAD]


@given(st.lists(st.integers(0, 2**31), max_size=20), st.integers(1, 64))
def test_arbitrary_chunking_property(request_ids, chunk):
    msgs = [Ack(i) for i in request_ids]
    blob = b"".join(frame_message(x) for x in msgs)
    dec = FrameDecoder()
    out = []
    for i in range(0, len(blob), chunk):
        out.extend(dec.feed(blob[i : i + chunk]))
    assert out == msgs


_ids = st.text(alphabet="aZ0é漢🙂", min_size=1, max_size=6)
_mixed = st.one_of(
    st.builds(Ack, st.integers(0, 2**40)),
    st.builds(BcastUpdateRequest, st.integers(0, 2**20), _ids, _ids,
              st.binary(max_size=80), st.sampled_from(DeliveryMode)),
    st.builds(_WideCode, _ids, st.binary(max_size=40)),
    st.just(_BIG_REPLY),
)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_in_place_decoding_equals_the_reference_decoder(data):
    """A framed stream of mixed messages, cut at random points: feeding
    the pieces yields exactly what the reference decoder makes of each
    payload — and nothing decoded holds a view of a read chunk."""
    required = [
        Ack(1),
        BcastUpdateRequest(2, "grüppe", "objét-🙂", b"\x00\xff", DeliveryMode.EXCLUSIVE),
        _BIG_REPLY,
        _WideCode("wide", b"w"),
    ]
    messages = data.draw(st.permutations(
        required + data.draw(st.lists(_mixed, max_size=8))))
    framed = [frame_message(m) for m in messages]
    blob = b"".join(framed)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=24)))
    dec = FrameDecoder()
    out = []
    for start, stop in zip([0, *cuts], [*cuts, len(blob)]):
        out.extend(dec.feed(blob[start:stop]))
    assert out == [codec.reference_decode(f[frames.FRAME_OVERHEAD:]) for f in framed]
    assert dec.buffered == 0
    assert all(map(_holds_no_view, out))


def _holds_no_view(value) -> bool:
    if isinstance(value, (memoryview, bytearray)):
        return False
    if isinstance(value, Message):
        return all(_holds_no_view(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        return all(map(_holds_no_view, value))
    return True
