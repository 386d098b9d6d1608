"""Compiled codec vs. the reference interpreter, plus the frame cache.

The reference interpreter (:func:`codec.reference_encode` /
:func:`codec.reference_decode`) is the executable specification of the
wire format; these tests pin the compiled fast path — and the per-instance
frame cache built on top of it — byte-for-byte against it, for the entire
registered catalogue and under hypothesis-generated inputs with buffer
reuse.
"""

from array import array
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.wire import codec, frames
from repro.wire.codec import Reader, Writer, register
from repro.wire.framing import frame_message
from repro.wire.messages import (
    Ack,
    Delivery,
    StateChunk,
    UpdateKind,
    UpdateRecord,
)
from tests.analysis.test_wire001 import _instance_of


def _registry() -> dict[int, type]:
    return dict(codec._CODE_TO_CLASS)


# --------------------------------------------------------------------------
# differential: compiled output == reference output, whole catalogue
# --------------------------------------------------------------------------

def test_compiled_matches_reference_for_every_registered_type():
    registry = _registry()
    assert len(registry) > 30, "catalogue unexpectedly small"
    for code in sorted(registry):
        cls = registry[code]
        obj = _instance_of(cls)
        ref = codec.reference_encode(obj)
        assert codec.encode(obj) == ref, cls.__name__
        assert codec.decode(ref) == codec.reference_decode(ref), cls.__name__


def test_every_registered_type_compiles_eagerly():
    """register() compiles the flat encoder/decoder pair up front."""
    for cls in _registry().values():
        assert cls in codec._COMPILED_ENC, cls.__name__
        assert cls in codec._COMPILED_DEC, cls.__name__


def test_cached_frame_matches_direct_framing_for_every_registered_type():
    for code in sorted(_registry()):
        cls = _registry()[code]
        # two equal instances: one framed via the cache, one freshly
        cached = frames.encoded_frame(_instance_of(cls))
        direct = frame_message(_instance_of(cls))
        assert cached.frame == direct, cls.__name__
        assert cached.payload == codec.reference_encode(_instance_of(cls))
        assert cached.frame[frames.FRAME_OVERHEAD:] == cached.payload
        assert cached.frame_size == cached.payload_size + frames.FRAME_OVERHEAD


# --------------------------------------------------------------------------
# subclass polymorphism: the inline fast path must fall back to dispatch
# --------------------------------------------------------------------------

@register(910)
@dataclass(frozen=True)
class _StampedRecord(UpdateRecord):
    """Registered subclass used where the annotation says UpdateRecord."""


def test_subclass_in_nested_field_round_trips():
    sub = _StampedRecord(
        seqno=3, kind=UpdateKind.UPDATE, object_id="o",
        data=b"payload", sender="c1", timestamp=1.5,
    )
    delivery = Delivery(group="g", update=sub)
    ref = codec.reference_encode(delivery)
    assert codec.encode(delivery) == ref
    back = codec.decode(ref)
    assert type(back.update) is _StampedRecord
    assert back == delivery


def test_buffer_valued_bytes_field_encodes_like_bytes():
    # The chunk planner hands the codec memoryview slices of a cached
    # payload; whatever buffer a bytes field holds, the wire sees bytes.
    payload = bytes(range(256)) * 4
    plain = StateChunk("g", 1, 16, payload[16:700], len(payload), False)
    for data in (
        memoryview(payload)[16:700],
        bytearray(payload[16:700]),
        memoryview(array("H", payload[16:700])),  # cast to bytes, not items
    ):
        chunk = StateChunk("g", 1, 16, data, len(payload), False)
        assert codec.encode(chunk) == codec.reference_encode(chunk)
        assert codec.encode(chunk) == codec.encode(plain)
        assert codec.decode(codec.encode(chunk)) == plain


# --------------------------------------------------------------------------
# buffer reuse
# --------------------------------------------------------------------------

_records = st.builds(
    UpdateRecord,
    seqno=st.integers(min_value=-(2**40), max_value=2**40),
    kind=st.sampled_from(list(UpdateKind)),
    object_id=st.text(max_size=20),
    data=st.binary(max_size=200),
    sender=st.text(max_size=10),
    timestamp=st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(_records, min_size=1, max_size=10))
def test_roundtrip_under_shared_buffer_reuse(records):
    """encode() reuses one module-level buffer; successive encodes must
    not bleed into each other and must stay spec-identical."""
    blobs = [codec.encode(r) for r in records]
    for record, blob in zip(records, blobs):
        assert blob == codec.reference_encode(record)
        assert codec.decode(blob) == record


@given(st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=20))
def test_writer_clear_reuses_buffer(values):
    writer = Writer()
    for value in values:
        writer.clear()
        assert len(writer) == 0
        writer.write_uvarint(value)
        reader = Reader(writer.getvalue())
        assert reader.read_uvarint() == value
        assert reader.at_end()


# --------------------------------------------------------------------------
# memoization and the encode counters
# --------------------------------------------------------------------------

def test_cached_encode_is_one_encode_per_instance():
    msg = Ack(123456)
    before = codec.encode_counts().get(Ack, 0)
    first = codec.cached_encode(msg)
    assert codec.cached_encode(msg) is first
    assert codec.encoded_size(msg) == len(first)
    assert frames.encoded_frame(msg).payload == first
    after = codec.encode_counts().get(Ack, 0)
    assert after - before == 1


def test_equal_instances_cache_independently():
    # the cache is per-instance, not per-value
    a, b = Ack(9), Ack(9)
    assert codec.cached_encode(a) == codec.cached_encode(b)
    before = codec.encode_counts().get(Ack, 0)
    codec.cached_encode(Ack(9))
    assert codec.encode_counts().get(Ack, 0) == before + 1


def test_encoded_size_does_not_pay_a_sizing_pass():
    msg = Ack(77)
    before = codec.encode_counts().get(Ack, 0)
    size = codec.encoded_size(msg)
    assert codec.encoded_size(msg) == size
    assert frames.frame_size(msg) == size + frames.FRAME_OVERHEAD
    assert codec.encode_counts().get(Ack, 0) == before + 1


def test_reset_encode_counts():
    codec.cached_encode(Ack(5))
    assert codec.encode_counts()
    codec.reset_encode_counts()
    assert codec.encode_counts() == {}
