"""Slotted frozen values: the generated constructor is a dataclass one.

Every registered wire message and every exported ``Effect`` is a
``@dataclass(frozen=True, slots=True)`` whose ``__init__`` comes from
:func:`repro.wire.codec.compile_init`.  These tests pin it against a
reference constructor kept here — ``object.__new__``, one
``object.__setattr__`` per field, then ``__post_init__``, which is what
the dataclass ``__init__`` it replaced did — and pin the rules around
it: frozen stays frozen, the memo slots start empty, a class that cannot
hold the memo is refused at registration.
"""

import inspect
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.racecheck import RaceRecorder
from repro.core import events
from repro.core.errors import CodecError
from repro.wire import codec, frames
from repro.wire.messages import (
    Delivery,
    JoinGroupRequest,
    Message,
    UpdateKind,
    UpdateRecord,
)


@codec.register(920)
@dataclass(frozen=True, slots=True)
class _Checked(Message):
    """Registered with a ``__post_init__``: the generated constructor
    must run it, as the dataclass one did."""

    count: int
    label: str = "n"

    def __post_init__(self) -> None:
        # the frozen-dataclass idiom for normalizing a field
        object.__setattr__(self, "label", str(self.label))


def _effects():
    exported = (getattr(events, name) for name in events.__all__)
    return [cls for cls in exported
            if isinstance(cls, type) and issubclass(cls, events.Effect)
            and cls is not events.Effect]


VALUE_CLASSES = sorted(
    set(codec._CODE_TO_CLASS.values()) | set(_effects()),
    key=lambda cls: cls.__qualname__,
)


def _reference(cls, kwargs):
    obj = object.__new__(cls)
    for f in fields(cls):
        if f.name in kwargs:
            value = kwargs[f.name]
        elif f.default is not MISSING:
            value = f.default
        else:
            value = f.default_factory()
        object.__setattr__(obj, f.name, value)
    if hasattr(cls, "__post_init__"):
        obj.__post_init__()
    return obj


_values = st.one_of(
    st.integers(0, 2**40), st.text(max_size=6), st.binary(max_size=6),
    st.tuples(st.integers(0, 9), st.integers(0, 9)), st.none(),
)


def test_the_catalogue_and_the_effects_are_covered():
    assert len(codec._CODE_TO_CLASS) > 60
    assert len(_effects()) >= 14
    assert events.SendFanout in VALUE_CLASSES and Delivery in VALUE_CLASSES


@given(st.data())
@settings(deadline=None, max_examples=400)
def test_generated_init_matches_the_reference_constructor(data):
    cls = data.draw(st.sampled_from(VALUE_CLASSES))
    kwargs = {}
    for f in fields(cls):
        has_default = f.default is not MISSING or f.default_factory is not MISSING
        if not has_default or data.draw(st.booleans()):
            kwargs[f.name] = data.draw(_values)
    made, expected = cls(**kwargs), _reference(cls, kwargs)
    assert [getattr(made, f.name) for f in fields(cls)] == [
        getattr(expected, f.name) for f in fields(cls)
    ]
    assert made == expected and repr(made) == repr(expected)
    assert hash(made) == hash(expected)
    assert not hasattr(made, "__dict__")
    if issubclass(cls, Message):
        # the memo slots start set, and empty
        assert frames.cached_frame(made) is None
        assert getattr(made, codec._PAYLOAD_ATTR) is None


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_generated_init_keeps_the_dataclass_signature(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields(cls)]
    for param, f in zip(params, fields(cls)):
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        if f.default is not MISSING:
            assert param.default is f.default
        elif f.default_factory is not MISSING:
            assert repr(param.default) == "<factory>"
        else:
            assert param.default is inspect.Parameter.empty


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_frozen_on_set_and_delete(cls):
    first = fields(cls)[0].name
    obj = cls(**{f.name: 1 for f in fields(cls)})
    with pytest.raises(FrozenInstanceError):
        setattr(obj, first, 2)
    with pytest.raises(FrozenInstanceError):
        delattr(obj, first)
    assert getattr(obj, first) == 1


def test_default_factory_builds_a_fresh_object_per_instance():
    a, b = JoinGroupRequest(1, "g"), JoinGroupRequest(1, "g")
    assert a.transfer == b.transfer
    assert a.transfer is not b.transfer


def test_post_init_still_runs():
    assert _Checked(3).label == "n"
    assert _Checked(3, 5).label == "5"


def test_replace_returns_an_instance_with_an_empty_frame_cache():
    """``flowcontrol._annotate`` builds the annotated copy of a queued
    delivery with ``dataclasses.replace``: the copy must encode its own
    bytes, not inherit the original's frame."""
    original = Delivery("g", UpdateRecord(1, UpdateKind.STATE, "o", b"x", "s", 0.0))
    frames.encoded_frame(original)
    codec.cached_encode(original)
    copy = replace(original, skipped=(7,))
    assert frames.cached_frame(copy) is None
    assert getattr(copy, codec._PAYLOAD_ATTR) is None
    assert frames.encoded_frame(copy) != frames.encoded_frame(original)


def test_register_rejects_a_class_that_cannot_hold_the_memo():
    """A slotted class without ``Message``'s memo slots would re-encode
    once per recipient without a word; registration refuses it."""

    @dataclass(frozen=True, slots=True)
    class Memoless:
        x: int

    with pytest.raises(CodecError, match="Memoless cannot hold the encode memo"):
        codec.register(930)(Memoless)
    assert 930 not in codec._CODE_TO_CLASS


def test_register_rejects_a_message_whose_fields_are_not_slots():
    @dataclass(frozen=True)
    class Dicty(Message):
        x: int

    with pytest.raises(CodecError, match="Dicty.x is not a slot"):
        codec.register(931)(Dicty)
    assert 931 not in codec._CODE_TO_CLASS


def test_cached_encode_cuts_the_payload_from_an_existing_frame():
    record = UpdateRecord(2, UpdateKind.UPDATE, "o", b"y" * 50, "s", 1.0)
    before = codec.encode_counts().get(UpdateRecord, 0)
    frame = frames.encoded_frame(record)
    assert frames.cached_frame(record) is frame  # the memo is the frame
    payload = frames.payload_of(record)
    assert payload == frame[frames.FRAME_OVERHEAD:]
    assert frames.payload_of(record) is payload  # cut once, then memoized
    assert codec.encoded_size(record) == len(frame) - frames.FRAME_OVERHEAD
    assert codec.encode_counts().get(UpdateRecord, 0) - before == 1


def test_a_payload_is_framed_not_encoded_again():
    record = UpdateRecord(3, UpdateKind.UPDATE, "o", b"z" * 50, "s", 1.0)
    before = codec.encode_counts().get(UpdateRecord, 0)
    payload = frames.payload_of(record)
    frame = frames.encoded_frame(record)
    assert frame[frames.FRAME_OVERHEAD:] == payload
    assert frames.payload_of(record) is payload
    assert frames.frame_size(record) == len(payload) + frames.FRAME_OVERHEAD
    assert codec.encode_counts().get(UpdateRecord, 0) - before == 1


def test_racecheck_sees_the_first_encode_of_a_real_message_as_a_write():
    """The memo slot exists (set to ``None``) from construction on, so
    "has the attribute" no longer means "was encoded"."""
    recorder = RaceRecorder()
    delivery = Delivery("g", UpdateRecord(4, UpdateKind.UPDATE, "o", b"w", "s", 0.0))
    recorder.wire_access("shard0", delivery)
    frames.encoded_frame(delivery)
    recorder.wire_access("front", delivery)
    mw = recorder.middleware("front")
    fresh = Delivery("g", UpdateRecord(5, UpdateKind.UPDATE, "o", b"w", "s", 0.0))
    mw(events.SendMessage(1, fresh), lambda effect: None)
    assert [e.kind for e in recorder.events()] == ["write", "read", "write"]
