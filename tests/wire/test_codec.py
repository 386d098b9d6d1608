"""Unit and property tests for the binary codec primitives."""

from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import CodecError
from repro.wire import codec
from repro.wire.codec import Reader, Writer
from repro.wire.messages import Message


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_uvarint_roundtrip(self, value):
        w = Writer()
        w.write_uvarint(value)
        assert Reader(w.getvalue()).read_uvarint() == value

    def test_uvarint_rejects_negative(self):
        with pytest.raises(CodecError):
            Writer().write_uvarint(-1)

    def test_uvarint_compactness(self):
        w = Writer()
        w.write_uvarint(127)
        assert len(w) == 1
        w2 = Writer()
        w2.write_uvarint(128)
        assert len(w2) == 2

    @pytest.mark.parametrize("value", [0, -1, 1, -64, 64, -(2**40), 2**40])
    def test_varint_roundtrip(self, value):
        w = Writer()
        w.write_varint(value)
        assert Reader(w.getvalue()).read_varint() == value

    @given(st.integers(min_value=0, max_value=2**64))
    def test_uvarint_roundtrip_property(self, value):
        w = Writer()
        w.write_uvarint(value)
        r = Reader(w.getvalue())
        assert r.read_uvarint() == value
        assert r.at_end()

    @given(st.integers(min_value=-(2**63), max_value=2**63))
    def test_varint_roundtrip_property(self, value):
        w = Writer()
        w.write_varint(value)
        assert Reader(w.getvalue()).read_varint() == value

    def test_truncated_varint_raises(self):
        with pytest.raises(CodecError):
            Reader(b"\x80").read_uvarint()

    def test_overlong_varint_raises(self):
        with pytest.raises(CodecError):
            Reader(b"\xff" * 12).read_uvarint()


class TestPrimitives:
    @given(st.binary(max_size=512))
    def test_bytes_roundtrip(self, data):
        w = Writer()
        w.write_bytes(data)
        assert Reader(w.getvalue()).read_bytes() == data

    @given(st.text(max_size=256))
    def test_str_roundtrip(self, text):
        w = Writer()
        w.write_str(text)
        assert Reader(w.getvalue()).read_str() == text

    @given(st.floats(allow_nan=False))
    def test_double_roundtrip(self, value):
        w = Writer()
        w.write_double(value)
        assert Reader(w.getvalue()).read_double() == value

    @given(st.booleans())
    def test_bool_roundtrip(self, value):
        w = Writer()
        w.write_bool(value)
        assert Reader(w.getvalue()).read_bool() is value

    def test_invalid_utf8_raises(self):
        w = Writer()
        w.write_bytes(b"\xff\xfe")
        with pytest.raises(CodecError):
            Reader(w.getvalue()).read_str()

    def test_truncated_bytes_raises(self):
        w = Writer()
        w.write_bytes(b"hello")
        data = w.getvalue()[:-2]
        with pytest.raises(CodecError):
            Reader(data).read_bytes()


@codec.register(900)
@dataclass(frozen=True, slots=True)
class _Inner(Message):
    name: str
    value: int


@codec.register(901)
@dataclass(frozen=True, slots=True)
class _Outer(Message):
    flag: bool
    items: tuple[int, ...]
    mapping: dict[str, bytes]
    inner: _Inner
    maybe: _Inner | None = None
    score: float = 0.0


class TestDataclassCodec:
    def test_nested_roundtrip(self):
        obj = _Outer(
            flag=True,
            items=(1, -2, 3),
            mapping={"a": b"\x00\x01", "b": b""},
            inner=_Inner("x", 42),
            maybe=_Inner("y", -1),
            score=2.5,
        )
        assert codec.decode(codec.encode(obj)) == obj

    def test_optional_none(self):
        obj = _Outer(False, (), {}, _Inner("", 0), None)
        assert codec.decode(codec.encode(obj)) == obj

    def test_encoded_size_matches_encode(self):
        obj = _Outer(True, (7,), {"k": b"v"}, _Inner("n", 1))
        assert codec.encoded_size(obj) == len(codec.encode(obj))

    def test_unknown_type_code_raises(self):
        with pytest.raises(CodecError):
            codec.decode(b"\xbf\x7f")

    def test_trailing_bytes_raises(self):
        data = codec.encode(_Inner("a", 1)) + b"\x00"
        with pytest.raises(CodecError):
            codec.decode(data)

    def test_unregistered_class_raises(self):
        @dataclass(frozen=True)
        class _Lone:
            x: int

        with pytest.raises(CodecError):
            codec.encode(_Lone(1))

    def test_duplicate_type_code_rejected(self):
        with pytest.raises(CodecError):

            @codec.register(900)
            @dataclass(frozen=True)
            class _Clash:
                x: int

    def test_non_dataclass_rejected(self):
        with pytest.raises(CodecError):
            codec.register(902)(object)

    def test_type_code_lookup(self):
        assert codec.type_code_of(_Inner) == 900
        assert codec.class_for_code(900) is _Inner
        with pytest.raises(CodecError):
            codec.class_for_code(65000)

    @given(
        st.builds(
            _Outer,
            flag=st.booleans(),
            items=st.tuples(),
            mapping=st.dictionaries(st.text(max_size=8), st.binary(max_size=16), max_size=4),
            inner=st.builds(_Inner, name=st.text(max_size=8), value=st.integers(-(2**31), 2**31)),
            maybe=st.none() | st.builds(_Inner, name=st.text(max_size=4), value=st.integers(-10, 10)),
            score=st.floats(allow_nan=False),
        )
    )
    def test_roundtrip_property(self, obj):
        assert codec.decode(codec.encode(obj)) == obj
