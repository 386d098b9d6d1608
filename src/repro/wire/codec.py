"""Binary codec for protocol messages.

Corona's wire format is a compact, self-describing binary encoding built
from a handful of primitives:

* unsigned LEB128 varints (lengths, counts, type codes),
* zigzag varints for signed integers,
* big-endian IEEE-754 doubles for floats,
* length-prefixed UTF-8 for strings and raw bytes,
* a one-byte presence flag for optional fields.

Every encodable class is a dataclass registered with a stable 16-bit type
code via :func:`register`.  Values are always encoded *with* their type
code, which makes polymorphic fields (declared as a base class) work
transparently and lets a reader reject unknown types cleanly.

This codec stands in for the paper's JDK object serialization; its per-byte
cost is what the simulator charges as "serialization cost" when reproducing
the evaluation.

Two implementations share the format:

* the **compiled codec** (the default): :func:`register` derives a flat
  per-class encoder/decoder function — one generated pass over the fields
  with varint/length handling inlined, no per-field closure dispatch and no
  repeated ``get_type_hints`` — and :func:`encode` reuses one module-level
  output buffer so steady-state encoding allocates only the result bytes;
* the **reference interpreter** (the original, closure-per-field codec),
  kept as :func:`reference_encode` / :func:`reference_decode`.  It is the
  executable specification: tests assert the compiled codec is
  byte-for-byte identical to it for every registered message type.

:func:`cached_encode` additionally memoizes the encoded payload on the
message instance itself (messages are frozen dataclasses, so the bytes can
never go stale).  The fan-out paths — framing, transports, the simulator's
cost model — go through it (via :mod:`repro.wire.frames`), which is what
makes a broadcast cost one serialization no matter how many receivers it
has.  :data:`encode counters <encode_counts>` record every real (cache
missing) encode per class so tests and benchmarks can prove the
encode-once property.
"""

from __future__ import annotations

import enum
import struct
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Callable, get_args, get_origin, get_type_hints

from repro.core.errors import CodecError

__all__ = [
    "register",
    "encode",
    "encode_into",
    "decode",
    "encoded_size",
    "cached_encode",
    "reference_encode",
    "reference_decode",
    "encode_counts",
    "reset_encode_counts",
    "type_code_of",
    "class_for_code",
    "Writer",
    "Reader",
]

_DOUBLE = struct.Struct(">d")


class Writer:
    """Append-only buffer with primitive write operations.

    :meth:`clear` resets the buffer for reuse without releasing its
    allocation, so one ``Writer`` can serve many messages.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def clear(self) -> None:
        """Drop the contents, keeping the buffer object for reuse."""
        del self._buf[:]

    def __len__(self) -> int:
        return len(self._buf)

    def write_uvarint(self, value: int) -> None:
        if value < 0:
            raise CodecError(f"uvarint cannot encode negative value {value}")
        buf = self._buf
        while value >= 0x80:
            buf.append((value & 0x7F) | 0x80)
            value >>= 7
        buf.append(value)

    def write_varint(self, value: int) -> None:
        # zigzag: maps signed to unsigned so small magnitudes stay short
        self.write_uvarint(value * 2 if value >= 0 else -value * 2 - 1)

    def write_bool(self, value: bool) -> None:
        self._buf.append(1 if value else 0)

    def write_double(self, value: float) -> None:
        self._buf.extend(_DOUBLE.pack(value))

    def write_bytes(self, value: bytes) -> None:
        self.write_uvarint(len(value))
        self._buf.extend(value)

    def write_str(self, value: str) -> None:
        self.write_bytes(value.encode("utf-8"))


class Reader:
    """Sequential reader over an immutable byte buffer."""

    __slots__ = ("_view", "_pos")

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._view) - self._pos

    def at_end(self) -> bool:
        return self._pos >= len(self._view)

    def _take(self, n: int) -> memoryview:
        if self.remaining < n:
            raise CodecError(
                f"truncated buffer: needed {n} bytes, had {self.remaining}"
            )
        chunk = self._view[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def read_uvarint(self) -> int:
        result = 0
        shift = 0
        view = self._view
        pos = self._pos
        end = len(view)
        while True:
            if pos >= end:
                raise CodecError("truncated varint")
            byte = view[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 70:
                raise CodecError("varint too long")
        self._pos = pos
        return result

    def read_varint(self) -> int:
        raw = self.read_uvarint()
        return (raw >> 1) ^ -(raw & 1)

    def read_bool(self) -> bool:
        return self._take(1)[0] != 0

    def read_double(self) -> float:
        return _DOUBLE.unpack(self._take(8))[0]

    def read_bytes(self) -> bytes:
        length = self.read_uvarint()
        return bytes(self._take(length))

    def read_str(self) -> str:
        try:
            return self.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string field: {exc}") from exc


Encoder = Callable[[Writer, Any], None]
Decoder = Callable[[Reader], Any]

_CODE_TO_CLASS: dict[int, type] = {}
_CLASS_TO_CODE: dict[type, int] = {}
_FIELD_CODECS: dict[type, list[tuple[str, Encoder, Decoder]]] = {}

#: Compiled per-class fast paths: ``fn(buf: bytearray, obj) -> None`` and
#: ``fn(view: memoryview, pos: int, end: int) -> (obj, pos)``.
_COMPILED_ENC: dict[type, Callable[[bytearray, Any], None]] = {}
_COMPILED_DEC: dict[type, Callable[[memoryview, int, int], tuple[Any, int]]] = {}

#: Real encodes performed per message class (cache misses only); see
#: :func:`encode_counts`.
_ENCODE_COUNTS: dict[type, int] = {}

#: Instance attribute holding the memoized payload (see cached_encode).
_PAYLOAD_ATTR = "_corona_wire_payload"


def register(type_code: int) -> Callable[[type], type]:
    """Class decorator assigning *type_code* to a dataclass.

    Type codes must be unique and stable; they are part of the wire format.
    Registration also compiles the class's flat encoder/decoder pair when
    its type hints are already resolvable; classes with forward references
    compile lazily on first use instead.
    """

    def _apply(cls: type) -> type:
        if not is_dataclass(cls):
            raise CodecError(f"{cls.__name__} must be a dataclass to register")
        if type_code in _CODE_TO_CLASS and _CODE_TO_CLASS[type_code] is not cls:
            raise CodecError(
                f"type code {type_code} already used by "
                f"{_CODE_TO_CLASS[type_code].__name__}"
            )
        _CODE_TO_CLASS[type_code] = cls
        _CLASS_TO_CODE[cls] = type_code
        try:
            _compile_encoder(cls)
            _compile_decoder(cls)
        except Exception:
            # Unresolvable forward references (or an unsupported field
            # type): defer to first use, matching the lazy seed codec.
            _COMPILED_ENC.pop(cls, None)
            _COMPILED_DEC.pop(cls, None)
        return cls

    return _apply


def type_code_of(cls: type) -> int:
    """Return the registered type code of *cls*."""
    try:
        return _CLASS_TO_CODE[cls]
    except KeyError:
        raise CodecError(f"{cls.__name__} is not a registered wire type") from None


def class_for_code(code: int) -> type:
    """Return the class registered under *code*."""
    try:
        return _CODE_TO_CLASS[code]
    except KeyError:
        raise CodecError(f"unknown wire type code {code}") from None


def _is_optional(tp: Any) -> Any:
    """If *tp* is ``X | None``, return X; otherwise return None."""
    origin = get_origin(tp)
    if origin in (typing.Union, types.UnionType):
        args = [a for a in get_args(tp) if a is not type(None)]
        if len(args) == 1 and type(None) in get_args(tp):
            return args[0]
    return None


# --------------------------------------------------------------------------
# reference interpreter (the original codec, retained as the executable
# specification of the wire format)
# --------------------------------------------------------------------------


def _codec_for(tp: Any) -> tuple[Encoder, Decoder]:
    """Build an (encoder, decoder) pair for the annotation *tp*."""
    inner = _is_optional(tp)
    if inner is not None:
        enc_i, dec_i = _codec_for(inner)

        def enc_opt(w: Writer, v: Any) -> None:
            if v is None:
                w.write_bool(False)
            else:
                w.write_bool(True)
                enc_i(w, v)

        def dec_opt(r: Reader) -> Any:
            return dec_i(r) if r.read_bool() else None

        return enc_opt, dec_opt

    origin = get_origin(tp)
    if origin in (list, tuple):
        args = get_args(tp)
        if origin is tuple:
            if len(args) != 2 or args[1] is not Ellipsis:
                raise CodecError(f"only homogeneous tuple[X, ...] supported, got {tp}")
            elem_tp = args[0]
        else:
            (elem_tp,) = args or (Any,)
        enc_e, dec_e = _codec_for(elem_tp)
        make = tuple if origin is tuple else list

        def enc_seq(w: Writer, v: Any) -> None:
            w.write_uvarint(len(v))
            for item in v:
                enc_e(w, item)

        def dec_seq(r: Reader) -> Any:
            n = r.read_uvarint()
            return make(dec_e(r) for _ in range(n))

        return enc_seq, dec_seq

    if origin is dict:
        key_tp, val_tp = get_args(tp)
        enc_k, dec_k = _codec_for(key_tp)
        enc_v, dec_v = _codec_for(val_tp)

        def enc_map(w: Writer, v: dict) -> None:
            w.write_uvarint(len(v))
            for key, val in v.items():
                enc_k(w, key)
                enc_v(w, val)

        def dec_map(r: Reader) -> dict:
            n = r.read_uvarint()
            return {dec_k(r): dec_v(r) for _ in range(n)}

        return enc_map, dec_map

    if isinstance(tp, type):
        if issubclass(tp, bool):
            return (lambda w, v: w.write_bool(v)), Reader.read_bool
        if issubclass(tp, enum.IntEnum):
            def dec_enum(r: Reader, _tp: type = tp) -> Any:
                raw = r.read_varint()
                try:
                    return _tp(raw)
                except ValueError as exc:
                    raise CodecError(
                        f"{raw} is not a valid {_tp.__name__}"
                    ) from exc

            return (lambda w, v: w.write_varint(int(v))), dec_enum
        if issubclass(tp, int):
            return (lambda w, v: w.write_varint(v)), Reader.read_varint
        if issubclass(tp, float):
            return (lambda w, v: w.write_double(v)), Reader.read_double
        if issubclass(tp, str):
            return (lambda w, v: w.write_str(v)), Reader.read_str
        if issubclass(tp, (bytes, bytearray, memoryview)):
            return (lambda w, v: w.write_bytes(bytes(v))), Reader.read_bytes
        if is_dataclass(tp):
            # Nested registered dataclass; encoded with its type code so
            # fields declared as a base class accept any subclass.
            return _encode_value, _decode_value

    raise CodecError(f"unsupported wire field type: {tp!r}")


def _field_codecs(cls: type) -> list[tuple[str, Encoder, Decoder]]:
    cached = _FIELD_CODECS.get(cls)
    if cached is not None:
        return cached
    hints = get_type_hints(cls)
    codecs: list[tuple[str, Encoder, Decoder]] = []
    for f in fields(cls):
        if f.metadata.get("wire_skip"):
            continue
        enc, dec = _codec_for(hints[f.name])
        codecs.append((f.name, enc, dec))
    _FIELD_CODECS[cls] = codecs
    return codecs


def _encode_value(writer: Writer, obj: Any) -> None:
    cls = type(obj)
    writer.write_uvarint(type_code_of(cls))
    for name, enc, _dec in _field_codecs(cls):
        try:
            enc(writer, getattr(obj, name))
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(
                f"cannot encode field {cls.__name__}.{name}: {exc}"
            ) from exc


def _decode_value(reader: Reader) -> Any:
    code = reader.read_uvarint()
    cls = class_for_code(code)
    kwargs: dict[str, Any] = {}
    for name, _enc, dec in _field_codecs(cls):
        kwargs[name] = dec(reader)
    # Re-default skipped fields so dataclasses without defaults still build.
    for f in fields(cls):
        if f.metadata.get("wire_skip") and f.name not in kwargs:
            if f.default is not MISSING:
                kwargs[f.name] = f.default
            elif f.default_factory is not MISSING:  # type: ignore[misc]
                kwargs[f.name] = f.default_factory()  # type: ignore[misc]
    try:
        return cls(**kwargs)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"cannot construct {cls.__name__}: {exc}") from exc


def reference_encode(obj: Any) -> bytes:
    """Encode with the interpreted reference codec (spec for tests)."""
    writer = Writer()
    _encode_value(writer, obj)
    return writer.getvalue()


def reference_decode(data: bytes) -> Any:
    """Decode with the interpreted reference codec (spec for tests)."""
    reader = Reader(data)
    obj = _decode_value(reader)
    if not reader.at_end():
        raise CodecError(f"{reader.remaining} trailing bytes after message")
    return obj


# --------------------------------------------------------------------------
# compiled codec: per-class generated encode/decode functions
# --------------------------------------------------------------------------


class _Names:
    """Unique local-variable names for generated code."""

    __slots__ = ("_n",)

    def __init__(self) -> None:
        self._n = 0

    def new(self, stem: str) -> str:
        self._n += 1
        return f"{stem}{self._n}"


def _uvarint_bytes(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _emit_uvarint(var: str, lines: list[str], ind: str) -> None:
    """Append statements encoding the non-negative int in *var* (consumed)."""
    lines += [
        f"{ind}while {var} >= 128:",
        f"{ind}    buf.append({var} & 127 | 128)",
        f"{ind}    {var} >>= 7",
        f"{ind}buf.append({var})",
    ]


#: Nested registered classes are inlined into their parent's generated
#: function (behind an exact-type guard) at most this many levels deep;
#: deeper or recursive nesting falls back to the dispatcher.
_INLINE_DEPTH = 3


def _emit_encode(
    tp: Any,
    expr: str,
    lines: list[str],
    ns: dict,
    names: _Names,
    ind: str,
    stack: frozenset = frozenset(),
) -> None:
    """Generate statements appending the encoding of *expr* to ``buf``.

    Mirrors :func:`_codec_for` case by case so the produced bytes are
    identical to the reference interpreter's.
    """
    inner = _is_optional(tp)
    if inner is not None:
        v = names.new("v")
        lines.append(f"{ind}{v} = {expr}")
        lines.append(f"{ind}if {v} is None:")
        lines.append(f"{ind}    buf.append(0)")
        lines.append(f"{ind}else:")
        lines.append(f"{ind}    buf.append(1)")
        _emit_encode(inner, v, lines, ns, names, ind + "    ", stack)
        return

    origin = get_origin(tp)
    if origin in (list, tuple):
        args = get_args(tp)
        if origin is tuple:
            if len(args) != 2 or args[1] is not Ellipsis:
                raise CodecError(f"only homogeneous tuple[X, ...] supported, got {tp}")
            elem_tp = args[0]
        else:
            (elem_tp,) = args or (Any,)
        seq, n, item = names.new("seq"), names.new("n"), names.new("item")
        lines.append(f"{ind}{seq} = {expr}")
        lines.append(f"{ind}{n} = len({seq})")
        _emit_uvarint(n, lines, ind)
        lines.append(f"{ind}for {item} in {seq}:")
        _emit_encode(elem_tp, item, lines, ns, names, ind + "    ", stack)
        return

    if origin is dict:
        key_tp, val_tp = get_args(tp)
        d, n, k, v = names.new("d"), names.new("n"), names.new("k"), names.new("v")
        lines.append(f"{ind}{d} = {expr}")
        lines.append(f"{ind}{n} = len({d})")
        _emit_uvarint(n, lines, ind)
        lines.append(f"{ind}for {k}, {v} in {d}.items():")
        _emit_encode(key_tp, k, lines, ns, names, ind + "    ", stack)
        _emit_encode(val_tp, v, lines, ns, names, ind + "    ", stack)
        return

    if isinstance(tp, type):
        if issubclass(tp, bool):
            lines.append(f"{ind}buf.append(1 if {expr} else 0)")
            return
        if issubclass(tp, (enum.IntEnum, int)):
            # zigzag varint (IntEnum arithmetic yields plain ints)
            v = names.new("v")
            lines.append(f"{ind}{v} = {expr}")
            lines.append(f"{ind}{v} = {v} + {v} if {v} >= 0 else -{v} - {v} - 1")
            _emit_uvarint(v, lines, ind)
            return
        if issubclass(tp, float):
            lines.append(f"{ind}buf += _pack_double({expr})")
            return
        if issubclass(tp, str):
            b, n = names.new("b"), names.new("n")
            lines.append(f"{ind}{b} = {expr}.encode('utf-8')")
            lines.append(f"{ind}{n} = len({b})")
            _emit_uvarint(n, lines, ind)
            lines.append(f"{ind}buf += {b}")
            return
        if issubclass(tp, (bytes, bytearray, memoryview)):
            b, n = names.new("b"), names.new("n")
            lines.append(f"{ind}{b} = {expr}")
            # A memoryview goes in as it is — a chunk sliced out of a
            # cached payload is copied once, into the frame, not twice.
            lines.append(f"{ind}if {b}.__class__ is not bytes:")
            lines.append(
                f"{ind}    {b} = ({b}.cast('B') if {b}.__class__ is memoryview"
                f" else bytes({b}))"
            )
            n_ = n
            lines.append(f"{ind}{n_} = len({b})")
            _emit_uvarint(n_, lines, ind)
            lines.append(f"{ind}buf += {b}")
            return
        if is_dataclass(tp):
            _emit_encode_nested(tp, expr, lines, ns, names, ind, stack)
            return

    raise CodecError(f"unsupported wire field type: {tp!r}")


def _emit_encode_nested(
    tp: type,
    expr: str,
    lines: list[str],
    ns: dict,
    names: _Names,
    ind: str,
    stack: frozenset,
) -> None:
    """Nested dataclass field: reuse a memoized payload when the instance
    carries one (``cached_encode`` / the frame cache stamp full encodings
    — type code included — so the bytes splice in verbatim), otherwise
    inline the concrete class behind an exact-type guard, falling back to
    runtime dispatch (which handles subclasses and abstract bases like
    ``Message``)."""
    inline = (
        tp in _CLASS_TO_CODE
        and tp not in stack
        and len(stack) < _INLINE_DEPTH
    )
    if inline:
        try:
            hints = get_type_hints(tp)
        except Exception:
            inline = False
    if not inline:
        lines.append(f"{ind}_encode_any(buf, {expr})")
        return
    ns.setdefault("_PA", _PAYLOAD_ATTR)
    v, p = names.new("v"), names.new("p")
    cls_name, code_name = names.new("C"), names.new("cb")
    ns[cls_name] = tp
    ns[code_name] = _uvarint_bytes(_CLASS_TO_CODE[tp])
    lines.append(f"{ind}{v} = {expr}")
    lines.append(f"{ind}{p} = getattr({v}, _PA, None)")
    lines.append(f"{ind}if {p} is not None:")
    lines.append(f"{ind}    buf += {p}")
    lines.append(f"{ind}elif {v}.__class__ is {cls_name}:")
    lines.append(f"{ind}    buf += {code_name}")
    body_at = len(lines)
    for f in fields(tp):
        if f.metadata.get("wire_skip"):
            continue
        _emit_encode(
            hints[f.name], f"{v}.{f.name}", lines, ns, names,
            ind + "    ", stack | {tp},
        )
    if len(lines) == body_at:
        lines.append(f"{ind}    pass")
    lines.append(f"{ind}else:")
    lines.append(f"{ind}    _encode_any(buf, {v})")


def _emit_decode_uvarint(var: str, lines: list[str], names: _Names, ind: str) -> None:
    """Append statements reading a uvarint from ``view`` at ``pos`` into *var*."""
    b, s = names.new("b"), names.new("s")
    lines += [
        f"{ind}if pos >= end:",
        f"{ind}    raise _CodecError('truncated varint')",
        f"{ind}{var} = view[pos]",
        f"{ind}pos += 1",
        f"{ind}if {var} >= 128:",
        f"{ind}    {var} &= 127",
        f"{ind}    {s} = 7",
        f"{ind}    while True:",
        f"{ind}        if pos >= end:",
        f"{ind}            raise _CodecError('truncated varint')",
        f"{ind}        {b} = view[pos]",
        f"{ind}        pos += 1",
        f"{ind}        {var} |= ({b} & 127) << {s}",
        f"{ind}        if not {b} & 128:",
        f"{ind}            break",
        f"{ind}        {s} += 7",
        f"{ind}        if {s} > 70:",
        f"{ind}            raise _CodecError('varint too long')",
    ]


def _emit_decode(
    tp: Any,
    target: str,
    lines: list[str],
    ns: dict,
    names: _Names,
    ind: str,
    stack: frozenset = frozenset(),
) -> None:
    """Generate statements decoding one value of *tp* into local *target*."""
    inner = _is_optional(tp)
    if inner is not None:
        flag = names.new("flag")
        lines += [
            f"{ind}if pos >= end:",
            f"{ind}    raise _CodecError('truncated buffer: needed 1 bytes, had 0')",
            f"{ind}{flag} = view[pos]",
            f"{ind}pos += 1",
            f"{ind}{target} = None",
            f"{ind}if {flag}:",
        ]
        _emit_decode(inner, target, lines, ns, names, ind + "    ", stack)
        return

    origin = get_origin(tp)
    if origin in (list, tuple):
        args = get_args(tp)
        if origin is tuple:
            if len(args) != 2 or args[1] is not Ellipsis:
                raise CodecError(f"only homogeneous tuple[X, ...] supported, got {tp}")
            elem_tp = args[0]
        else:
            (elem_tp,) = args or (Any,)
        n, lst, ev = names.new("n"), names.new("lst"), names.new("ev")
        _emit_decode_uvarint(n, lines, names, ind)
        lines.append(f"{ind}{lst} = []")
        lines.append(f"{ind}for _ in range({n}):")
        _emit_decode(elem_tp, ev, lines, ns, names, ind + "    ", stack)
        lines.append(f"{ind}    {lst}.append({ev})")
        if origin is tuple:
            lines.append(f"{ind}{target} = tuple({lst})")
        else:
            lines.append(f"{ind}{target} = {lst}")
        return

    if origin is dict:
        key_tp, val_tp = get_args(tp)
        n, d, kv, vv = names.new("n"), names.new("d"), names.new("kv"), names.new("vv")
        _emit_decode_uvarint(n, lines, names, ind)
        lines.append(f"{ind}{d} = {{}}")
        lines.append(f"{ind}for _ in range({n}):")
        _emit_decode(key_tp, kv, lines, ns, names, ind + "    ", stack)
        _emit_decode(val_tp, vv, lines, ns, names, ind + "    ", stack)
        lines.append(f"{ind}    {d}[{kv}] = {vv}")
        lines.append(f"{ind}{target} = {d}")
        return

    if isinstance(tp, type):
        if issubclass(tp, bool):
            lines += [
                f"{ind}if pos >= end:",
                f"{ind}    raise _CodecError('truncated buffer: needed 1 bytes, had 0')",
                f"{ind}{target} = view[pos] != 0",
                f"{ind}pos += 1",
            ]
            return
        if issubclass(tp, enum.IntEnum):
            raw = names.new("raw")
            _emit_decode_uvarint(raw, lines, names, ind)
            enum_name = names.new("E")
            ns[enum_name] = tp
            lines.append(f"{ind}{raw} = ({raw} >> 1) ^ -({raw} & 1)")
            lines.append(f"{ind}try:")
            lines.append(f"{ind}    {target} = {enum_name}({raw})")
            lines.append(f"{ind}except ValueError:")
            lines.append(
                f"{ind}    raise _CodecError("
                f"f'{{{raw}}} is not a valid {tp.__name__}') from None"
            )
            return
        if issubclass(tp, int):
            raw = names.new("raw")
            _emit_decode_uvarint(raw, lines, names, ind)
            lines.append(f"{ind}{target} = ({raw} >> 1) ^ -({raw} & 1)")
            return
        if issubclass(tp, float):
            lines += [
                f"{ind}if end - pos < 8:",
                f"{ind}    raise _CodecError(f'truncated buffer: needed 8 bytes, "
                f"had {{end - pos}}')",
                f"{ind}{target} = _unpack_double(view, pos)[0]",
                f"{ind}pos += 8",
            ]
            return
        if issubclass(tp, str):
            n = names.new("n")
            _emit_decode_uvarint(n, lines, names, ind)
            lines += [
                f"{ind}if end - pos < {n}:",
                f"{ind}    raise _CodecError(f'truncated buffer: needed {{{n}}} "
                f"bytes, had {{end - pos}}')",
                f"{ind}try:",
                f"{ind}    {target} = str(view[pos:pos + {n}], 'utf-8')",
                f"{ind}except UnicodeDecodeError as exc:",
                f"{ind}    raise _CodecError(f'invalid utf-8 in string field: "
                f"{{exc}}') from exc",
                f"{ind}pos += {n}",
            ]
            return
        if issubclass(tp, (bytes, bytearray, memoryview)):
            n = names.new("n")
            _emit_decode_uvarint(n, lines, names, ind)
            lines += [
                f"{ind}if end - pos < {n}:",
                f"{ind}    raise _CodecError(f'truncated buffer: needed {{{n}}} "
                f"bytes, had {{end - pos}}')",
                f"{ind}{target} = bytes(view[pos:pos + {n}])",
                f"{ind}pos += {n}",
            ]
            return
        if is_dataclass(tp):
            _emit_decode_nested(tp, target, lines, ns, names, ind, stack)
            return

    raise CodecError(f"unsupported wire field type: {tp!r}")


def _emit_decode_nested(
    tp: type,
    target: str,
    lines: list[str],
    ns: dict,
    names: _Names,
    ind: str,
    stack: frozenset,
) -> None:
    """Nested dataclass field: read the type code inline and, when it names
    the annotated concrete class, decode its fields in place; any other code
    (a subclass, or an unknown value) goes through the dispatcher."""
    inline = (
        tp in _CLASS_TO_CODE
        and tp not in stack
        and len(stack) < _INLINE_DEPTH
    )
    if inline:
        try:
            hints = get_type_hints(tp)
        except Exception:
            inline = False
    if not inline:
        lines.append(f"{ind}{target}, pos = _decode_any(view, pos, end)")
        return
    code = names.new("code")
    _emit_decode_uvarint(code, lines, names, ind)
    cls_name = names.new("C")
    ns[cls_name] = tp
    lines.append(f"{ind}if {code} == {_CLASS_TO_CODE[tp]}:")
    body = ind + "    "
    kwargs: list[str] = []
    for f in fields(tp):
        if f.metadata.get("wire_skip"):
            continue
        var = names.new("f")
        _emit_decode(hints[f.name], var, lines, ns, names, body, stack | {tp})
        kwargs.append(f"{f.name}={var}")
    lines.append(f"{body}{target} = {cls_name}({', '.join(kwargs)})")
    lines.append(f"{ind}else:")
    lines.append(f"{ind}    {target}, pos = _decode_known(view, pos, end, {code})")


def _compile_encoder(cls: type) -> Callable[[bytearray, Any], None]:
    """Build, exec, and cache the flat encoder for *cls*."""
    code = type_code_of(cls)
    hints = get_type_hints(cls)
    ns: dict[str, Any] = {
        "_pack_double": _DOUBLE.pack,
        "_encode_any": _encode_any,
        "_CodecError": CodecError,
        "_code_bytes": _uvarint_bytes(code),
    }
    names = _Names()
    lines = ["def _enc(buf, obj):", "    buf += _code_bytes"]
    for f in fields(cls):
        if f.metadata.get("wire_skip"):
            continue
        _emit_encode(hints[f.name], f"obj.{f.name}", lines, ns, names, "    ")
    src = "\n".join(lines) + "\n"
    exec(compile(src, f"<corona-codec-enc:{cls.__name__}>", "exec"), ns)
    fn = ns["_enc"]
    _COMPILED_ENC[cls] = fn
    return fn


def _compile_decoder(cls: type) -> Callable[[memoryview, int, int], tuple[Any, int]]:
    """Build, exec, and cache the flat decoder for *cls*.

    The decoder is entered *after* the type code has been consumed (the
    dispatcher reads it), mirroring how the reference interpreter splits
    dispatch from field decoding.
    """
    hints = get_type_hints(cls)
    ns: dict[str, Any] = {
        "_cls": cls,
        "_unpack_double": _DOUBLE.unpack_from,
        "_decode_any": _decode_any,
        "_decode_known": _decode_known,
        "_CodecError": CodecError,
    }
    names = _Names()
    lines = ["def _dec(view, pos, end):"]
    kwargs: list[str] = []
    for f in fields(cls):
        if f.metadata.get("wire_skip"):
            continue
        var = names.new("f")
        _emit_decode(hints[f.name], var, lines, ns, names, "    ")
        kwargs.append(f"{f.name}={var}")
    if len(lines) == 1:
        lines.append("    pass")
    lines.append(f"    return _cls({', '.join(kwargs)}), pos")
    src = "\n".join(lines) + "\n"
    exec(compile(src, f"<corona-codec-dec:{cls.__name__}>", "exec"), ns)
    fn = ns["_dec"]
    _COMPILED_DEC[cls] = fn
    return fn


def _encode_any(buf: bytearray, obj: Any) -> None:
    """Dispatch to the compiled encoder of ``type(obj)`` (compiling it on
    first use); writes the type code followed by the fields.  Instances
    stamped with a memoized payload splice it in without re-encoding."""
    payload = getattr(obj, _PAYLOAD_ATTR, None)
    if payload is not None:
        buf += payload
        return
    enc = _COMPILED_ENC.get(type(obj))
    if enc is None:
        enc = _compile_encoder(type(obj))
    enc(buf, obj)


def _read_uvarint(view: memoryview, pos: int, end: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= end:
            raise CodecError("truncated varint")
        byte = view[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise CodecError("varint too long")


def _decode_known(
    view: memoryview, pos: int, end: int, code: int
) -> tuple[Any, int]:
    """Dispatch to the compiled decoder for an already-read type *code*."""
    cls = _CODE_TO_CLASS.get(code)
    if cls is None:
        raise CodecError(f"unknown wire type code {code}")
    dec = _COMPILED_DEC.get(cls)
    if dec is None:
        dec = _compile_decoder(cls)
    return dec(view, pos, end)


def _decode_any(view: memoryview, pos: int, end: int) -> tuple[Any, int]:
    """Read a type code and dispatch to the compiled decoder."""
    code, pos = _read_uvarint(view, pos, end)
    return _decode_known(view, pos, end, code)


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

#: Reusable output buffer: encode() clears and refills it instead of
#: allocating a fresh bytearray per message.  The busy flag guards the rare
#: reentrant case (an encoder raising mid-way through a callback that
#: encodes again); concurrent *threads* must not share the codec module —
#: the runtime is single-threaded asyncio and the simulator is sequential.
_SHARED_BUF = bytearray()
_shared_busy = False


def encode(obj: Any) -> bytes:
    """Encode a registered dataclass instance to bytes (compiled path)."""
    global _shared_busy
    if _shared_busy:
        buf = bytearray()
    else:
        _shared_busy = True
        buf = _SHARED_BUF
        del buf[:]
    try:
        encode_into(obj, buf)
        return bytes(buf)
    finally:
        if buf is _SHARED_BUF:
            _shared_busy = False


def encode_into(obj: Any, buf: bytearray) -> None:
    """Append the encoding of *obj* to *buf* (compiled path)."""
    cls = type(obj)
    enc = _COMPILED_ENC.get(cls)
    if enc is None:
        enc = _compile_encoder(cls)
    start = len(buf)
    try:
        enc(buf, obj)
    except CodecError:
        del buf[start:]
        raise
    except Exception as exc:
        del buf[start:]
        raise CodecError(f"cannot encode {cls.__name__}: {exc}") from exc
    _ENCODE_COUNTS[cls] = _ENCODE_COUNTS.get(cls, 0) + 1


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode` back to an instance."""
    view = memoryview(data)
    end = len(view)
    try:
        obj, pos = _decode_any(view, 0, end)
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"cannot decode message: {exc}") from exc
    if pos != end:
        raise CodecError(f"{end - pos} trailing bytes after message")
    return obj


def cached_encode(obj: Any) -> bytes:
    """Encode *obj* once, memoizing the payload on the instance.

    Safe because every wire message is a frozen dataclass (enforced by the
    catalogue tests): the bytes cannot go stale.  Objects that reject
    attribute injection (``__slots__`` without a dict) simply re-encode.
    """
    payload = getattr(obj, _PAYLOAD_ATTR, None)
    if payload is None:
        payload = encode(obj)
        try:
            object.__setattr__(obj, _PAYLOAD_ATTR, payload)
        except (AttributeError, TypeError):
            pass
    return payload


def encoded_size(obj: Any) -> int:
    """Return the encoded size of *obj* in bytes (used by the simulator).

    Encodes once through the :func:`cached_encode` memo — sizing a message
    that is later sent costs no second serialization pass.
    """
    return len(cached_encode(obj))


def encode_counts() -> dict[type, int]:
    """Snapshot of real encodes performed per class since the last reset.

    Cache hits in :func:`cached_encode` / the frame cache do not count;
    tests use the deltas to prove one-encode-per-broadcast.
    """
    return dict(_ENCODE_COUNTS)


def reset_encode_counts() -> None:
    """Zero the per-class encode counters (test/benchmark hook)."""
    _ENCODE_COUNTS.clear()
