"""Frame cache: encode a message once, reuse the bytes for every receiver.

Corona's fan-out paths (sequenced ``Delivery`` broadcasts, replication
``_broadcast_to_peers``) hand the *same frozen message instance* to many
connections.  :func:`encoded_frame` memoizes the length-prefixed frame on
the instance itself, so the first sender pays the serialization cost and
every other receiver reuses the bytes — the paper's "one serialization,
many receivers" multicast property, independent of the transport actually
supporting IP multicast.

Contract (documented in ``docs/protocol.md``):

* messages are frozen dataclasses, so a cached frame can never go stale —
  there is no invalidation, only garbage collection with the instance;
* the memo is a slot every ``Message`` declares, ``None`` until set, and
  holds the frame ``bytes`` themselves;
* the cache is per-instance, not per-value: two equal messages built
  separately encode separately (the hot path always reuses one instance);
* a frame is built in one pass by the class's framer
  (:func:`repro.wire.codec.frame`); the bare payload is ``frame[4:]``,
  cut and memoized only by the callers that want one (:func:`payload_of`);
* :exc:`~repro.core.errors.FrameTooLargeError` is raised at frame-build
  time, before any receiver sees a byte, and is *not* cached — a retry
  re-raises by re-checking the length.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.core.errors import FrameTooLargeError
from repro.wire import codec

__all__ = [
    "MAX_FRAME_SIZE",
    "FRAME_OVERHEAD",
    "encoded_frame",
    "cached_frame",
    "payload_of",
    "frame_size",
]

_LEN = struct.Struct(">I")

#: Default upper bound on a single frame (16 MiB), far above any state
#: snapshot used in the paper's workloads.
MAX_FRAME_SIZE = 16 * 1024 * 1024

#: Bytes the length prefix adds on top of the payload.
FRAME_OVERHEAD = _LEN.size

#: Instance slot holding the memoized frame bytes.
_FRAME_ATTR = "_corona_wire_frame"


def cached_frame(message: Any) -> bytes | None:
    """The frame memoized on *message*, or ``None`` before its first
    :func:`encoded_frame` (the one way to ask whether it was encoded)."""
    return getattr(message, _FRAME_ATTR, None)


def encoded_frame(message: Any) -> bytes:
    """Return the (memoized) length-prefixed frame of *message*.

    Encodes at most once per message instance — a payload already memoized
    by :func:`payload_of` is framed, not encoded again; raises
    :exc:`FrameTooLargeError` when the payload exceeds
    :data:`MAX_FRAME_SIZE`.
    """
    frame = getattr(message, _FRAME_ATTR, None)
    if frame is not None:
        return frame
    payload = getattr(message, codec._PAYLOAD_ATTR, None)
    if payload is None:
        frame = codec.frame(message)
    else:
        frame = _LEN.pack(len(payload)) + payload
    size = len(frame) - FRAME_OVERHEAD
    if size > MAX_FRAME_SIZE:
        raise FrameTooLargeError(
            f"outgoing frame of {size} bytes exceeds {MAX_FRAME_SIZE}"
        )
    object.__setattr__(message, _FRAME_ATTR, frame)
    return frame


def payload_of(message: Any) -> bytes:
    """Encoded payload of *message* (no length prefix), cached per instance.

    The storage paths (WAL records, checkpoint snapshots) use this instead
    of ``codec.encode`` so a record that is both logged and broadcast is
    serialized exactly once.
    """
    return codec.cached_encode(message)


def frame_size(message: Any) -> int:
    """On-the-wire size of *message* including the length prefix.

    This is what the simulator's CPU/network cost model charges; going
    through the frame cache means sizing a message that is subsequently
    sent costs no extra serialization pass.
    """
    return len(encoded_frame(message))
