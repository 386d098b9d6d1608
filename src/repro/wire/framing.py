"""Stream framing: length-prefixed message frames over a byte stream.

A frame is a 4-byte big-endian unsigned length followed by one encoded
message.  :class:`FrameDecoder` is an incremental, sans-io parser: feed it
arbitrary byte chunks (as read from a TCP socket or a simulated channel) and
it returns the decoded messages they complete.  Every whole frame is
decoded in place, straight out of the chunk it arrived in; only an
unfinished frame at the end of a chunk is kept, and while it stays
unfinished a feed only appends to it, so a frame that arrives in many
reads costs time linear in its size.  A configurable maximum frame size
protects servers from a misbehaving peer allocating unbounded buffers.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import FrameTooLargeError
from repro.wire import codec
from repro.wire.frames import _LEN, FRAME_OVERHEAD, MAX_FRAME_SIZE, encoded_frame

__all__ = ["MAX_FRAME_SIZE", "frame_message", "FrameDecoder"]


def frame_message(message: Any) -> bytes:
    """Return *message*'s length-prefixed wire frame (cached per instance).

    Delegates to the frame cache (:mod:`repro.wire.frames`): the first
    framing of an instance encodes it, every later framing reuses the
    bytes.  Raises :exc:`FrameTooLargeError` past :data:`MAX_FRAME_SIZE`.
    """
    return encoded_frame(message)


class FrameDecoder:
    """Incremental frame parser for one direction of one connection."""

    def __init__(self, max_frame_size: int = MAX_FRAME_SIZE) -> None:
        self._max = max_frame_size
        #: The unfinished frame at the end of the stream, prefix included.
        self._pending = bytearray()
        #: Length ``_pending`` completes at, once its prefix is whole.
        self._want = 0

    def feed(self, data: bytes) -> list[Any]:
        """Absorb *data* and return every message completed by it, in order."""
        if data.__class__ is not bytes:
            data = bytes(data)
        decode_at, unpack_from = codec.decode_at, _LEN.unpack_from
        out: list[Any] = []
        pos = 0
        pending = self._pending
        if len(pending) >= FRAME_OVERHEAD:
            want = self._want
            pos = want - len(pending)
            pending += data[:pos]
            if len(pending) < want:
                return out
            out.append(decode_at(bytes(pending), FRAME_OVERHEAD, want))
            pending.clear()
        elif pending:
            # a length prefix split between reads: rejoin it to the chunk
            data = bytes(pending) + data
            pending.clear()
        end, limit = len(data), self._max
        while end - pos >= FRAME_OVERHEAD:
            (size,) = unpack_from(data, pos)
            if size > limit:
                raise FrameTooLargeError(
                    f"incoming frame of {size} bytes exceeds {limit}"
                )
            start = pos + FRAME_OVERHEAD
            stop = start + size
            if stop > end:
                self._want = stop - pos
                break
            out.append(decode_at(data, start, stop))
            pos = stop
        if pos < end:
            pending += data[pos:]
        return out

    @property
    def buffered(self) -> int:
        """Bytes held for the unfinished frame, its length prefix included."""
        return len(self._pending)
