"""Span tracing of the server, installed from outside the program.

``install`` rebinds, at class level, the public entry points of each
measured layer to wrappers that record a span: name, start, end, parent
and a request key -- ``["c", conn, request_id]`` until the request is
sequenced, ``["g", group, seqno]`` after.  Nothing in ``src/`` knows
about it; spans inside the program are a later change.

A span covers only time the wrapped call was *running*.  A coroutine
(``TcpConnection.receive/send/send_many``) is driven step by step and
every step between two suspensions is its own span, so time spent parked
on a socket is never counted.  Spans therefore nest strictly per thread,
and a span's self time is its duration minus its children's -- kept
online per name, so the per-layer sums stay exact even after the span
list reached its cap (``MAX_SPANS``; the file holds the first ones).

``frames.encoded_frame`` is traced only when it really encodes; cache
hits (34 per op on a 16-member group) are counted, not timed.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
import types
from typing import Any, Callable

from repro.core.interpreter import EffectInterpreter
from repro.core.server import ServerCore
from repro.net import flowcontrol, tcp
from repro.runtime import shard
from repro.storage.store import GroupStore
from repro.wire import frames, framing
from repro.wire.messages import Delivery

__all__ = ["MAX_SPANS", "LAYER_OF", "Tracer", "install"]

#: Spans kept for the file; aggregation continues past it.
MAX_SPANS = 400_000

#: Span name -> the ``trace.<layer>_us_per_op`` metric its self time feeds.
LAYER_OF = {
    "tcp.receive": "read_decode",
    "shard.handle_message": "front",
    "shard.post": "front",
    "shard.process_item": "front",
    "shard.call_front": "front",
    "core.on_message": "core",
    "interp.execute": "interp",
    "store.append": "wal",
    "store.append_many": "wal",
    "store.flush": "wal",
    "store.checkpoint": "wal",
    "outbox.push": "outbox_push",
    "outbox.pop_all": "outbox_push",
    "frames.encode": "encode",
    "tcp.send": "sock_write",
    "tcp.send_many": "sock_write",
}

_now = time.perf_counter_ns
_FRAME_ATTR = "_corona_wire_frame"


def _median_us(samples: list[int]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[len(ordered) // 2] / 1e3


class Tracer:
    """Span store plus the online per-name aggregation."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._accs: list[dict[str, list[int]]] = []
        self._cut_at = _now()
        #: id(mailbox item) -> post time, until process_item picks it up.
        self._posted: dict[int, int] = {}
        self._hops: list[int] = []
        #: id(outbox) -> push times of the frames it holds.
        self._pushed: dict[int, list[int]] = {}
        self._dwells: list[int] = []
        self._peak_depth = 0
        self._conn_tags: dict[int, int] = {}

    # -- recording ---------------------------------------------------------

    def _state(self) -> Any:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.acc = {}
            local.thread = threading.current_thread().name
            self._accs.append(local.acc)
        return local

    def push(self) -> list[int]:
        frame = [next(self._ids), _now(), 0]
        self._state().stack.append(frame)
        return frame

    def pop(self, name: str, frame: list[int], key: Any) -> None:
        end = _now()
        local = self._local
        stack = local.stack
        stack.pop()
        duration = end - frame[1]
        parent = 0
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        slot = local.acc.get(name)
        if slot is None:
            slot = local.acc[name] = [0, 0]
        slot[0] += 1
        slot[1] += duration - frame[2]
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (frame[0], parent, name, frame[1], end, key, local.thread)
            )

    def bump(self, counter: str, amount: int = 1) -> None:
        acc = self._state().acc
        slot = acc.get(counter)
        if slot is None:
            slot = acc[counter] = [0, 0]
        slot[0] += amount

    def conn_tag(self, conn: Any) -> int:
        """Index of a transport connection in first-use order, which for
        accepted connections is the host's connection id."""
        tag = self._conn_tags.get(id(conn))
        if tag is None:
            tag = self._conn_tags[id(conn)] = len(self._conn_tags)
        return tag

    # -- reporting ---------------------------------------------------------

    def cut(self) -> dict:
        """Aggregates since the previous cut; called between rounds, when
        no request is in flight, so no thread is mid-update."""
        now = _now()
        merged: dict[str, list[int]] = {}
        for acc in self._accs:
            for name, (count, self_ns) in acc.items():
                slot = merged.setdefault(name, [0, 0])
                slot[0] += count
                slot[1] += self_ns
            acc.clear()
        out = {
            "elapsed_s": (now - self._cut_at) / 1e9,
            "names": merged,
            "hop_wait_us_p50": _median_us(self._hops),
            "outbox_dwell_us_p50": _median_us(self._dwells),
            "outbox_peak_depth": self._peak_depth,
            "spans_kept": len(self.spans),
        }
        self._cut_at = now
        self._hops = []
        self._dwells = []
        self._peak_depth = 0
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, key, thread in self.spans:
                handle.write(
                    f'{{"id":{sid},"parent":{parent},"name":"{name}",'
                    f'"start_ns":{start},"end_ns":{end},'
                    f'"key":{json.dumps(key)},"thread":"{thread}"}}\n'
                )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _message_key(conn: Any, message: Any) -> list | None:
    if type(message) is Delivery:
        return ["g", message.group, message.update.seqno]
    request_id = getattr(message, "request_id", None)
    return None if request_id is None else ["c", conn, request_id]


def _item_key(item: Any) -> list | None:
    if type(item) is tuple and len(item) >= 3 and item[0] == "message":
        return _message_key(item[1], item[2])
    return None


def _traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    key_of: Callable[[tuple], Any] | None = None,
    before: Callable[[tuple], None] | None = None,
    after: Callable[[tuple, Any], None] | None = None,
) -> Callable:
    """Wrap a plain function: one call, one span."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        if before is not None:
            before(args)
        frame = tracer.push()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.pop(name, frame, key_of(args) if key_of else None)
        if after is not None:
            after(args, result)
        return result

    return functools.update_wrapper(wrapper, fn)


@types.coroutine
def _drive(tracer: Tracer, name: str, coro: Any, done: Callable[[Any], Any]):
    """Run *coro* to completion, one span per running step."""
    value: Any = None
    error: BaseException | None = None
    while True:
        frame = tracer.push()
        try:
            if error is None:
                parked_on = coro.send(value)
            else:
                parked_on = coro.throw(error)
        except StopIteration as stop:
            tracer.pop(name, frame, done(stop.value))
            return stop.value
        except BaseException:
            tracer.pop(name, frame, None)
            raise
        tracer.pop(name, frame, None)
        try:
            value = yield parked_on
            error = None
        except GeneratorExit:
            coro.close()
            raise
        except BaseException as exc:  # cancellation: hand it to the coroutine
            value = None
            error = exc


def _traced_async(
    tracer: Tracer,
    name: str,
    fn: Callable,
    done: Callable[[tuple, Any], Any],
    before: Callable[[tuple], None] | None = None,
) -> Callable:
    """Wrap a coroutine function (see :func:`_drive`)."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        coro = fn(*args, **kwargs)
        if not tracer.enabled:
            return coro
        if before is not None:
            before(args)
        return _drive(tracer, name, coro, lambda result: done(args, result))

    return functools.update_wrapper(wrapper, fn)


def install(tracer: Tracer) -> None:
    """Rebind every measured entry point to its traced wrapper."""
    conn_tag = tracer.conn_tag

    # repro.net.tcp ---------------------------------------------------------
    cls = tcp.TcpConnection
    cls.receive = _traced_async(
        tracer, "tcp.receive", cls.receive,
        done=lambda args, msg: _message_key(conn_tag(args[0]), msg),
    )
    cls.send = _traced_async(
        tracer, "tcp.send", cls.send,
        done=lambda args, _r: _message_key(conn_tag(args[0]), args[1]),
        before=lambda args: (tracer.bump("#writes"), tracer.bump("#frames")),
    )

    def before_send_many(args: tuple) -> None:
        tracer.bump("#writes")
        tracer.bump("#frames", len(args[1]))

    cls.send_many = _traced_async(
        tracer, "tcp.send_many", cls.send_many,
        done=lambda args, _r: (
            _message_key(conn_tag(args[0]), args[1][0]) if args[1] else None
        ),
        before=before_send_many,
    )

    # repro.runtime.shard ---------------------------------------------------
    shard.ShardSessions.handle_message = _traced(
        tracer, "shard.handle_message", shard.ShardSessions.handle_message,
        key_of=lambda args: _message_key(args[1], args[2]),
    )

    def before_post(args: tuple) -> None:
        tracer._posted[id(args[1])] = _now()

    shard._ShardWorker.post = _traced(
        tracer, "shard.post", shard._ShardWorker.post,
        key_of=lambda args: _item_key(args[1]), before=before_post,
    )

    def before_process(args: tuple) -> None:
        posted = tracer._posted.pop(id(args[1]), None)
        if posted is not None:
            tracer._hops.append(_now() - posted)

    shard.ShardWorkerBase.process_item = _traced(
        tracer, "shard.process_item", shard.ShardWorkerBase.process_item,
        key_of=lambda args: _item_key(args[1]), before=before_process,
    )
    shard.ShardedHost.call_front = _traced(
        tracer, "shard.call_front", shard.ShardedHost.call_front,
    )

    # repro.core ------------------------------------------------------------
    ServerCore.on_message = _traced(
        tracer, "core.on_message", ServerCore.on_message,
        key_of=lambda args: _message_key(args[1], args[2]),
    )

    def execute_key(args: tuple) -> list | None:
        for effect in args[1]:
            message = getattr(effect, "message", None)
            if message is not None:
                return _message_key(getattr(effect, "conn", None), message)
        return None

    EffectInterpreter.execute = _traced(
        tracer, "interp.execute", EffectInterpreter.execute, key_of=execute_key,
    )

    # repro.net.flowcontrol -------------------------------------------------
    box = flowcontrol.BoundedOutbox

    def after_push(args: tuple, accepted: bool) -> None:
        outbox = args[0]
        if accepted:
            tracer._pushed.setdefault(id(outbox), []).append(_now())
        depth = len(outbox)
        if depth > tracer._peak_depth:
            tracer._peak_depth = depth

    box.push = _traced(
        tracer, "outbox.push", box.push,
        key_of=lambda args: _message_key(None, args[1]), after=after_push,
    )

    def after_pop_all(args: tuple, batch: list) -> None:
        pushed = tracer._pushed.pop(id(args[0]), None)
        if pushed:
            now = _now()
            tracer._dwells.extend(now - at for at in pushed)

    box.pop_all = _traced(
        tracer, "outbox.pop_all", box.pop_all, after=after_pop_all,
    )

    # repro.wire.frames -----------------------------------------------------
    real_encoded_frame = frames.encoded_frame
    timed_encode = _traced(
        tracer, "frames.encode", real_encoded_frame,
        key_of=lambda args: _message_key(None, args[0]),
    )

    def encoded_frame(message: Any) -> Any:
        if tracer.enabled and getattr(message, _FRAME_ATTR, None) is None:
            tracer.bump("#encodes")
            return timed_encode(message)
        if tracer.enabled:
            tracer.bump("#encode_hits")
        return real_encoded_frame(message)

    # every module that imported the name holds its own reference
    for module in (frames, framing, tcp):
        module.encoded_frame = encoded_frame

    # repro.storage ---------------------------------------------------------
    GroupStore.append = _traced(
        tracer, "store.append", GroupStore.append,
        key_of=lambda args: ["g", args[1], args[2]],
        before=lambda args: tracer.bump("#wal_records"),
    )
    GroupStore.append_many = _traced(
        tracer, "store.append_many", GroupStore.append_many,
        key_of=lambda args: ["g", args[1], args[2][0][0]] if args[2] else None,
        before=lambda args: tracer.bump("#wal_records", len(args[2])),
    )
    GroupStore.flush = _traced(
        tracer, "store.flush", GroupStore.flush,
        before=lambda args: tracer.bump("#sync_points"),
    )
    GroupStore.checkpoint = _traced(
        tracer, "store.checkpoint", GroupStore.checkpoint,
        key_of=lambda args: ["g", args[1], args[2]],
        before=lambda args: tracer.bump("#sync_points"),
    )
