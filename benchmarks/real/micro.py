"""Per-layer micro-benchmarks: one layer at a time, in this process.

Fixed inputs, fixed iteration counts, and each number is the **median of
nine batches**; only calls into public functions are timed (set-up, and
building the inputs, happens outside the clock).  They answer "did this
layer get faster?" without a server, a socket or a second process; the
README maps every one to the end-to-end metric it should move, and on
which workload.  ``run.py --micro`` prints them; ``run.py --trace 1``
reports them next to the traced breakdown.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Callable

from hoststat import CALIBRATION_NOMINAL_MS, calibrate_ms

from repro.core.client import ClientConfig, ClientCore
from repro.core.clock import ManualClock, MonotonicClock
from repro.core.interpreter import DispatchStats, EffectBackend, build_interpreter
from repro.core.reduction import NeverReduce, ReduceByCount
from repro.core.scheduler import ThreadPoolEngine
from repro.core.server import ServerConfig, ServerCore
from repro.core.transfer import OutgoingTransfer, TransferConfig, chunk_marker
from repro.net.flowcontrol import DEFAULT_FLOW, BoundedOutbox, lane_of
from repro.net.memory import MemoryNetwork
from repro.net.tcp import TcpTransport
from repro.runtime.host import AsyncioHost
from repro.runtime.shard import ShardedHost, ShardRouter, ShardSessions
from repro.storage.store import GroupStore
from repro.storage.wal import FsyncPolicy
from repro.wire import codec, frames
from repro.wire.framing import FrameDecoder, frame_message
from repro.wire.messages import (
    Ack,
    BcastStateRequest,
    BcastUpdateRequest,
    CreateGroupRequest,
    Delivery,
    GetMembershipRequest,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    LeaveGroupRequest,
    ObjectState,
    ReduceLogRequest,
    StateSnapshot,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)

__all__ = ["METRICS", "run_all"]

BATCHES = 9
_now = time.perf_counter_ns

#: (name, unit, better) in report order.
METRICS = (
    ("wire.decode_req_ns", "ns", "lower"),
    ("wire.encode_delivery_ns", "ns", "lower"),
    ("wire.encode_ack_ns", "ns", "lower"),
    ("wire.feed_ns_per_frame", "ns", "lower"),
    ("wire.frame_cached_ns", "ns", "lower"),
    ("wire.decode_delivery_ns", "ns", "lower"),
    ("wire.encode_snapshot_us_256k", "us", "lower"),
    ("wire.decode_snapshot_us_256k", "us", "lower"),
    ("net.outbox_push_pop_ns", "ns", "lower"),
    ("net.tcp_send_many_ns_per_frame", "ns", "lower"),
    ("net.tcp_echo_us", "us", "lower"),
    ("net.lane_of_ns", "ns", "lower"),
    ("net.outbox_coalesce_ns", "ns", "lower"),
    ("net.memory_echo_us", "us", "lower"),
    ("core.bcast_us_m3", "us", "lower"),
    ("core.bcast_us_m16", "us", "lower"),
    ("core.interp_ns_per_effect", "ns", "lower"),
    ("core.sched_cmd_us_lanes4", "us", "lower"),
    ("core.join_full_us_256k", "us", "lower"),
    ("core.join_cached_us_256k", "us", "lower"),
    ("core.transfer_chunk_us", "us", "lower"),
    ("core.client_reassemble_us_256k", "us", "lower"),
    ("core.client_delivery_us", "us", "lower"),
    ("core.reduce_ms_1k", "ms", "lower"),
    ("storage.append_many_ns_per_rec", "ns", "lower"),
    ("storage.flush_ms", "ms", "lower"),
    ("storage.checkpoint_ms_256k", "ms", "lower"),
    ("storage.recover_ms_8k", "ms", "lower"),
    ("runtime.host_echo_us", "us", "lower"),
    ("runtime.shard_hop_us", "us", "lower"),
    ("runtime.front_forward_ns", "ns", "lower"),
    ("runtime.route_ns", "ns", "lower"),
)

GROUP = "room-00"
_PAYLOAD = bytes(range(64))
_BALLAST = tuple(
    ObjectState(f"ballast-{i:02d}", bytes([i]) * 8192) for i in range(32)
)


def _speed(before_ms: float) -> float:
    """Host slow-down over an interval that began with *before_ms*."""
    return (before_ms + calibrate_ms()) / 2 / CALIBRATION_NOMINAL_MS


def _median_of(batch: Callable[[], float], cpu_bound: bool = True) -> float:
    """Median of nine batches, at nominal host speed (see ``hoststat``)
    unless the batch waits for the disk rather than the CPU."""
    if not cpu_bound:
        return statistics.median(batch() for _ in range(BATCHES))
    before = calibrate_ms()
    value = statistics.median(batch() for _ in range(BATCHES))
    return value / _speed(before)


async def _median_of_async(batch: Callable[[], Any]) -> float:
    """:func:`_median_of` for a batch that must be awaited; one untimed
    batch first warms the connection."""
    await batch()
    before = calibrate_ms()
    value = statistics.median([await batch() for _ in range(BATCHES)])
    return value / _speed(before)


def _per_call(fn: Callable[[], Any], calls: int) -> Callable[[], float]:
    """A batch that times *calls* calls of *fn*; ns per call."""

    def batch() -> float:
        start = _now()
        for _ in range(calls):
            fn()
        return (_now() - start) / calls

    return batch


def _per_item(fn: Callable[[Any], Any], make_items: Callable[[], list]) -> Callable[[], float]:
    """A batch that times ``fn(item)`` over fresh items; ns per item."""

    def batch() -> float:
        items = make_items()
        start = _now()
        for item in items:
            fn(item)
        return (_now() - start) / len(items)

    return batch


def _request(request_id: int, visit: int) -> Any:
    """The workloads' op pattern: 15 updates then 1 state, 8 objects."""
    cls = BcastStateRequest if (visit // 8) % 16 == 15 else BcastUpdateRequest
    return cls(request_id, GROUP, f"obj-{visit % 8}", _PAYLOAD)


def _delivery(seqno: int, kind: UpdateKind = UpdateKind.UPDATE, object_id: str = "obj-1") -> Delivery:
    return Delivery(
        GROUP, UpdateRecord(seqno, kind, object_id, _PAYLOAD, "sender-0", 1234.5 + seqno)
    )


def _server_core(members: int, ballast: bool = False, **config: Any) -> ServerCore:
    """A core with *members* clients (conn i = client ``c<i>``) in GROUP."""
    config.setdefault("reduction", ReduceByCount(1024))
    core = ServerCore(ServerConfig(persist=False, **config), MonotonicClock())
    for conn in range(members):
        core.on_message(conn, Hello(client_id=f"c{conn}"))
    core.on_message(0, CreateGroupRequest(1, GROUP, False, _BALLAST if ballast else ()))
    for conn in range(members):
        core.on_message(conn, JoinGroupRequest(2, GROUP))
    return core


class _NullBackend(EffectBackend):
    """Accepts every effect and does nothing with it."""

    def deliver(self, conn: int, message: Any) -> bool:
        return True

    def start_timer(self, key: str, delay: float) -> None:
        pass

    def cancel_timer(self, key: str) -> None:
        pass

    def notify(self, kind: str, payload: Any) -> None:
        pass


# ---------------------------------------------------------------------------
# repro.wire
# ---------------------------------------------------------------------------


def _wire() -> dict[str, float]:
    out = {}
    request = codec.encode(_request(7, 3))
    out["wire.decode_req_ns"] = _median_of(_per_call(lambda: codec.decode(request), 2000))
    out["wire.encode_delivery_ns"] = _median_of(_per_item(
        codec.encode, lambda: [_delivery(1000 + i) for i in range(2000)]))
    out["wire.encode_ack_ns"] = _median_of(_per_item(
        codec.encode, lambda: [Ack(1000 + i) for i in range(4000)]))

    blob = bytearray()
    count = 0
    while True:
        frame = frame_message(_request(count + 1, count))
        if len(blob) + len(frame) > 64 * 1024:
            break
        blob += frame
        count += 1
    chunk = bytes(blob)

    def feed() -> float:
        decoder = FrameDecoder()
        start = _now()
        for _message in decoder.feed(chunk):
            pass
        return (_now() - start) / count

    out["wire.feed_ns_per_frame"] = _median_of(feed)

    cached = _delivery(5)
    frames.encoded_frame(cached)
    out["wire.frame_cached_ns"] = _median_of(
        _per_call(lambda: frames.encoded_frame(cached), 20000))
    delivery = codec.encode(_delivery(5))
    out["wire.decode_delivery_ns"] = _median_of(
        _per_call(lambda: codec.decode(delivery), 2000))

    def reply(i: int) -> JoinReply:
        return JoinReply(i, StateSnapshot(GROUP, 99, _BALLAST, (), 100), ())

    out["wire.encode_snapshot_us_256k"] = _median_of(_per_item(
        codec.encode, lambda: [reply(i) for i in range(8)])) / 1e3
    snapshot = codec.encode(reply(1))
    out["wire.decode_snapshot_us_256k"] = _median_of(
        _per_call(lambda: codec.decode(snapshot), 8)) / 1e3
    return out


# ---------------------------------------------------------------------------
# repro.net
# ---------------------------------------------------------------------------


def _outbox() -> dict[str, float]:
    out = {}
    box = BoundedOutbox(DEFAULT_FLOW, DispatchStats())
    deliveries = [_delivery(i) for i in range(16)]
    for message in deliveries:
        frames.encoded_frame(message)

    def push_pop() -> float:
        start = _now()
        for _ in range(200):
            for message in deliveries:
                box.push(message)
            box.pop_all()
        return (_now() - start) / (200 * len(deliveries))

    out["net.outbox_push_pop_ns"] = _median_of(push_pop)

    ack, delivery = Ack(1), deliveries[0]
    out["net.lane_of_ns"] = _median_of(
        _per_call(lambda: (lane_of(delivery), lane_of(ack)), 10000)) / 2

    # the path the workloads never take: a consumer so slow that its
    # bulk lane is past the watermark, where each STATE frame supersedes
    # the queued one for the same object
    watermark = DEFAULT_FLOW.coalesce_watermark
    backlog = [_delivery(i) for i in range(watermark)]
    states = [_delivery(watermark + i, UpdateKind.STATE, "obj-0") for i in range(32)]
    for message in backlog + states:
        frames.encoded_frame(message)

    def coalesce() -> float:
        congested = BoundedOutbox(DEFAULT_FLOW, DispatchStats())
        for message in backlog:
            congested.push(message)
        start = _now()
        for message in states:
            congested.push(message)
        return (_now() - start) / len(states)

    out["net.outbox_coalesce_ns"] = _median_of(coalesce)
    return out


async def _echo_us(transport: Any, address: Any, message: Any, calls: int) -> float:
    """Round trip of one frame to an echoing peer over *transport*."""
    listener = await transport.listen(address)

    async def echo() -> None:
        conn = await listener.accept()
        while True:
            received = await conn.receive()
            if received is None:
                return
            await conn.send(received)

    server = asyncio.ensure_future(echo())
    conn = await transport.dial(listener.address)
    try:
        async def batch() -> float:
            start = _now()
            for _ in range(calls):
                await conn.send(message)
                await conn.receive()
            return (_now() - start) / calls / 1e3

        return await _median_of_async(batch)
    finally:
        await conn.close()
        await server
        await listener.close()


async def _tcp_send_many() -> float:
    """``send_many`` of 64 cached frames into a socket someone drains."""
    async def discard(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while await reader.read(1 << 16):
            pass
        writer.close()

    server = await asyncio.start_server(discard, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    conn = await TcpTransport().dial(("127.0.0.1", port))
    batch_frames = [_delivery(i) for i in range(64)]
    for message in batch_frames:
        frames.encoded_frame(message)
    try:
        async def batch() -> float:
            start = _now()
            for _ in range(20):
                await conn.send_many(batch_frames)
            took = _now() - start
            await asyncio.sleep(0.002)  # let the reader drain the socket
            return took / (20 * len(batch_frames))

        return await _median_of_async(batch)
    finally:
        await conn.close()
        server.close()
        await server.wait_closed()


async def _net_async() -> dict[str, float]:
    message = Delivery(
        GROUP, UpdateRecord(1, UpdateKind.UPDATE, "obj-1", bytes(256), "sender-0", 1.5)
    )
    return {
        "net.tcp_send_many_ns_per_frame": await _tcp_send_many(),
        "net.tcp_echo_us": await _echo_us(TcpTransport(), ("127.0.0.1", 0), message, 50),
        "net.memory_echo_us": await _echo_us(MemoryNetwork(), "echo", message, 200),
    }


# ---------------------------------------------------------------------------
# repro.core
# ---------------------------------------------------------------------------


def _bcast(members: int, **config: Any) -> tuple[Callable[[], float], ServerCore]:
    """A batch timing ``on_message(bcast)`` on a *members*-member group
    (with ``exec_lanes``: per command of a 64-command window, flush
    included), and the core it runs on."""
    core = _server_core(members, **config)
    state = {"visit": 0}

    def requests() -> list:
        first = state["visit"]
        state["visit"] += 256
        return [_request(10 + v, v) for v in range(first, first + 256)]

    if config.get("exec_lanes"):
        core.scheduler.engine = ThreadPoolEngine(config["exec_lanes"])

        def window() -> float:
            items = requests()
            start = _now()
            for offset in range(0, len(items), 64):
                core.begin_batch()
                for item in items[offset:offset + 64]:
                    core.on_message(0, item)
                core.end_batch()
            return (_now() - start) / len(items)

        batch = window
    else:
        batch = _per_item(lambda item: core.on_message(0, item), requests)
    batch()  # warm: every live object exists, handler caches are filled
    return batch, core


def _core() -> dict[str, float]:
    out = {}
    out["core.bcast_us_m3"] = _median_of(_bcast(3)[0]) / 1e3
    out["core.bcast_us_m16"] = _median_of(_bcast(16)[0]) / 1e3

    core = _server_core(16)
    effect_lists = [core.on_message(0, _request(10 + v, v)) for v in range(64)]
    effects = sum(len(run) for run in effect_lists)
    interpreter = build_interpreter(_NullBackend())

    def interpret() -> float:
        start = _now()
        for _ in range(10):
            for run in effect_lists:
                interpreter.execute(run)
        return (_now() - start) / (10 * effects)

    out["core.interp_ns_per_effect"] = _median_of(interpret)

    lanes4, lanes4_core = _bcast(16, exec_lanes=4)
    try:
        out["core.sched_cmd_us_lanes4"] = _median_of(lanes4) / 1e3
    finally:
        lanes4_core.scheduler.engine.close()
    return out


def _joins() -> dict[str, float]:
    out = {}
    core = _server_core(2, ballast=True)
    counter = [100]

    def join(mutate: bool) -> float:
        """Time one FULL join of the 256 KiB group; with *mutate* the
        snapshot cache was invalidated by a broadcast just before."""
        total = 0
        for _ in range(4):
            counter[0] += 1
            rid = counter[0]
            if mutate:
                core.on_message(0, _request(rid, rid))
            else:
                core.on_message(2, Hello(client_id="warm"))
                core.on_message(2, JoinGroupRequest(rid, GROUP))
                core.on_message(2, LeaveGroupRequest(rid, GROUP))
            core.on_message(3, Hello(client_id="late"))
            request = JoinGroupRequest(rid, GROUP)
            start = _now()
            core.on_message(3, request)
            total += _now() - start
            core.on_message(3, LeaveGroupRequest(rid, GROUP))
        return total / 4 / 1e3

    out["core.join_full_us_256k"] = _median_of(lambda: join(True))
    out["core.join_cached_us_256k"] = _median_of(lambda: join(False))

    snapshot = StateSnapshot(GROUP, 99, _BALLAST, (), 100)
    frames.payload_of(snapshot)

    def chunks() -> tuple[float, list]:
        transfer = OutgoingTransfer(
            group=GROUP, client="late", transfer_id=1, snapshot=snapshot,
            config=TransferConfig(), now=0.0,
        )
        sent, clock = [], 0.0
        start = _now()
        pending = transfer.next_chunks()
        while pending:
            chunk = pending.pop(0)
            sent.append(chunk)
            clock += 0.0005
            pending += transfer.on_ack(chunk.offset + len(chunk.data), clock)
        return (_now() - start) / len(sent) / 1e3, sent

    out["core.transfer_chunk_us"] = _median_of(lambda: chunks()[0])
    stream = chunks()[1]

    def reassemble() -> float:
        client = ClientCore(ClientConfig("late"), ManualClock())
        client.connect("server")
        client.drain()
        client.on_connected(0, peer="server", key="server")
        client.on_message(0, HelloReply("corona-1"))
        rid = client.join_group(GROUP, transfer=TransferSpec(chunked=True))
        client.drain()
        client.on_message(0, JoinReply(rid, chunk_marker(snapshot), ()))
        start = _now()
        for chunk in stream:
            client.on_message(0, chunk)
        took = _now() - start
        if GROUP not in client.views:
            raise RuntimeError("chunk stream did not complete the join")
        return took / 1e3

    out["core.client_reassemble_us_256k"] = _median_of(reassemble)

    client = ClientCore(ClientConfig("probe"), ManualClock())
    client.connect("server")
    client.drain()
    client.on_connected(0, peer="server", key="server")
    client.on_message(0, HelloReply("corona-1"))
    rid = client.join_group(GROUP)
    client.drain()
    client.on_message(0, JoinReply(rid, StateSnapshot(GROUP, -1, (), (), 0), ()))
    seqno = [0]

    def deliveries() -> list[Delivery]:
        first = seqno[0]
        seqno[0] += 500
        return [
            _delivery(s, UpdateKind.STATE if (s // 8) % 16 == 15 else UpdateKind.UPDATE,
                      f"obj-{s % 8}")
            for s in range(first, first + 500)
        ]

    out["core.client_delivery_us"] = _median_of(
        _per_item(lambda d: client.on_message(0, d), deliveries)) / 1e3

    manual = _server_core(3, reduction=NeverReduce())
    visit = [0]

    def reduce() -> float:
        for _ in range(1024):
            manual.on_message(0, _request(10 + visit[0], visit[0]))
            visit[0] += 1
        request = ReduceLogRequest(5, GROUP)
        start = _now()
        manual.on_message(0, request)
        return (_now() - start) / 1e6

    out["core.reduce_ms_1k"] = _median_of(reduce)
    return out


# ---------------------------------------------------------------------------
# repro.storage
# ---------------------------------------------------------------------------


def _storage(scratch: Path) -> dict[str, float]:
    out = {}
    record = codec.encode(_delivery(1).update)
    store = GroupStore(scratch / "append")
    store.create_group(GROUP)
    seqno = [0]

    def append_many() -> float:
        records = [(seqno[0] + i, record) for i in range(256)]
        seqno[0] += 256
        start = _now()
        store.append_many(GROUP, records)
        return (_now() - start) / 256

    out["storage.append_many_ns_per_rec"] = _median_of(append_many)
    store.close()

    synced = GroupStore(scratch / "flush", fsync=FsyncPolicy.ON_FLUSH)
    synced.create_group(GROUP)

    def flush() -> float:
        for _ in range(1000):
            synced.append(GROUP, seqno[0], record)
            seqno[0] += 1
        start = _now()
        synced.flush()
        return (_now() - start) / 1e6

    out["storage.flush_ms"] = _median_of(flush, cpu_bound=False)  # an fsync

    snapshot = codec.encode(StateSnapshot(GROUP, 99, _BALLAST, (), 100))

    def checkpoint() -> float:
        seqno[0] += 1
        start = _now()
        synced.checkpoint(GROUP, seqno[0], snapshot)
        return (_now() - start) / 1e6

    out["storage.checkpoint_ms_256k"] = _median_of(checkpoint, cpu_bound=False)
    synced.close()

    # what rooms_durable's restart finds: 32 groups x 250 records, no checkpoint
    root = scratch / "recover"
    seed = GroupStore(root)
    for room in range(32):
        name = f"room-{room:02d}"
        seed.create_group(name)
        seed.append_many(name, [(s, record) for s in range(250)])
    seed.close()

    def recover() -> float:
        fresh = GroupStore(root)
        start = _now()
        recovered = fresh.recover_all()
        took = _now() - start
        fresh.close()
        if sum(len(g.records) for g in recovered.values()) != 8000:
            raise RuntimeError("recovery did not return the 8000 records")
        return took / 1e6

    out["storage.recover_ms_8k"] = _median_of(recover)
    return out


# ---------------------------------------------------------------------------
# repro.runtime
# ---------------------------------------------------------------------------


async def _membership_echo_us(host: Any, network: MemoryNetwork) -> float:
    """``GetMembershipRequest`` round trip through *host* (listening on
    ``"srv"``) over the in-memory transport."""
    conn = await network.dial("srv")
    try:
        await conn.send(Hello(client_id="m"))
        await conn.receive()
        await conn.send(CreateGroupRequest(1, GROUP))
        await conn.receive()
        await conn.send(JoinGroupRequest(2, GROUP))
        await conn.receive()
        request = GetMembershipRequest(3, GROUP)

        async def batch() -> float:
            start = _now()
            for _ in range(100):
                await conn.send(request)
                await conn.receive()
            return (_now() - start) / 100 / 1e3

        return await _median_of_async(batch)
    finally:
        await conn.close()


async def _runtime_async() -> dict[str, float]:
    config = ServerConfig(persist=False)
    network = MemoryNetwork()
    flat = AsyncioHost(ServerCore(config, MonotonicClock()), network)
    await flat.listen("srv")
    try:
        flat_us = await _membership_echo_us(flat, network)
    finally:
        await flat.stop()
    network = MemoryNetwork()
    sharded = ShardedHost(ServerConfig(persist=False), network, shards=4)
    await sharded.listen("srv")
    try:
        sharded_us = await _membership_echo_us(sharded, network)
    finally:
        await sharded.stop()
    return {
        "runtime.host_echo_us": flat_us,
        "runtime.shard_hop_us": sharded_us - flat_us,
    }


def _runtime_sync() -> dict[str, float]:
    out = {}
    rooms = [f"room-{i:02d}" for i in range(32)]
    router = ShardRouter(4)
    out["runtime.route_ns"] = _median_of(
        _per_call(lambda: [router.route(room) for room in rooms], 300)) / len(rooms)

    sessions = ShardSessions(
        ServerConfig(persist=False), MonotonicClock(), ShardRouter(4), 4,
        post=lambda shard, item: None,
    )
    sessions.on_message(0, Hello(client_id="c0"))
    sessions.drain()
    out["runtime.front_forward_ns"] = _median_of(_per_item(
        lambda item: sessions.handle_message(0, item),
        lambda: [_request(10 + v, v) for v in range(1000)],
    ))
    return out


# ---------------------------------------------------------------------------


def run_all() -> dict[str, float]:
    """Every micro-benchmark; about six seconds."""
    from loadgen import OUT_DIR, new_event_loop

    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"micro-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    out: dict[str, float] = {}
    try:
        out.update(_wire())
        out.update(_outbox())
        out.update(_core())
        out.update(_joins())
        out.update(_storage(scratch))
        out.update(_runtime_sync())
        loop = new_event_loop()
        try:
            out.update(loop.run_until_complete(_net_async()))
            out.update(loop.run_until_complete(_runtime_async()))
        finally:
            loop.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    missing = [name for name, _unit, _better in METRICS if name not in out]
    if missing:
        raise RuntimeError(f"micro-benchmarks did not report {missing}")
    return out
