"""The AsyncioHost I/O path: one flush per loop tick, parked congested
connections, push reads on accepted sockets, and closing what fails.

Deterministic properties (what one flush writes, in which order, when a
close happens) run over a scripted in-memory connection; everything that
needs a kernel socket buffer to fill runs over loopback TCP.
"""

import asyncio
import socket
import struct

import pytest

from repro.core.events import (
    CloseConnection,
    ProtocolCore,
    SendFanout,
    SendMessage,
    SendMulticast,
)
from repro.net.flowcontrol import BoundedOutbox
from repro.net.memory import MemoryNetwork
from repro.net.tcp import TcpTransport
from repro.runtime import host as host_module
from repro.runtime.host import AsyncioHost
from repro.wire.frames import frame_size
from repro.wire.framing import MAX_FRAME_SIZE, FrameDecoder
from repro.wire.messages import (
    Ack,
    Delivery,
    Disconnect,
    DisconnectReason,
    ErrorReply,
    UpdateKind,
    UpdateRecord,
)
from tests.runtime.test_host_parity import TINY_FLOW

LOOPBACK = ("127.0.0.1", 0)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, 20))


async def until(condition, timeout=2.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "condition never held"
        await asyncio.sleep(0.005)


async def ticks(count=3):
    for _ in range(count):
        await asyncio.sleep(0)


def delivery(seqno, kind=UpdateKind.UPDATE, object_id="obj", size=64):
    return Delivery(
        "g", UpdateRecord(seqno, kind, object_id, b"x" * size, "blaster", 0.0)
    )


class EchoCore(ProtocolCore):
    """Echoes every message; remembers who connected and who closed."""

    def __init__(self):
        super().__init__()
        self.connected = []
        self.closed = []

    def handle_connected(self, conn, peer, key):
        self.connected.append(conn)

    def handle_message(self, conn, message):
        self.send(conn, message)

    def handle_closed(self, conn):
        self.closed.append(conn)


class ScriptedConnection:
    """A pull-mode ``Connection`` whose congestion the test scripts."""

    peer = "scripted"

    def __init__(self):
        self.batches = []
        self.congested = False
        self.writable = asyncio.Event()
        self.closed = asyncio.Event()
        self.aborted = False

    def write_many(self, messages):
        assert not self.closed.is_set()
        self.batches.append(list(messages))
        return self.congested

    async def drained(self):
        await self.writable.wait()

    async def send(self, message):
        self.write_many((message,))

    async def send_many(self, messages):
        self.write_many(messages)

    async def receive(self):
        await self.closed.wait()
        return None

    async def close(self):
        self.closed.set()

    def abort(self):
        self.aborted = True
        self.closed.set()


async def scripted_host(count=1, flow=None):
    core = EchoCore()
    host = AsyncioHost(core, MemoryNetwork(), flow=flow)
    conns = [ScriptedConnection() for _ in range(count)]
    ids = [host.adopt_connection(conn) for conn in conns]
    await ticks()
    return host, core, conns, ids


class TestFlushBatching:
    def test_one_tick_of_sends_to_one_connection_is_one_write(self):
        async def main():
            host, _core, (conn,), (cid,) = await scripted_host()
            frames = [delivery(i) for i in range(7)]
            host.dispatch([SendMessage(cid, frame) for frame in frames])
            assert conn.batches == []  # nothing leaves before the tick ends
            await ticks()
            assert conn.batches == [frames]
            assert (host.flush_ticks, host.socket_writes, host.frames_written) == (1, 1, 7)
            await host.stop()

        run(main())

    def test_sixteen_recipients_are_sixteen_writes_from_one_flush(self):
        async def main():
            host, _core, conns, ids = await scripted_host(16)
            host.dispatch([SendMulticast(tuple(ids), delivery(1))])
            host.dispatch([SendMulticast(tuple(ids), delivery(2))])
            await ticks()
            assert all(conn.batches == [[delivery(1), delivery(2)]] for conn in conns)
            assert (host.flush_ticks, host.socket_writes, host.frames_written) == (1, 16, 32)
            await host.stop()

        run(main())

    def test_a_fanout_is_one_sized_push_per_recipient_through_the_one_entry_point(
        self, monkeypatch
    ):
        pushes = []
        real_push = BoundedOutbox.push

        def spy(box, message, size=None, is_state=None):
            pushes.append((type(message), size, is_state))
            return real_push(box, message, size, is_state)

        # rebound at class level after the host exists, the way
        # benchmarks/real/tracer.py wraps a live server
        async def main():
            host, _core, conns, ids = await scripted_host(16)
            monkeypatch.setattr(BoundedOutbox, "push", spy)
            frame = delivery(1)
            host.dispatch([SendFanout(tuple(ids), frame), SendMessage(ids[-1], Ack(1))])
            await ticks()
            assert pushes == [(Delivery, frame_size(frame), False)] * 16 + [(Ack, None, None)]
            assert all(conn.batches == [[frame]] for conn in conns[:-1])
            assert conns[-1].batches == [[Ack(1), frame]]
            assert host.dispatch_stats.sends == 17
            assert (host.flush_ticks, host.socket_writes, host.frames_written) == (1, 16, 17)
            await host.stop()

        run(main())

    def test_control_precedes_bulk_within_a_batch_and_lanes_stay_fifo(self):
        async def main():
            host, _core, (conn,), (cid,) = await scripted_host()
            host.dispatch([
                SendMessage(cid, delivery(1)),
                SendMessage(cid, Ack(1)),
                SendMessage(cid, delivery(2)),
                SendMessage(cid, Ack(2)),
            ])
            await ticks()
            assert conn.batches == [[Ack(1), Ack(2), delivery(1), delivery(2)]]
            await host.stop()

        run(main())

    def test_a_quiet_tick_schedules_no_flush(self):
        async def main():
            host, _core, _conns, _ids = await scripted_host()
            await ticks(10)
            assert host.flush_ticks == 0
            await host.stop()

        run(main())


class TestParkedConnection:
    def test_nothing_is_written_while_parked_and_peers_are_not_delayed(self):
        async def main():
            host, _core, (slow, healthy), (slow_id, healthy_id) = await scripted_host(
                2, flow=TINY_FLOW
            )
            slow.congested = True
            host.dispatch([SendMulticast((slow_id, healthy_id), delivery(0))])
            await ticks()
            assert slow.batches == [[delivery(0)]] and slow_id in host._parked

            # 12 STATE frames over 2 objects + a control frame, exactly the
            # parity test's burst: they wait, and coalesce, in the outbox
            for i in range(1, 13):
                frame = delivery(i, UpdateKind.STATE, f"obj-{i % 2}")
                host.dispatch([SendMulticast((slow_id, healthy_id), frame)])
                await ticks()
            host.dispatch([SendMessage(slow_id, Ack(99))])
            await ticks()
            assert len(slow.batches) == 1  # parked: not one more write
            assert len(healthy.batches) == 13  # served tick by tick meanwhile
            assert host.dispatch_stats.outbox_coalesced == 10
            assert host.dispatch_stats.outbox_kicks == 0

            slow.congested = False
            slow.writable.set()
            await ticks(5)
            assert slow_id not in host._parked
            (_first, backlog) = slow.batches
            assert backlog[0] == Ack(99)  # control lane first
            assert [f.update.seqno for f in backlog[1:]] == [11, 12]
            assert backlog[1].skipped == tuple(range(1, 11))
            await host.stop()

        run(main())

    def test_lag_kick_while_parked_flushes_the_notice_then_closes(self):
        async def main():
            host, core, (slow,), (slow_id,) = await scripted_host(flow=TINY_FLOW)
            slow.congested = True
            host.dispatch([SendMessage(slow_id, delivery(0))])
            await ticks()
            for i in range(1, 13):  # UPDATEs never coalesce: the 9th overflows
                host.dispatch([SendMessage(slow_id, delivery(i))])
            await ticks()
            stats = host.dispatch_stats
            assert (stats.outbox_kicks, stats.sends, stats.send_drops) == (1, 9, 4)
            assert len(slow.batches) == 1 and not slow.closed.is_set()

            slow.congested = False
            slow.writable.set()
            await until(lambda: core.closed == [slow_id])
            (notice,) = slow.batches[1]
            assert type(notice) is Disconnect
            assert notice.reason is DisconnectReason.SLOW_CONSUMER
            assert slow.closed.is_set() and slow_id not in host._conns
            await host.stop()

        run(main())

    def test_lag_kicked_consumer_that_never_drains_is_aborted_after_the_grace(
        self, monkeypatch
    ):
        monkeypatch.setattr(host_module, "KICK_GRACE", 0.05)

        async def main():
            host, core, (slow,), (slow_id,) = await scripted_host(flow=TINY_FLOW)
            slow.congested = True
            host.dispatch([SendMessage(slow_id, delivery(0))])
            await ticks()
            for i in range(1, 13):
                host.dispatch([SendMessage(slow_id, delivery(i))])
            await ticks()
            assert host.dispatch_stats.outbox_kicks == 1
            assert slow_id in host._parked and not slow.closed.is_set()
            assert list(host._kick_timers) == [slow_id]  # armed once, not per refusal

            # the peer never reads again: no drained(), no flush, no notice
            await until(lambda: core.closed == [slow_id])
            assert slow.aborted and len(slow.batches) == 1
            assert slow_id not in host._conns and slow_id not in host._outboxes
            assert not host._parked and not host._kick_timers
            await asyncio.sleep(0.1)
            assert core.closed == [slow_id]  # exactly once
            await host.stop()

        run(main())

    def test_a_kicked_connection_that_closes_in_time_cancels_its_abort(
        self, monkeypatch
    ):
        monkeypatch.setattr(host_module, "KICK_GRACE", 0.2)

        async def main():
            host, core, (slow,), (slow_id,) = await scripted_host(flow=TINY_FLOW)
            for i in range(13):  # not parked: the flush writes the notice, closes
                host.dispatch([SendMessage(slow_id, delivery(i))])
            await until(lambda: core.closed == [slow_id])
            assert not slow.aborted and not host._kick_timers
            await asyncio.sleep(0.3)
            assert core.closed == [slow_id]
            await host.stop()

        run(main())

    def test_close_connection_waits_for_the_queued_reply_even_when_parked(self):
        async def main():
            host, core, (conn,), (cid,) = await scripted_host()
            conn.congested = True
            host.dispatch([SendMessage(cid, delivery(0))])
            await ticks()
            reply = ErrorReply(1, "corona.denied", "no")
            host.dispatch([SendMessage(cid, reply), CloseConnection(cid)])
            await ticks()
            assert len(conn.batches) == 1 and not conn.closed.is_set()

            conn.congested = False
            conn.writable.set()
            await until(lambda: core.closed == [cid])
            assert conn.batches[1] == [reply]
            await host.stop()

        run(main())

    def test_close_connection_with_an_empty_outbox_closes_on_the_next_flush(self):
        async def main():
            host, core, (conn,), (cid,) = await scripted_host()
            host.dispatch([CloseConnection(cid)])
            await until(lambda: core.closed == [cid])
            assert conn.batches == [] and conn.closed.is_set()
            await host.stop()

        run(main())


def raw_peer(address, rcvbuf=None):
    """A blocking-free raw socket: the test decides if it ever reads."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.connect(tuple(address))
    sock.setblocking(False)
    return sock


async def read_frames_to_eof(sock):
    """Every message the peer wrote until it closed the stream."""
    loop = asyncio.get_running_loop()
    decoder, messages = FrameDecoder(), []
    while True:
        chunk = await asyncio.wait_for(loop.sock_recv(sock, 1 << 16), 5)
        if not chunk:
            return messages
        messages.extend(decoder.feed(chunk))


class TestOverTcp:
    def test_accepted_connections_cost_no_task(self):
        async def main():
            core = EchoCore()
            host = AsyncioHost(core, TcpTransport())
            address = await host.listen(LOOPBACK)
            before = len(host._tasks)
            peers = [raw_peer(address) for _ in range(8)]
            await until(lambda: len(core.connected) == 8)
            assert len(host._tasks) == before
            dialed = await TcpTransport().dial(address)
            await dialed.send(Ack(3))
            assert await asyncio.wait_for(dialed.receive(), 2) == Ack(3)
            assert len(host._tasks) == before
            await dialed.close()
            for peer in peers:
                peer.close()
            await until(lambda: len(core.closed) == 9)
            await host.stop()

        run(main())

    def test_one_chunk_of_requests_is_answered_in_one_write(self):
        async def main():
            core = EchoCore()
            host = AsyncioHost(core, TcpTransport())
            dialed = await TcpTransport().dial(await host.listen(LOOPBACK))
            await dialed.send_many([Ack(i) for i in range(20)])
            got = [await asyncio.wait_for(dialed.receive(), 2) for _ in range(20)]
            assert got == [Ack(i) for i in range(20)]
            # however the kernel chunked the 20 requests, replies batched
            assert host.frames_written == 20
            assert host.socket_writes == host.flush_ticks < 20
            await dialed.close()
            await host.stop()

        run(main())

    @pytest.mark.parametrize("garbage", [
        struct.pack(">I", 5) + b"\xff\xfe\xfd\xfc\xfb",
        struct.pack(">I", MAX_FRAME_SIZE + 1),
    ], ids=["malformed-frame", "oversized-length-prefix"])
    def test_reader_failure_closes_the_socket(self, garbage):
        async def main():
            core = EchoCore()
            host = AsyncioHost(core, TcpTransport())
            address = await host.listen(LOOPBACK)
            bad = raw_peer(address)
            await until(lambda: len(core.connected) == 1)
            (bad_id,) = core.connected
            bad_conn = host._conns[bad_id]
            good = await TcpTransport().dial(address)
            tasks = len(host._tasks)

            bad.sendall(garbage)
            assert await read_frames_to_eof(bad) == []  # the peer sees EOF
            await until(lambda: core.closed == [bad_id])
            assert bad_id not in host._conns and bad_id not in host._outboxes
            assert bad_conn._transport.is_closing()
            assert len(host._tasks) == tasks

            await good.send(Ack(7))  # the healthy connection is still served
            assert await asyncio.wait_for(good.receive(), 2) == Ack(7)
            assert core.closed == [bad_id]  # exactly once
            bad.close()
            await good.close()
            await host.stop()

        run(main())

    def test_reader_failure_on_a_pull_connection_closes_it_too(self):
        async def main():
            net = MemoryNetwork()
            core = EchoCore()
            host = AsyncioHost(core, net)
            await host.listen("svc")
            dialed = await net.dial("svc")
            await until(lambda: len(core.connected) == 1)
            dialed._other._rx.put_nowait(b"\xff\xfe\xfd\xfc\xfb")
            assert await asyncio.wait_for(dialed.receive(), 2) is None
            await until(lambda: core.closed == core.connected)
            assert not host._conns
            await host.stop()

        run(main())

    def test_a_peer_that_never_reads(self):
        """Frames wait in the outbox, not in the transport; the healthy
        member is served meanwhile; the kick notice precedes the close."""
        async def main():
            core = EchoCore()
            host = AsyncioHost(core, TcpTransport(), flow=TINY_FLOW)
            address = await host.listen(LOOPBACK)
            slow = raw_peer(address, rcvbuf=4096)
            await until(lambda: len(core.connected) == 1)
            healthy = await TcpTransport().dial(address)
            await until(lambda: len(core.connected) == 2)
            slow_id, healthy_id = core.connected
            transport = host._conns[slow_id]._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            high_water = transport.get_write_buffer_limits()[1]

            received = []

            async def drain_healthy():
                while (message := await healthy.receive()) is not None:
                    received.append(message)

            reader = asyncio.ensure_future(drain_healthy())

            # one 16 KiB frame per tick to both until the slow one parks
            sent = 0
            while slow_id not in host._parked:
                assert sent < 1000, "the transport never reported congestion"
                host.dispatch([SendMulticast((slow_id, healthy_id), delivery(sent, size=16384))])
                sent += 1
                await ticks()
            frame_bytes = frame_size(delivery(0, size=16384))
            parked_at = transport.get_write_buffer_size()
            assert high_water < parked_at <= high_water + frame_bytes
            writes_before = host.socket_writes

            # coalescible traffic: same counters as an unparked burst
            for i in range(12):
                frame = delivery(sent + i, UpdateKind.STATE, f"obj-{i % 2}")
                host.dispatch([SendMulticast((slow_id, healthy_id), frame)])
                await ticks()
                assert transport.get_write_buffer_size() <= parked_at
            assert host.dispatch_stats.outbox_coalesced == 10
            # then more than the outbox holds: lag-kick
            for i in range(12, 24):
                host.dispatch([SendMulticast((slow_id, healthy_id), delivery(sent + i))])
                await ticks()
            assert host.dispatch_stats.outbox_kicks == 1
            await until(lambda: len(received) == sent + 24)  # no head-of-line blocking
            assert slow_id in host._parked  # ... all of it while the slow one was stuck
            assert host.socket_writes - writes_before == 24  # the healthy member's only
            assert core.closed == []

            # the slow peer finally reads: backlog, the notice, then EOF
            messages = await read_frames_to_eof(slow)
            assert [m.update.seqno for m in messages[:-1]] == list(range(sent))
            assert messages[-1].reason is DisconnectReason.SLOW_CONSUMER
            await until(lambda: core.closed == [slow_id])
            assert not host._parked

            slow.close()
            await healthy.close()
            await reader
            await host.stop()

        run(main())

    def test_a_kicked_peer_that_never_reads_again_is_aborted(self, monkeypatch):
        """Over a real socket: ``close()`` would wait for the write
        buffer forever; the grace timer aborts the transport instead and
        the core hears exactly one ``on_closed``."""
        monkeypatch.setattr(host_module, "KICK_GRACE", 0.1)

        async def main():
            core = EchoCore()
            host = AsyncioHost(core, TcpTransport(), flow=TINY_FLOW)
            slow = raw_peer(await host.listen(LOOPBACK), rcvbuf=4096)
            await until(lambda: len(core.connected) == 1)
            (slow_id,) = core.connected
            tasks = len(host._tasks)
            transport = host._conns[slow_id]._transport
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sent = 0
            while slow_id not in host._parked:
                assert sent < 1000, "the transport never reported congestion"
                host.dispatch([SendMessage(slow_id, delivery(sent, size=16384))])
                sent += 1
                await ticks()
            for i in range(12):  # more than the outbox holds: lag-kick
                host.dispatch([SendMessage(slow_id, delivery(sent + i))])
            assert host.dispatch_stats.outbox_kicks == 1
            assert core.closed == []

            await until(lambda: core.closed == [slow_id])  # slow never read
            assert transport.is_closing() and transport.get_write_buffer_size() == 0
            assert not host._conns and not host._parked and not host._kick_timers
            await asyncio.sleep(0.05)
            assert core.closed == [slow_id]  # exactly once
            assert len(host._tasks) == tasks  # the unpark waiter is gone too
            slow.close()
            await host.stop()

        run(main())

    def test_close_connection_delivers_the_queued_reply_first(self):
        async def main():
            core = EchoCore()
            host = AsyncioHost(core, TcpTransport())
            peer = raw_peer(await host.listen(LOOPBACK))
            await until(lambda: len(core.connected) == 1)
            (cid,) = core.connected
            reply = ErrorReply(4, "corona.denied", "no")
            host.dispatch([SendMessage(cid, reply), CloseConnection(cid)])
            assert await read_frames_to_eof(peer) == [reply]
            await until(lambda: core.closed == [cid])
            peer.close()
            await host.stop()

        run(main())
