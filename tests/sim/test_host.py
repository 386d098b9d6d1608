"""Tests for SimHost: CPU accounting, effects, timers, crash/restart."""

import pytest

from repro.core.events import (
    AppendWal,
    CancelTimer,
    CloseConnection,
    Notify,
    OpenConnection,
    ProtocolCore,
    SendMessage,
    StartTimer,
)
from repro.sim.host import SimHost
from repro.sim.kernel import SimKernel
from repro.sim.network import SimNetwork
from repro.sim.profiles import HostProfile
from repro.storage.store import GroupStore
from repro.wire import codec
from repro.wire.messages import Ack

FAST = HostProfile(
    name="fast", recv_overhead=0.001, send_overhead=0.001, per_byte=0.0,
    log_overhead=0.0,
)


class EchoCore(ProtocolCore):
    """Replies to every message with the same message."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def handle_message(self, conn, message):
        self.seen.append(message)
        self.send(conn, message)


class DialerCore(ProtocolCore):
    """Dials a target on a timer and sends one Ack when connected."""

    def __init__(self, target):
        super().__init__()
        self.target = target
        self.conn = None
        self.received = []
        self.closed = 0

    def start(self):
        self.emit(OpenConnection(self.target, key="dial"))
        return []

    def handle_connected(self, conn, peer, key):
        self.conn = conn
        self.send(conn, Ack(1))

    def handle_message(self, conn, message):
        self.received.append(message)

    def handle_closed(self, conn):
        self.closed += 1


@pytest.fixture
def world():
    kernel = SimKernel()
    network = SimNetwork(kernel)
    network.add_segment("lan", bytes_per_sec=1_000_000, latency=0.0005)
    return kernel, network


def _pair(kernel, network):
    server = SimHost(kernel, network, "server", "lan", FAST)
    server.set_core(EchoCore())
    client = SimHost(kernel, network, "client", "lan", FAST)
    core = DialerCore("server")
    client.set_core(core)
    client.invoke(core.start)
    kernel.run()
    return server, client, core


class TestMessaging:
    def test_echo_roundtrip(self, world):
        kernel, network = world
        server, client, core = _pair(kernel, network)
        assert core.received == [Ack(1)]
        assert server.core.seen == [Ack(1)]

    def test_stats_counted(self, world):
        kernel, network = world
        server, client, _ = _pair(kernel, network)
        size = codec.encoded_size(Ack(1)) + 4
        assert server.stats.messages_received == 1
        assert server.stats.messages_sent == 1
        assert server.stats.bytes_received == size
        assert client.stats.bytes_sent == size
        assert server.stats.cpu_busy == pytest.approx(0.002)

    def test_same_conn_sends_batch_into_one_flush(self, world):
        kernel, network = world

        class FanoutCore(ProtocolCore):
            def handle_connected(self, conn, peer, key):
                pass

            def handle_message(self, conn, message):
                for _ in range(10):
                    self.send(conn, message)

        server = SimHost(kernel, network, "server", "lan", FAST)
        server.set_core(FanoutCore())
        client = SimHost(kernel, network, "client", "lan", FAST)
        core = DialerCore("server")
        client.set_core(core)
        client.invoke(core.start)
        kernel.run()
        assert len(core.received) == 10
        # 10 consecutive sends to the SAME connection coalesce into one
        # batch: one recv charge + one send_cost(total) charge (per_byte
        # is 0 in the FAST profile, so the batch costs one overhead)
        assert server.stats.cpu_busy == pytest.approx(0.001 + 0.001)
        assert server.stats.messages_sent == 10

    def test_cpu_serializes_fanout_across_connections(self, world):
        kernel, network = world

        class BroadcastCore(ProtocolCore):
            """Rebroadcasts every message to all connected clients."""

            def __init__(self):
                super().__init__()
                self.conns = []

            def handle_connected(self, conn, peer, key):
                self.conns.append(conn)

            def handle_message(self, conn, message):
                for c in self.conns:
                    self.send(c, message)

        server = SimHost(kernel, network, "server", "lan", FAST)
        server.set_core(BroadcastCore())
        cores = []
        for i in range(10):
            client = SimHost(kernel, network, f"client-{i}", "lan", FAST)
            core = DialerCore("server")
            client.set_core(core)
            client.invoke(core.start)
            cores.append(core)
        kernel.run()
        # Each of the 10 inbound Acks is rebroadcast to the 10 clients:
        # sends to DISTINCT connections stay serialized (one send_cost
        # each), which is what keeps the paper's fan-out curves linear.
        total_sends = sum(len(c.received) for c in cores)
        assert total_sends == 100
        assert server.stats.cpu_busy == pytest.approx(
            10 * 0.001 + 100 * 0.001
        )

    def test_send_on_dead_conn_is_dropped(self, world):
        kernel, network = world

        class SendLate(ProtocolCore):
            def poke(self):
                self.emit(SendMessage(999, Ack(1)))
                return []

        host = SimHost(kernel, network, "h", "lan", FAST)
        core = SendLate()
        host.set_core(core)
        host.invoke(core.poke)
        kernel.run()
        assert host.stats.messages_sent == 0


class TestTimers:
    def test_timer_fires_once(self, world):
        kernel, network = world

        class TimerCore(ProtocolCore):
            def __init__(self):
                super().__init__()
                self.fired = []

            def arm(self):
                self.emit(StartTimer("tick", 1.0))
                return []

            def handle_timer(self, key):
                self.fired.append(key)

        host = SimHost(kernel, network, "h", "lan", FAST)
        core = TimerCore()
        host.set_core(core)
        host.invoke(core.arm)
        kernel.run()
        assert core.fired == ["tick"]
        assert kernel.now() >= 1.0

    def test_rearming_replaces_previous(self, world):
        kernel, network = world

        class TimerCore(ProtocolCore):
            def __init__(self):
                super().__init__()
                self.fired = 0

            def arm_twice(self):
                self.emit(StartTimer("t", 1.0))
                self.emit(StartTimer("t", 2.0))
                return []

            def handle_timer(self, key):
                self.fired += 1

        host = SimHost(kernel, network, "h", "lan", FAST)
        core = TimerCore()
        host.set_core(core)
        host.invoke(core.arm_twice)
        kernel.run()
        assert core.fired == 1
        assert kernel.now() >= 2.0

    def test_cancel_timer(self, world):
        kernel, network = world

        class TimerCore(ProtocolCore):
            def __init__(self):
                super().__init__()
                self.fired = 0

            def arm_and_cancel(self):
                self.emit(StartTimer("t", 1.0))
                self.emit(CancelTimer("t"))
                return []

            def handle_timer(self, key):
                self.fired += 1

        host = SimHost(kernel, network, "h", "lan", FAST)
        core = TimerCore()
        host.set_core(core)
        host.invoke(core.arm_and_cancel)
        kernel.run()
        assert core.fired == 0


class TestDiskAndStore:
    def test_async_logging_off_critical_path(self, world):
        kernel, network = world

        class Logger(ProtocolCore):
            def log(self):
                self.emit(AppendWal("g", 0, b"x" * 4000))
                return []

        host = SimHost(kernel, network, "h", "lan", FAST)
        core = Logger()
        host.set_core(core)
        before = host.cpu_free_at
        host.invoke(core.log, cost=0.0)
        kernel.run()
        assert host.disk.ops == 1
        assert host.cpu_free_at == pytest.approx(before)  # CPU not stalled

    def test_sync_logging_stalls_cpu(self, world):
        kernel, network = world

        class Logger(ProtocolCore):
            def log(self):
                self.emit(AppendWal("g", 0, b"x" * 4_000_000))
                return []

        host = SimHost(kernel, network, "h", "lan", FAST, sync_logging=True)
        core = Logger()
        host.set_core(core)
        host.invoke(core.log, cost=0.0)
        kernel.run()
        assert host.cpu_free_at >= 1.0  # ~1 s at 4 MB/s

    def test_wal_effect_persists_via_store(self, world, tmp_path):
        kernel, network = world
        store = GroupStore(tmp_path / "s")
        store.create_group("g")

        class Logger(ProtocolCore):
            def log(self):
                self.emit(AppendWal("g", 7, b"record"))
                return []

        host = SimHost(kernel, network, "h", "lan", FAST, store=store)
        core = Logger()
        host.set_core(core)
        host.invoke(core.log)
        kernel.run()
        assert store.recover("g").records == [(7, b"record")]


class TestNotify:
    def test_notify_reaches_handler(self, world):
        kernel, network = world

        class Notifier(ProtocolCore):
            def fire(self):
                self.emit(Notify("update", {"x": 1}))
                return []

        host = SimHost(kernel, network, "h", "lan", FAST)
        core = Notifier()
        host.set_core(core)
        events = []
        host.on_notify(lambda kind, payload: events.append((kind, payload)))
        host.invoke(core.fire)
        kernel.run()
        assert events == [("update", {"x": 1})]
        assert host.dispatch_stats.notifications == 1


class TestCrashRestart:
    def test_crash_closes_connections_and_stops_core(self, world):
        kernel, network = world
        server, client, core = _pair(kernel, network)
        server.crash()
        kernel.run()
        assert core.closed == 1
        assert not server.alive

    def test_crashed_host_ignores_traffic(self, world):
        kernel, network = world
        server, client, core = _pair(kernel, network)
        server.crash()
        kernel.run()
        before = server.stats.messages_received
        client.invoke(lambda: [SendMessage(core.conn, Ack(2))])
        kernel.run()
        assert server.stats.messages_received == before

    def test_restart_accepts_new_connections(self, world):
        kernel, network = world
        server, client, core = _pair(kernel, network)
        server.crash()
        kernel.run()
        server.restart(EchoCore())
        core2 = DialerCore("server")
        client2 = SimHost(kernel, network, "client2", "lan", FAST)
        client2.set_core(core2)
        client2.invoke(core2.start)
        kernel.run()
        assert core2.received == [Ack(1)]

    def test_restart_while_alive_rejected(self, world):
        kernel, network = world
        host = SimHost(kernel, network, "h", "lan", FAST)
        host.set_core(EchoCore())
        with pytest.raises(RuntimeError):
            host.restart(EchoCore())

    def test_connect_failure_surfaces_as_closed_conn(self, world):
        kernel, network = world
        client = SimHost(kernel, network, "client", "lan", FAST)
        core = DialerCore("nonexistent")
        client.set_core(core)
        client.invoke(core.start)
        kernel.run()
        assert core.closed == 1
