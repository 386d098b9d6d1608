"""Host parity: one effect script, two backends, identical semantics.

The asyncio runtime and the simulator share a single dispatch
implementation (repro.core.interpreter); these tests push the same effect
script through both and assert the observable outcomes match: dispatch
counters, notify events, recovered on-disk state, and timer behavior
(re-arm, cancel-missing).
"""

import asyncio

from repro.core.events import (
    AppendWal,
    CancelTimer,
    CreateGroupStorage,
    Notify,
    ProtocolCore,
    SendFanout,
    SendMessage,
    SendMulticast,
    ShutDown,
    StartTimer,
    TruncateWal,
    WriteCheckpoint,
)
from repro.net.flowcontrol import FlowControlConfig
from repro.net.memory import MemoryNetwork
from repro.core.server import ServerConfig
from repro.runtime.host import AsyncioHost
from repro.runtime.shard import ShardedHost
from repro.sim.host import SimHost
from repro.sim.shard import ShardedSimHost
from repro.sim.kernel import SimKernel
from repro.sim.network import SimNetwork
from repro.sim.profiles import ETHERNET_10MBPS, ULTRASPARC_1
from repro.storage.store import GroupStore
from repro.wire.messages import Ack, Delivery, UpdateKind, UpdateRecord


def effect_script():
    """The ISSUE's parity script: re-arm, cancel-missing, dead-conn sends,
    the WAL lifecycle, a notification, and shutdown."""
    return [
        StartTimer("t", 5.0),
        StartTimer("t", 9.0),            # re-arm: one pending firing
        CancelTimer("missing"),          # cancel-missing: no-op
        SendMessage(99, Ack(1)),         # dead connection: counted drop
        SendMulticast((98, 99), Ack(2)),  # all receivers dead
        CreateGroupStorage("g", b"meta"),
        AppendWal("g", 0, b"rec-0"),
        AppendWal("g", 1, b"rec-1"),
        WriteCheckpoint("g", 1, b"snap"),
        TruncateWal("g", 1),             # already rotated by checkpoint
        Notify("parity", 7),
        ShutDown("script done"),
    ]


class TimerCore(ProtocolCore):
    def __init__(self):
        super().__init__()
        self.fired = []

    def handle_timer(self, key):
        self.fired.append(key)


def run_script_on_asyncio(tmp_path):
    events = []

    async def main():
        host = AsyncioHost(
            TimerCore(), MemoryNetwork(), store=GroupStore(tmp_path)
        )
        host.on_notify(lambda kind, payload: events.append((kind, payload)))
        host.dispatch(effect_script())
        await host.wait_stopped()
        host.store.close()
        return host

    host = asyncio.run(main())
    return host.dispatch_stats, events, GroupStore(tmp_path).recover("g")


def run_script_on_sim(tmp_path):
    kernel = SimKernel()
    network = SimNetwork(kernel)
    network.add_segment(
        "lan", ETHERNET_10MBPS.bytes_per_sec, ETHERNET_10MBPS.latency
    )
    host = SimHost(
        kernel, network, "h", "lan", ULTRASPARC_1, store=GroupStore(tmp_path)
    )
    host.set_core(TimerCore())
    events = []
    host.on_notify(lambda kind, payload: events.append((kind, payload)))
    host.interpreter.execute(effect_script())
    kernel.run()
    return host.dispatch_stats, events, GroupStore(tmp_path).recover("g")


class TestEffectScriptParity:
    def test_identical_outcomes_on_both_backends(self, tmp_path):
        a_stats, a_events, a_rec = run_script_on_asyncio(tmp_path / "a")
        s_stats, s_events, s_rec = run_script_on_sim(tmp_path / "s")

        # DispatchStats is a dataclass: one comparison covers every counter.
        assert a_stats == s_stats
        assert a_events == s_events == [("parity", 7)]
        assert (a_rec.meta, a_rec.checkpoint_seqno, a_rec.snapshot, a_rec.records) \
            == (s_rec.meta, s_rec.checkpoint_seqno, s_rec.snapshot, s_rec.records)

    def test_script_counters_match_the_contract(self, tmp_path):
        stats, _events, recovered = run_script_on_sim(tmp_path)
        assert stats.timers_started == 2
        assert stats.timers_cancelled == 1
        assert stats.sends == 0 and stats.send_drops == 1
        assert stats.multicast_fanout == 0 and stats.multicast_drops == 2
        assert stats.storage_creates == 1
        assert stats.wal_appends == 2
        assert stats.checkpoints == 1
        assert stats.wal_truncates == 1
        assert stats.notifications == 1
        assert stats.shutdowns == 1
        # checkpoint rotated the WAL, so TruncateWal had nothing left to do
        assert recovered.checkpoint_seqno == 1
        assert recovered.snapshot == b"snap"
        assert recovered.records == []


TINY_FLOW = FlowControlConfig(
    max_outbox_frames=8,
    max_outbox_bytes=1 << 20,
    coalesce_watermark=2,
    link_window=0.25,
)


class SinkCore(ProtocolCore):
    """Accepts connections and remembers them; never reacts otherwise."""

    def __init__(self):
        super().__init__()
        self.connected = []

    def handle_connected(self, conn, peer, key):
        self.connected.append(conn)


def _delivery(seqno, kind, object_id):
    return Delivery(
        "g", UpdateRecord(seqno, kind, object_id, b"x" * 64, "blaster", 0.0)
    )


def state_burst(conn):
    """12 STATE frames over 2 object ids, far over coalesce_watermark=2:
    every push past the first two supersedes its queued predecessor, so
    the outbox plateaus at depth 2 and ten frames coalesce away.  The
    trailing Ack rides the control lane.  All 13 sends form one
    consecutive run, so they flush through deliver_batch on both
    backends."""
    script = [
        SendMessage(conn, _delivery(i, UpdateKind.STATE, f"obj-{i % 2}"))
        for i in range(12)
    ]
    script.append(SendMessage(conn, Ack(99)))
    return script


def update_burst(conn):
    """12 UPDATE frames (append semantics — never coalescible) to one
    object: the 9th push overflows max_outbox_frames=8, the sweep finds
    nothing droppable, and the connection is lag-kicked; the rest are
    refused.  Notify effects break the run so each send takes the
    unbatched per-message path."""
    script = []
    for i in range(12):
        script.append(SendMessage(conn, _delivery(i, UpdateKind.UPDATE, "obj")))
        script.append(Notify("tick", i))
    return script


def run_burst_on_asyncio(make_script):
    async def main():
        net = MemoryNetwork()
        core = SinkCore()
        host = AsyncioHost(core, net, flow=TINY_FLOW)
        await host.listen("svc")
        await net.dial("svc")
        await asyncio.sleep(0.05)
        (conn,) = core.connected
        # dispatch() is synchronous, so every push lands in the outbox
        # before the tick's flush runs — the same accept/coalesce/kick
        # sequence as one interpreter.execute() batch in the simulator.
        host.dispatch(make_script(conn))
        await asyncio.sleep(0.1)  # let the flush write (or kick)
        stats = host.dispatch_stats
        await host.stop()
        return stats

    return asyncio.run(main())


def run_burst_on_sim(make_script):
    kernel = SimKernel()
    network = SimNetwork(kernel)
    network.add_segment(
        "lan", ETHERNET_10MBPS.bytes_per_sec, ETHERNET_10MBPS.latency
    )
    core = SinkCore()
    host = SimHost(kernel, network, "h", "lan", ULTRASPARC_1, flow=TINY_FLOW)
    host.set_core(core)
    peer = SimHost(kernel, network, "c", "lan", ULTRASPARC_1)
    peer.set_core(ProtocolCore())
    network.connect("c", "h")
    kernel.run()
    (conn,) = core.connected
    host.interpreter.execute(make_script(conn))
    kernel.run()
    return host.dispatch_stats


class TestFlowControlParity:
    """The flow-control counters are deterministic policy outcomes, so
    they must agree counter-for-counter across backends (the claim
    docs/flow-control.md §8 makes about outbox_coalesced/outbox_kicks)."""

    def test_coalescing_counters_match(self):
        a_stats = run_burst_on_asyncio(state_burst)
        s_stats = run_burst_on_sim(state_burst)
        assert a_stats == s_stats
        assert a_stats.outbox_coalesced == 10
        assert a_stats.outbox_kicks == 0
        assert a_stats.sends == 13 and a_stats.send_drops == 0

    def test_kick_counters_match(self):
        a_stats = run_burst_on_asyncio(update_burst)
        s_stats = run_burst_on_sim(update_burst)
        assert a_stats == s_stats
        assert a_stats.outbox_kicks == 1
        assert a_stats.outbox_coalesced == 0
        # eight pushes accepted before the overflow, four refused after
        # the kick; refusals are visible drops, never silent.
        assert a_stats.sends == 8 and a_stats.send_drops == 4
        assert a_stats.notifications == 12


def fanout_script(as_one_effect):
    """Kick the second connection (``update_burst``: 8 accepted, the 9th
    overflows, 3 more refused), then fan one delivery out to a live, an
    unknown and that kicked connection — as the ONE effect a group
    broadcast emits, or as the per-recipient sends it replaced."""

    def make_script(live, kicked):
        script = update_burst(kicked)
        frame, conns = _delivery(100, UpdateKind.UPDATE, "obj"), (live, 99, kicked)
        if as_one_effect:
            return script + [SendFanout(conns, frame)]
        return script + [SendMessage(conn, frame) for conn in conns]

    return make_script


def run_fanout_on_asyncio(make_script, sharded):
    async def main():
        net = MemoryNetwork()
        if sharded:
            host = ShardedHost(ServerConfig(persist=False), net, 2, flow=TINY_FLOW)
        else:
            host = AsyncioHost(SinkCore(), net, flow=TINY_FLOW)
        await host.listen("svc")
        await net.dial("svc")
        await net.dial("svc")
        await asyncio.sleep(0.05)
        live, kicked = sorted(host._conns)
        # one synchronous run: every push lands before the tick's flush
        if sharded:
            worker = host.workers[0]
            worker.conns.update((live, kicked))
            worker.interpreter.execute(make_script(live, kicked))
        else:
            host.dispatch(make_script(live, kicked))
        await asyncio.sleep(0.1)
        stats = host.dispatch_stats
        await host.stop()
        return stats

    return asyncio.run(main())


def run_fanout_on_sim(make_script, sharded):
    kernel = SimKernel()
    network = SimNetwork(kernel)
    network.add_segment(
        "lan", ETHERNET_10MBPS.bytes_per_sec, ETHERNET_10MBPS.latency
    )
    if sharded:
        host = ShardedSimHost(
            kernel, network, "h", "lan", ULTRASPARC_1,
            ServerConfig(persist=False), 2, flow=TINY_FLOW,
        )
    else:
        host = SimHost(kernel, network, "h", "lan", ULTRASPARC_1, flow=TINY_FLOW)
        host.set_core(SinkCore())
    for name in ("c1", "c2"):
        peer = SimHost(kernel, network, name, "lan", ULTRASPARC_1)
        peer.set_core(ProtocolCore())
        network.connect(name, "h")
    kernel.run()
    live, kicked = sorted(host._channels)
    if sharded:
        worker = host.workers[0]
        worker.conns.update((live, kicked))
        worker.interpreter.execute(make_script(live, kicked))
    else:
        host.interpreter.execute(make_script(live, kicked))
    kernel.run()
    return host.dispatch_stats


class TestFanoutParity:
    """A ``SendFanout`` is its per-recipient sends, counter for counter:
    on every host, and through a shard worker's one host call."""

    def test_flat_hosts_count_a_fanout_like_its_unicast_loop(self):
        runs = [
            run(fanout_script(as_one_effect), sharded=False)
            for run in (run_fanout_on_asyncio, run_fanout_on_sim)
            for as_one_effect in (True, False)
        ]
        assert runs[0] == runs[1] == runs[2] == runs[3]
        stats = runs[0]
        # burst: 8 + 4; fan-out: the live one accepts, unknown and
        # kicked drop — sends + send_drops == recipients
        assert (stats.sends, stats.send_drops) == (8 + 1, 4 + 2)
        assert stats.outbox_kicks == 1

    def test_sharded_hosts_count_a_fanout_like_its_unicast_loop(self):
        runs = [
            run(fanout_script(as_one_effect), sharded=True)
            for run in (run_fanout_on_asyncio, run_fanout_on_sim)
            for as_one_effect in (True, False)
        ]
        assert runs[0] == runs[1] == runs[2] == runs[3]
        stats = runs[0]
        # the worker's sends reach the host's outboxes directly and
        # count once, with the host's own verdict: exactly the flat run
        assert (stats.sends, stats.send_drops) == (8 + 1, 4 + 2)
        assert stats.outbox_kicks == 1


class TestTimerParity:
    def test_rearm_fires_once_with_latest_delay(self, tmp_path):
        # asyncio
        async def main():
            core = TimerCore()
            host = AsyncioHost(core, MemoryNetwork())
            host.dispatch([
                StartTimer("t", 0.01),
                StartTimer("t", 0.04),
                CancelTimer("missing"),
            ])
            await asyncio.sleep(0.02)
            early = list(core.fired)
            await asyncio.sleep(0.06)
            await host.stop()
            return early, core.fired

        early, fired = asyncio.run(main())
        assert early == [] and fired == ["t"]

        # simulator
        kernel = SimKernel()
        network = SimNetwork(kernel)
        network.add_segment(
            "lan", ETHERNET_10MBPS.bytes_per_sec, ETHERNET_10MBPS.latency
        )
        host = SimHost(kernel, network, "h", "lan", ULTRASPARC_1)
        core = TimerCore()
        host.set_core(core)
        host.interpreter.execute([
            StartTimer("t", 0.01),
            StartTimer("t", 0.04),
            CancelTimer("missing"),
        ])
        kernel.run_until(0.02)
        assert core.fired == []
        kernel.run()
        assert core.fired == ["t"]
