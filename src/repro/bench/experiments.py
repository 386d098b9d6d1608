"""The reproduced evaluation: one function per paper table/figure/claim.

Every experiment builds a fresh deterministic simulation of the paper's
testbed (§5.2), runs the measurement procedure the paper describes, and
returns structured rows that ``benchmarks/`` renders next to the paper's
reported numbers.  Absolute values depend on the calibrated cost models in
:mod:`repro.sim.profiles`; the claims under reproduction are the *shapes*
(see EXPERIMENTS.md).

:data:`EXPERIMENTS`, at the end, names each experiment once: a function's
defaults are the configuration its benchmark runs (and, when gated,
``BENCH_<name>.json`` records), and the table adds the ``--quick``
sizes and whether ``repro benchcheck`` gates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclasses_replace
from typing import Any, Callable

import numpy as np

from repro.bench.workload import BlastSender, MeasuredSender, build_room
from repro.core.events import NOTIFY_KICKED, NOTIFY_MEMBERSHIP
from repro.core.reduction import NeverReduce, ReduceByCount
from repro.core.server import ServerConfig
from repro.net.flowcontrol import FlowControlConfig
from repro.sim.harness import CoronaWorld
from repro.sim.profiles import (
    CAMPUS_HOP_LATENCY,
    ETHERNET_10MBPS,
    ETHERNET_100MBPS,
    MODEM_28_8,
    MODEM_TO_LAN_RAMP,
    PENTIUM_II_200,
    SAWTOOTH_MOBILE,
    SPARC_20,
    ULTRASPARC_1,
    HostProfile,
)
from repro.wire.messages import ObjectState, TransferPolicy, TransferSpec

__all__ = [
    "fig3",
    "table1",
    "table2",
    "msgsize_sweep",
    "aggregate_throughput",
    "join_latency",
    "join_policy_matrix",
    "transfer_policies",
    "state_transfer",
    "logging_ablation",
    "log_reduction",
    "failover",
    "server_scaling",
    "shard_scaling",
    "migration",
    "multicast_ablation",
    "backpressure",
    "hot_group",
    "Experiment",
    "EXPERIMENTS",
]


# ---------------------------------------------------------------------------
# Shared measurement procedures
# ---------------------------------------------------------------------------


def _room(n_clients: int, *, segment=ETHERNET_10MBPS, spread: bool = False,
          profile: HostProfile = ULTRASPARC_1, sync_logging: bool = False,
          **config: Any) -> tuple[CoronaWorld, list]:
    """One server and a room of *n_clients* joined clients on *segment*,
    or *spread* over six campus segments a router hop away; *config* goes
    to the server's :class:`ServerConfig`."""
    world = CoronaWorld(default_segment=segment)
    world.add_server(
        profile=profile,
        config=ServerConfig(server_id="server", **config),
        sync_logging=sync_logging,
    )
    segments = _client_segments(world) if spread else None
    return world, build_room(world, n_clients, segments=segments)


def _probe_rtt(world: CoronaWorld, clients: list, size: int, probes: int,
               interval: float, *, warmup: int = 0, lead: float = 0.1,
               settle: float | None = None) -> float:
    """Mean RTT (ms) of *probes* inclusive multicasts to the "bench" room,
    one every *interval* from *lead* s on, after *warmup* unmeasured ones.

    A world that never drains (replicated heartbeats re-arm forever)
    passes *settle*: run the probe window plus that much slack.
    """
    # "This client is the last one (in the group) a broadcast message is
    # sent to, therefore the values measured correspond to the worst case."
    count = probes + warmup
    probe = MeasuredSender(
        world, clients[-1], "bench", size=size, interval=interval,
        count=count, warmup=warmup,
    )
    start = world.now + lead
    probe.start(at=start)
    if settle is None:
        world.run()
    else:
        world.run_until(start + count * interval + settle)
    return probe.rtts.stats().mean_ms


def _blast(world: CoronaWorld, server, senders: list[tuple[Any, str]],
           size: int, duration: float) -> tuple[float, float]:
    """Each ``(client, group)`` of *senders* multicasts as fast as its
    send window allows for *duration*; returns the server's delivered
    kbps and accepted msgs/s over that window."""
    start = world.now
    before = server.stats.bytes_sent
    before_in = server.stats.messages_received
    blasters = [
        BlastSender(world, client, group, size=size, duration=duration)
        for client, group in senders
    ]
    for blaster in blasters:
        blaster.start(at=start + 0.1)
    world.run_until(start + 0.1 + duration)
    elapsed = world.now - (start + 0.1)
    sent = server.stats.bytes_sent - before
    accepted = server.stats.messages_received - before_in
    return sent / elapsed / 1000.0, accepted / elapsed


def _first_reply(host, clock: Callable[[], float]) -> list[float]:
    """The timed join: a list that receives the *clock* time of *host*'s
    next reply, once, as the world runs."""
    done_at: list[float] = []
    host.on_notify(
        lambda kind, payload: done_at.append(clock())
        if kind == "reply" and not done_at else None
    )
    return done_at


def _seed_group(world: CoronaWorld, seeder, initial: tuple) -> None:
    """Create persistent group "g" holding *initial* and join *seeder*."""
    world.run()
    seeder.call("create_group", "g", True, initial)
    world.run()
    seeder.call("join_group", "g")
    world.run()


# ---------------------------------------------------------------------------
# Figure 3: round-trip delay vs #clients, stateful vs stateless
# ---------------------------------------------------------------------------


@dataclass
class Figure3Row:
    clients: int
    stateful_ms: float
    stateless_ms: float

    @property
    def overhead_pct(self) -> float:
        return 100.0 * (self.stateful_ms - self.stateless_ms) / self.stateless_ms


def fig3(
    client_counts: tuple[int, ...] = (5, 10, 20, 30, 40, 50, 60),
    size: int = 1000,
    probes: int = 40,
    interval: float = 0.1,
) -> list[Figure3Row]:
    """Fig. 3: group multicast RTT vs #clients, 1000 B, one UltraSparc."""
    return [
        Figure3Row(
            clients=n,
            stateful_ms=_probe_rtt(*_room(n, stateful=True), size, probes, interval),
            stateless_ms=_probe_rtt(*_room(n, stateful=False), size, probes, interval),
        )
        for n in client_counts
    ]


# ---------------------------------------------------------------------------
# Table 1: server throughput, 1000/10000 B, UltraSparc vs Pentium II
# ---------------------------------------------------------------------------


@dataclass
class Table1Cell:
    machine: str
    size: int
    delivered_kbps: float
    accepted_msgs_per_s: float


def _throughput(server_profile: HostProfile, size: int, duration: float,
                n_clients: int = 6, **room: Any) -> Table1Cell:
    # "6 clients running on separate machines (Sun Sparc 20s and
    # UltraSparc 1s) multicasting data as fast as possible"
    world, clients = _room(n_clients, profile=server_profile, **room)
    for i, client in enumerate(clients):
        client.host.profile = SPARC_20 if i % 2 else ULTRASPARC_1
    kbps, accepted = _blast(
        world, world.servers["server"],
        [(client, "bench") for client in clients], size, duration,
    )
    return Table1Cell(server_profile.name, size, kbps, accepted)


def table1(
    sizes: tuple[int, ...] = (1000, 10000),
    duration: float = 4.0,
) -> list[Table1Cell]:
    """Table 1: server throughput for 1000/10000 B multicasts."""
    return [
        _throughput(profile, size, duration)
        for profile in (ULTRASPARC_1, PENTIUM_II_200)
        for size in sizes
    ]


# ---------------------------------------------------------------------------
# Table 2: single server vs replicated service, 100/200/300 clients
# ---------------------------------------------------------------------------


@dataclass
class Table2Row:
    clients: int
    single_ms: float
    replicated_ms: float


def _client_segments(world: CoronaWorld, count: int = 6) -> list[str]:
    names = []
    for i in range(count):
        name = f"campus-{i}"
        world.add_segment(name, ETHERNET_10MBPS)
        world.set_hop_latency("lan", name, CAMPUS_HOP_LATENCY)
        for j in range(count):
            if j < i:
                world.set_hop_latency(f"campus-{j}", name, CAMPUS_HOP_LATENCY)
        names.append(name)
    return names


def _rtt_replicated(n_clients: int, size: int, probes: int, interval: float,
                    n_servers: int = 7) -> float:
    world = CoronaWorld()
    segments = _client_segments(world, count=n_servers - 1)
    # coordinator on "lan", the six fan-out servers on the campus segments
    world.add_replicated_cluster(
        n_servers, segments=["lan"] + segments, heartbeat_interval=5.0,
        suspicion_timeout=30.0,
    )
    world.run_for(1.0)
    fanout_servers = [f"srv-{i}" for i in range(1, n_servers)]
    clients = build_room(
        world, n_clients,
        servers=fanout_servers,
        segments=segments,
    )
    world.run_for(5.0)  # drain the join-phase traffic before measuring
    return _probe_rtt(world, clients, size, probes, interval,
                      warmup=2, lead=0.5, settle=30.0)


def table2(
    client_counts: tuple[int, ...] = (100, 200, 300),
    size: int = 1000,
    probes: int = 8,
    interval: float = 1.0,
) -> list[Table2Row]:
    """Table 2: multicast RTT, single server vs coordinator + 6 servers."""
    return [
        Table2Row(
            clients=n,
            single_ms=_probe_rtt(*_room(n, spread=True), size, probes, interval),
            replicated_ms=_rtt_replicated(n, size, probes, interval),
        )
        for n in client_counts
    ]


# ---------------------------------------------------------------------------
# §5.3 ablation: IP-multicast vs point-to-point fan-out
# ---------------------------------------------------------------------------


@dataclass
class MulticastRow:
    clients: int
    p2p_ms: float
    multicast_ms: float
    p2p_bytes: int
    multicast_bytes: int


def multicast_ablation(
    client_counts: tuple[int, ...] = (10, 30, 60),
    size: int = 1000,
    probes: int = 15,
) -> list[MulticastRow]:
    """Paper §5.3: "a version of the communication system which uses both
    IP-multicast, whenever possible, and point-to-point TCP connections".
    Point-to-point fan-out is linear in receivers; multicast makes the
    wire cost constant (one copy per segment), leaving only per-receiver
    CPU at the clients."""
    rows = []
    for n in client_counts:
        cell = {}
        for use_multicast in (False, True):
            world, clients = _room(n, use_multicast=use_multicast)
            before = world.network.bytes_sent
            rtt = _probe_rtt(world, clients, size, probes, 0.2)
            cell[use_multicast] = (rtt, world.network.bytes_sent - before)
        rows.append(MulticastRow(
            clients=n,
            p2p_ms=cell[False][0],
            multicast_ms=cell[True][0],
            p2p_bytes=cell[False][1],
            multicast_bytes=cell[True][1],
        ))
    return rows


# ---------------------------------------------------------------------------
# §4.1 ablation: how the replicated service scales with server count
# ---------------------------------------------------------------------------


@dataclass
class ServerScalingRow:
    fanout_servers: int
    rtt_ms: float


def server_scaling(
    fanout_counts: tuple[int, ...] = (1, 2, 3, 6),
    n_clients: int = 240,
    size: int = 1000,
    probes: int = 5,
    interval: float = 1.0,
) -> list[ServerScalingRow]:
    """Fix the group at *n_clients*; vary how many servers share the
    fan-out.  The paper's §4.1 design rationale: splitting groups over
    servers 'eliminates some of the network traffic due to the broadcast
    of a message to large groups and also reduces the load per server'."""
    return [
        ServerScalingRow(
            fanout_servers=fanout,
            rtt_ms=_rtt_replicated(
                n_clients, size, probes, interval, n_servers=fanout + 1
            ),
        )
        for fanout in fanout_counts
    ]


# ---------------------------------------------------------------------------
# §5.2.1 text: message-size effect on the RTT slope
# ---------------------------------------------------------------------------


@dataclass
class MsgSizeRow:
    size: int
    rtt_by_clients: dict[int, float]


def msgsize_sweep(
    sizes: tuple[int, ...] = (100, 300, 1000, 3000, 10000),
    client_counts: tuple[int, ...] = (10, 30, 60),
    probes: int = 25,
) -> list[MsgSizeRow]:
    """RTT vs message size: sizes up to a few hundred bytes barely matter;
    the slope with #clients grows above 1000 B (paper §5.2.1)."""
    rows = []
    for size in sizes:
        # pace probes so large fan-outs fully drain between sends
        interval = max(0.1, client_counts[-1] * size / 1_000_000 * 2)
        rtts = {
            n: _probe_rtt(*_room(n), size, probes, interval)
            for n in client_counts
        }
        rows.append(MsgSizeRow(size=size, rtt_by_clients=rtts))
    return rows


# ---------------------------------------------------------------------------
# §5.2.2 text: aggregate throughput vs number of blasting clients
# ---------------------------------------------------------------------------


@dataclass
class AggregateRow:
    clients: int
    delivered_kbps: float


def aggregate_throughput(
    client_counts: tuple[int, ...] = (2, 4, 6, 8, 10, 12),
    size: int = 1000,
    duration: float = 3.0,
) -> list[AggregateRow]:
    """Aggregate throughput vs offered load: the paper reports that every
    added client increased throughput, sustaining ~600 KB/s on the NT
    server (§5.2.2)."""
    return [
        AggregateRow(
            clients=n,
            delivered_kbps=_throughput(
                PENTIUM_II_200, size, duration, n_clients=n
            ).delivered_kbps,
        )
        for n in client_counts
    ]


# ---------------------------------------------------------------------------
# §1/§2/§6 claim: member-independent joins vs ISIS-like state transfer
# ---------------------------------------------------------------------------


@dataclass
class JoinLatencyRow:
    scenario: str
    corona_ms: float
    isis_ms: float


def _corona_join_time(state_bytes: int, members_crashed: bool) -> float:
    world = CoronaWorld()
    world.add_server(profile=ULTRASPARC_1)
    seeder = world.add_client(client_id="seeder")
    _seed_group(world, seeder, (ObjectState("doc", bytes(state_bytes)),))
    if members_crashed:
        seeder.host.crash()
        world.run()
    joiner = world.add_client(client_id="joiner")
    world.run()
    start = world.now
    done_at = _first_reply(joiner.host, world.kernel.now)
    join = joiner.call("join_group", "g")
    world.run()
    assert join.ok
    return (done_at[0] - start) * 1000.0


def _isis_join_time(state_bytes: int, donor_delay: float | None,
                    donor_hung: bool, failure_timeout: float = 5.0) -> float:
    from repro.baselines.isis import (
        IsisClientConfig,
        IsisClientCore,
        IsisServerConfig,
        IsisServerCore,
    )
    from repro.sim.host import SimHost
    from repro.sim.kernel import SimKernel
    from repro.sim.network import SimNetwork
    from repro.sim.profiles import CLIENT_WORKSTATION

    kernel = SimKernel()
    network = SimNetwork(kernel)
    network.add_segment("lan", ETHERNET_10MBPS.bytes_per_sec, ETHERNET_10MBPS.latency)
    server_host = SimHost(kernel, network, "server", "lan", ULTRASPARC_1)
    server_host.set_core(
        IsisServerCore(IsisServerConfig(failure_timeout=failure_timeout), kernel)
    )

    def add_client(name, delay=None, hung=False):
        host = SimHost(kernel, network, name, "lan", CLIENT_WORKSTATION)
        core = IsisClientCore(IsisClientConfig(name, delay, hung), kernel)
        host.set_core(core)
        host.invoke(lambda: [core.connect("server")][1:])
        return host, core

    donor_host, donor = add_client("donor", donor_delay, donor_hung)
    kernel.run()
    donor_host.invoke(lambda: [donor.create_group("g")][1:])
    kernel.run()
    donor_host.invoke(lambda: [donor.join_group("g")][1:])
    kernel.run()
    donor_host.invoke(lambda: [donor.bcast_update("g", "doc", bytes(state_bytes))][1:])
    kernel.run()
    # a healthy member who could donate if the first one is given up on
    backup_host, backup = add_client("backup")
    kernel.run()
    backup_host.invoke(lambda: [backup.join_group("g")][1:])
    kernel.run_for(2 * failure_timeout + 2.0)

    joiner_host, joiner = add_client("joiner")
    kernel.run_for(0.2)
    start = kernel.now()
    done_at = _first_reply(joiner_host, kernel.now)
    joiner_host.invoke(lambda: [joiner.join_group("g")][1:])
    kernel.run_for(3 * failure_timeout + 5.0)
    assert "g" in joiner.states and done_at
    return (done_at[0] - start) * 1000.0


def join_latency(state_bytes: int = 100_000) -> list[JoinLatencyRow]:
    """Join latency: Corona (service-held state) vs ISIS-like (member-held
    state) with healthy, slow, and failed members."""
    return [
        JoinLatencyRow(
            "all members healthy",
            _corona_join_time(state_bytes, members_crashed=False),
            _isis_join_time(state_bytes, donor_delay=None, donor_hung=False),
        ),
        JoinLatencyRow(
            "donor member slow (1.5 s busy)",
            _corona_join_time(state_bytes, members_crashed=False),
            _isis_join_time(state_bytes, donor_delay=1.5, donor_hung=False),
        ),
        JoinLatencyRow(
            "donor member hung (5 s failure timeout)",
            _corona_join_time(state_bytes, members_crashed=True),
            _isis_join_time(state_bytes, donor_delay=None, donor_hung=True),
        ),
    ]


# ---------------------------------------------------------------------------
# §3.2 claim: customized state-transfer policies for slow clients
# ---------------------------------------------------------------------------


@dataclass
class TransferRow:
    policy: str
    link: str
    join_ms: float
    bytes_received: int


def _transfer_join(spec: TransferSpec, segment_profile, n_objects: int,
                   object_bytes: int, n_updates: int) -> tuple[float, int]:
    world = CoronaWorld()
    world.add_server(profile=ULTRASPARC_1)
    world.add_segment("client-link", segment_profile)
    world.set_hop_latency("lan", "client-link", CAMPUS_HOP_LATENCY)
    seeder = world.add_client(client_id="seeder")
    _seed_group(world, seeder, tuple(
        ObjectState(f"obj-{i}", bytes(object_bytes)) for i in range(n_objects)
    ))
    for i in range(n_updates):
        seeder.call("bcast_update", "g", f"obj-{i % n_objects}", bytes(200))
    world.run()
    joiner = world.add_client(
        client_id="joiner", segment="client-link", request_timeout=600.0
    )
    world.run()
    before = joiner.host.stats.bytes_received
    start = world.now
    done_at = _first_reply(joiner.host, world.kernel.now)
    join = joiner.call("join_group", "g", transfer=spec)
    world.run()
    assert join.ok, join.error
    return (done_at[0] - start) * 1000.0, joiner.host.stats.bytes_received - before


def transfer_policies(
    n_objects: int = 10,
    object_bytes: int = 10_000,
    n_updates: int = 20,
) -> list[TransferRow]:
    """Join cost under each transfer policy, on LAN vs modem links."""
    specs = [
        ("FULL", TransferSpec(policy=TransferPolicy.FULL)),
        ("LATEST_N(10)", TransferSpec(policy=TransferPolicy.LATEST_N, last_n=10)),
        ("SELECTED(1 obj)", TransferSpec(policy=TransferPolicy.SELECTED, object_ids=("obj-0",))),
        ("NONE", TransferSpec(policy=TransferPolicy.NONE)),
    ]
    rows = []
    for link_name, profile in (("10 Mbps LAN", ETHERNET_10MBPS), ("28.8k modem", MODEM_28_8)):
        for policy_name, spec in specs:
            ms, received = _transfer_join(spec, profile, n_objects, object_bytes, n_updates)
            rows.append(TransferRow(policy_name, link_name, ms, received))
    return rows


# ---------------------------------------------------------------------------
# Chunked, resumable, bandwidth-adaptive state transfer (streaming joins)
# ---------------------------------------------------------------------------


@dataclass
class StreamRow:
    """One streaming-join scenario of :func:`state_transfer`."""

    scenario: str
    state_kb: int
    #: Virtual ms from the join request to the first *live* Delivery —
    #: the paper's interactivity metric for slow clients.
    first_update_ms: float
    #: Virtual ms from the join request to the completed join (state
    #: fully reassembled, catch-up log replayed).
    converged_ms: float
    bytes_received: int
    chunked_transfers: int
    resumes: int
    #: Final replica byte-identical to a monolithic FULL join's.
    parity: bool


def _final_state(view) -> dict[str, bytes]:
    return {
        oid: view.state.get(oid).materialized()
        for oid in view.state.object_ids()
    }


def _stream_join(
    scenario: str,
    link_profile,
    *,
    chunked: bool,
    n_objects: int = 40,
    object_bytes: int = 10_000,
    updates: int = 6,
    update_interval: float = 10.0,
    outage: tuple[float, float] | None = None,
) -> StreamRow:
    """Join a large-state group over *link_profile* while a LAN member
    keeps broadcasting, optionally cutting the joiner's link mid-stream."""
    world = CoronaWorld()
    world.add_server(profile=ULTRASPARC_1)
    # Create the link at its t=0 rate only; a varying profile's step
    # schedule is rebased to the join start below (the setup phase runs
    # virtual time to quiescence, which would burn an absolute schedule).
    from repro.sim.profiles import NetProfile

    world.add_segment("client-link", NetProfile(
        link_profile.name, link_profile.bytes_per_sec, link_profile.latency,
    ))
    world.set_hop_latency("lan", "client-link", CAMPUS_HOP_LATENCY)
    seeder = world.add_client(host_id="seeder")
    _seed_group(world, seeder, tuple(
        ObjectState(f"obj-{i}", bytes(object_bytes)) for i in range(n_objects)
    ))

    joiner = world.add_client(
        host_id="joiner", segment="client-link", request_timeout=600.0,
        auto_reconnect=True, reconnect_backoff=1.0,
    )
    world.run()
    before = joiner.host.stats.bytes_received
    start = world.now
    done_at = _first_reply(joiner.host, world.kernel.now)
    steps = getattr(link_profile, "steps", ())
    if steps:
        world.vary_rate("client-link", steps, base=start)
    join = joiner.call(
        "join_group", "g", transfer=TransferSpec(chunked=chunked)
    )
    for i in range(updates):
        seeder.at(start + 2.0 + i * update_interval,
                  "bcast_update", "g", f"obj-{i % n_objects}", b"live!")
    if outage is not None:
        cut_at, heal_at = outage
        world.kernel.schedule_at(
            start + cut_at,
            lambda: world.network.partition({"joiner"}, {"server", "seeder"}),
        )
        world.kernel.schedule_at(start + heal_at, world.network.heal)
    world.run()
    assert join.ok, join.error
    view = join.reply.value
    received = joiner.host.stats.bytes_received - before
    stats = world.servers["server"].host.interpreter.stats

    # parity: a reference client takes the monolithic FULL snapshot of
    # the same final state over the LAN
    reference = world.add_client(host_id="reference", request_timeout=600.0)
    world.run()
    ref_join = reference.call("join_group", "g", transfer=TransferSpec())
    world.run()
    assert ref_join.ok, ref_join.error
    ref_view = ref_join.reply.value
    parity = (
        view.next_seqno == ref_view.next_seqno
        and _final_state(view) == _final_state(ref_view)
    )
    return StreamRow(
        scenario=scenario,
        state_kb=n_objects * object_bytes // 1000,
        first_update_ms=(
            (joiner.deliveries[0][0] - start) * 1000.0
            if joiner.deliveries else -1.0
        ),
        converged_ms=(done_at[0] - start) * 1000.0,
        bytes_received=received,
        chunked_transfers=stats.chunked_transfers,
        resumes=stats.transfer_resumes,
        parity=parity,
    )


def state_transfer() -> list[StreamRow]:
    """Streaming joins: monolithic vs chunked over fixed and time-varying
    links, with a mid-transfer disconnect/resume and a small-state
    fast-path control pair."""
    return [
        _stream_join("monolithic/modem", MODEM_28_8, chunked=False),
        _stream_join("chunked/modem", MODEM_28_8, chunked=True),
        _stream_join(
            "chunked/modem+outage", MODEM_28_8, chunked=True,
            outage=(30.0, 45.0),
        ),
        _stream_join("chunked/ramp", MODEM_TO_LAN_RAMP, chunked=True),
        _stream_join(
            "chunked/sawtooth", SAWTOOTH_MOBILE, chunked=True,
            n_objects=100,
        ),
        _stream_join(
            "small/monolithic", MODEM_28_8, chunked=False,
            n_objects=2, object_bytes=1_000, update_interval=0.5,
        ),
        _stream_join(
            "small/chunked", MODEM_28_8, chunked=True,
            n_objects=2, object_bytes=1_000, update_interval=0.5,
        ),
    ]
@dataclass
class JoinPolicyRow:
    policy: str
    chunked: bool
    join_ms: float
    bytes_received: int


def join_policy_matrix(
    n_objects: int = 10, object_bytes: int = 10_000, n_updates: int = 20,
) -> list[JoinPolicyRow]:
    """Modem-link join cost for every :class:`TransferPolicy`, each taken
    both monolithically and chunked (small transfers fall back to the
    monolithic fast path; only FULL here is big enough to stream)."""
    specs = {
        TransferPolicy.FULL: TransferSpec(),
        TransferPolicy.LATEST_N: TransferSpec(
            policy=TransferPolicy.LATEST_N, last_n=10),
        TransferPolicy.SELECTED: TransferSpec(
            policy=TransferPolicy.SELECTED, object_ids=("obj-0",)),
        TransferPolicy.SINCE_SEQNO: TransferSpec(
            policy=TransferPolicy.SINCE_SEQNO, since_seqno=n_updates // 2),
        TransferPolicy.NONE: TransferSpec(policy=TransferPolicy.NONE),
    }
    rows = []
    for policy in TransferPolicy:
        for chunked in (False, True):
            spec = dataclasses_replace(specs[policy], chunked=chunked)
            ms, received = _transfer_join(
                spec, MODEM_28_8, n_objects, object_bytes, n_updates
            )
            rows.append(JoinPolicyRow(policy.name, chunked, ms, received))
    return rows


# ---------------------------------------------------------------------------
# §6 claim: logging off the critical path; synchronous logging disk-bound
# ---------------------------------------------------------------------------


@dataclass
class LoggingRow:
    mode: str
    size: int
    delivered_kbps: float
    rtt_ms: float


def logging_ablation(size: int = 10000, duration: float = 3.0) -> list[LoggingRow]:
    """Stateless vs stateful-async vs stateful-sync logging.

    Runs on 100 Mbps Ethernet with a heavily loaded log device (500 KB/s
    effective) so the §6 prediction — synchronous logging throttled by
    disk I/O — can bind before the network does; asynchronous logging
    rides the same disk without touching the critical path.
    """
    from repro.sim.disk import DiskProfile

    busy_disk = dataclasses_replace(
        ULTRASPARC_1, disk=DiskProfile(bytes_per_sec=500_000.0, op_latency=0.002)
    )
    rows = []
    for mode, stateful, sync in (
        ("stateless (no log)", False, False),
        ("async logging (paper)", True, False),
        ("synchronous logging", True, True),
    ):
        cell = _throughput(
            busy_disk, size, duration, sync_logging=sync,
            stateful=stateful, segment=ETHERNET_100MBPS,
        )
        rtt = _probe_rtt(
            *_room(10, profile=busy_disk, sync_logging=sync, stateful=stateful),
            size, 30, 0.2,
        )
        rows.append(LoggingRow(mode, size, cell.delivered_kbps, rtt))
    return rows


# ---------------------------------------------------------------------------
# §3.2 claim: state-log reduction bounds memory and join cost
# ---------------------------------------------------------------------------


@dataclass
class ReductionRow:
    policy: str
    updates: int
    log_records: int
    log_bytes: int
    state_bytes: int
    late_join_ms: float


def log_reduction(n_updates: int = 2000, update_bytes: int = 500) -> list[ReductionRow]:
    """Retained log size and late-join cost, with and without reduction."""
    rows = []
    for name, policy in (
        ("NeverReduce", NeverReduce()),
        ("ReduceByCount(200)", ReduceByCount(max_records=200)),
    ):
        world = CoronaWorld()
        server = world.add_server(
            profile=ULTRASPARC_1,
            config=ServerConfig(server_id="server", reduction=policy),
        )
        writer = world.add_client(client_id="writer")
        world.run()
        writer.call("create_group", "g", True)
        world.run()
        writer.call("join_group", "g")
        world.run()
        for i in range(n_updates):
            writer.call("bcast_update", "g", "doc", bytes(update_bytes))
            if i % 100 == 99:
                world.run()
        world.run()
        group = server.core.groups["g"]
        joiner = world.add_client(client_id="late")
        world.run()
        start = world.now
        join = joiner.call(
            "join_group", "g",
            transfer=TransferSpec(policy=TransferPolicy.LATEST_N, last_n=50),
        )
        world.run()
        assert join.ok
        rows.append(ReductionRow(
            policy=name,
            updates=n_updates,
            log_records=len(group.log),
            log_bytes=group.log.size_bytes(),
            state_bytes=group.state.size_bytes(),
            late_join_ms=(world.now - start) * 1000.0,
        ))
    return rows


# ---------------------------------------------------------------------------
# §4.2 claim: failover time scales with the heartbeat timeouts
# ---------------------------------------------------------------------------


@dataclass
class FailoverRow:
    crashed: int
    servers: int
    suspicion_timeout: float
    recovery_s: float
    new_coordinator: str


def failover(
    suspicion_timeouts: tuple[float, ...] = (0.5, 1.0, 2.0),
    n_servers: int = 4,
) -> list[FailoverRow]:
    """Crash the coordinator (and successors); measure service recovery."""
    rows = []
    for timeout in suspicion_timeouts:
        for crashed in (1, 2):
            world = CoronaWorld()
            cluster = world.add_replicated_cluster(
                n_servers, heartbeat_interval=timeout / 3, suspicion_timeout=timeout
            )
            world.run_for(1.0)
            client = world.add_client(client_id="probe", server=f"srv-{n_servers-1}")
            world.run_for(0.5)
            client.call("create_group", "g", True)
            world.run_for(0.5)
            client.call("join_group", "g")
            world.run_for(0.5)
            crash_at = world.now
            for i in range(crashed):
                cluster[i].host.crash()
            # poll with retries until a broadcast succeeds again
            recovered_at = None
            for attempt in range(200):
                probe = client.call("bcast_update", "g", "o", b"x")
                world.run_for(max(0.25, timeout / 2))
                if probe.ok:
                    recovered_at = world.now
                    break
            assert recovered_at is not None, "service never recovered"
            new_coord = next(
                s.core.server_id for s in cluster if s.host.alive and s.core.is_coordinator
            )
            rows.append(FailoverRow(
                crashed=crashed,
                servers=n_servers,
                suspicion_timeout=timeout,
                recovery_s=recovered_at - crash_at,
                new_coordinator=new_coord,
            ))
    return rows


# ---------------------------------------------------------------------------
# Shard scaling: aggregate throughput vs #shards (group-sharded server)
# ---------------------------------------------------------------------------


@dataclass
class ShardScalingRow:
    shards: int
    delivered_kbps: float
    accepted_msgs_per_s: float
    #: Delivered throughput relative to the first (1-shard) configuration.
    speedup: float


def _sharded_server(shards: int):
    """A group-sharded UltraSparc server on a fast (100 Mb/s) segment."""
    world = CoronaWorld(default_segment=ETHERNET_100MBPS)
    server = world.add_sharded_server(
        profile=ULTRASPARC_1,
        config=ServerConfig(server_id="server", stateful=True, persist=False),
        shards=shards,
    )
    return world, server


def _open_rooms(world: CoronaWorld, prefix: str, n_groups: int,
                members: int) -> list[tuple[str, list]]:
    """*n_groups* rooms ``<prefix>-gNN`` of *members* joined clients each."""
    rooms: list[tuple[str, list]] = []
    for g in range(n_groups):
        group = f"{prefix}-g{g:02d}"
        clients = [
            world.add_client(host_id=f"{group}-c{m}", server="server")
            for m in range(members)
        ]
        rooms.append((group, clients))
    world.run()  # single-server world: drains once everyone is connected
    creations = [clients[0].call("create_group", group, False)
                 for group, clients in rooms]
    world.run()
    assert all(c.ok for c in creations), "group creation failed"
    joins = [client.call("join_group", group)
             for group, clients in rooms for client in clients]
    world.run()
    assert all(j.ok for j in joins), "not every client joined"
    return rooms


def shard_scaling(
    shard_counts: tuple[int, ...] = (1, 2, 4),
    n_groups: int = 16,
    members: int = 4,
    size: int = 1000,
    duration: float = 4.0,
    seed: int = 0,
) -> list[ShardScalingRow]:
    """Aggregate delivered throughput of a group-sharded server.

    One blast room per group, all groups saturating at once on a fast
    (100 Mb/s) segment so the server CPU — not the wire — is the
    bottleneck.  With per-shard CPU lanes the aggregate delivered rate
    scales with the number of occupied lanes until the front (receive)
    lane saturates, which is the claim ``bench_shard_scaling`` gates.
    """
    rows: list[ShardScalingRow] = []
    base: float | None = None
    for shards in shard_counts:
        world, server = _sharded_server(shards)
        # One small room per group.  The seed permutes the group names
        # (and hence their ring placement) without changing the offered
        # load, so the scaling claim is not an artifact of one lucky
        # assignment.
        rooms = _open_rooms(world, f"blast-s{seed}", n_groups, members)
        senders = [(clients[0], group) for group, clients in rooms]
        kbps, accepted = _blast(world, server, senders, size, duration)
        if base is None:
            base = kbps
        rows.append(ShardScalingRow(
            shards=shards,
            delivered_kbps=kbps,
            accepted_msgs_per_s=accepted,
            speedup=kbps / base,
        ))
    return rows


# ---------------------------------------------------------------------------
# Live migration: throughput recovery and freeze-window cost
# ---------------------------------------------------------------------------


@dataclass
class MigrationRow:
    #: "pinned-hot" (every group leased to shard 0) or "rebalanced"
    #: (after live migration spread the groups over all shards).
    phase: str
    shards: int
    delivered_kbps: float
    accepted_msgs_per_s: float
    #: Delivered throughput relative to the pinned-hot phase.
    recovery_ratio: float
    migrations: int
    freeze_p50_ms: float
    freeze_p99_ms: float
    migrated_bytes: int
    commands_buffered: int


def migration(
    shards: int = 4,
    n_groups: int = 16,
    members: int = 3,
    size: int = 1000,
    duration: float = 2.0,
    blast: int = 40,
    seed: int = 0,
) -> list[MigrationRow]:
    """Throughput recovery from a pathological lease placement.

    Every group is created while shards 1..N-1 are draining, so all of
    them land (and stay leased) on shard 0 — the worst placement the
    elastic layer can inherit.  Phase one blasts that configuration to
    measure the hot-shard ceiling.  Then each group is live-migrated to
    its balanced shard *while its sender keeps issuing ``blast``
    commands*, which exercises the freeze buffer; the committed
    :class:`~repro.runtime.migration.MigrationRecord` entries give the
    freeze-window distribution, bytes streamed and commands buffered.
    Phase two repeats the blast on the rebalanced topology — the gated
    claim is that delivered throughput recovers by >= 1.5x.
    """
    world, server = _sharded_server(shards)
    host = server.host
    for s in range(1, shards):
        host.router.drain(s)
    rooms = _open_rooms(world, f"mig-s{seed}", n_groups, members)
    for s in range(1, shards):
        host.router.undrain(s)
    assert all(host.router.route(group) == 0 for group, _ in rooms), \
        "draining did not pin every group to shard 0"

    senders = [(clients[0], group) for group, clients in rooms]
    hot_kbps, hot_accepted = _blast(world, server, senders, size, duration)
    world.run()  # drain the in-flight tail before migrating

    # Live-migrate each mis-placed group to its balanced shard while its
    # sender keeps issuing commands: sends clustered around the freeze
    # window land in the migration buffer and replay on the new owner.
    churn_start = world.now + 0.1
    moves: list[tuple[str, int]] = []
    for i, (group, clients) in enumerate(rooms):
        dst = i % shards
        if dst == host.router.route(group):
            continue
        at = churn_start + 0.1 * len(moves)
        world.kernel.schedule_at(at, host.migrate_group, group, dst)
        for j in range(blast):
            clients[0].at(at + j * 0.002, "bcast_update",
                          group, "churn", bytes(size))
        moves.append((group, dst))
    world.run()
    assert all(host.router.route(group) == dst for group, dst in moves), \
        "a migration did not commit"
    committed = [r for r in host.sessions.migration_log
                 if r.outcome == "committed"]
    assert len(committed) == len(moves), host.sessions.migration_log
    freezes_ms = np.array(
        sorted((r.finished - r.started) * 1000.0 for r in committed)
    )

    balanced_kbps, balanced_accepted = _blast(
        world, server, senders, size, duration
    )

    stats = (len(committed),
             float(np.percentile(freezes_ms, 50)),
             float(np.percentile(freezes_ms, 99)),
             sum(r.bytes for r in committed),
             sum(r.buffered for r in committed))
    return [
        MigrationRow("pinned-hot", shards, hot_kbps, hot_accepted,
                     1.0, 0, 0.0, 0.0, 0, 0),
        MigrationRow("rebalanced", shards, balanced_kbps, balanced_accepted,
                     balanced_kbps / hot_kbps, *stats),
    ]


# ---------------------------------------------------------------------------
# Backpressure: bounded outboxes, QoS lanes, coalescing and lag-kick
# ---------------------------------------------------------------------------


@dataclass
class BackpressureRow:
    """One slow-consumer scenario (see ``docs/flow-control.md``)."""

    scenario: str
    #: Deepest any per-connection outbox ever got (frames, both lanes).
    peak_depth: int
    #: Superseded STATE deliveries dropped by key-coalescing.
    coalesced: int
    #: Connections lag-kicked (Disconnect(SLOW_CONSUMER)).
    kicks: int
    #: Control-lane latency at the congested client: how long a
    #: membership notice takes to reach it while bulk traffic saturates
    #: its downlink.
    ctrl_p50_ms: float
    ctrl_p99_ms: float
    #: Notices that reached the slow client (the rest were behind a kick).
    ctrl_received: int
    #: Did the slow client observe NOTIFY_KICKED?
    kicked: bool


#: The flow policy under test: small enough bounds that a 28.8k modem
#: consumer congests within seconds of blast traffic.
_BOUNDED_FLOW = FlowControlConfig(
    max_outbox_frames=256,
    max_outbox_bytes=8 * 1024 * 1024,
    coalesce_watermark=64,
    link_window=0.25,
)

#: Flow control effectively disabled: bounds and watermark too high to
#: ever trip, and a link window so large the sim host commits every frame
#: to the wire immediately (the pre-flow-control behaviour — queueing
#: happens invisibly, in front of control traffic).
_UNBOUNDED_FLOW = FlowControlConfig(
    max_outbox_frames=1_000_000,
    max_outbox_bytes=1 << 40,
    coalesce_watermark=1_000_000,
    link_window=1e9,
)

#: Tiny bounds plus a non-coalescible (UPDATE) blast: overflow cannot be
#: coalesced away, so the slow consumer must be lag-kicked.
_KICK_FLOW = FlowControlConfig(
    max_outbox_frames=16,
    max_outbox_bytes=1 << 20,
    coalesce_watermark=4,
    link_window=0.25,
)


def _backpressure_scenario(
    scenario: str,
    flow: FlowControlConfig,
    blast: str | None,
    blast_count: int,
    blast_interval: float,
    size: int,
    churn_ops: int,
    churn_interval: float,
) -> BackpressureRow:
    """One run: a LAN client blasts a two-member group whose other member
    sits behind a 28.8k modem, while a third LAN client joins and leaves
    the group.  Each churn op emits a MembershipNotice — control-lane
    traffic whose arrival time at the *modem* client is the QoS probe:
    with lanes it overtakes the queued bulk backlog, without them it
    drowns behind it."""
    world = CoronaWorld()
    world.add_segment("modem", MODEM_28_8)
    server = world.add_server(
        profile=ULTRASPARC_1,
        config=ServerConfig(server_id="server", stateful=True),
        flow=flow,
    )
    fast = world.add_client(host_id="blaster", segment="lan", server="server")
    slow = world.add_client(host_id="victim", segment="modem", server="server")
    churn = world.add_client(host_id="churn", segment="lan", server="server")
    world.run()  # single-server world: drains once everyone is connected
    created = fast.call("create_group", "bench", True)
    world.run()
    assert created.ok, f"group creation failed: {created.error}"
    joins = [
        fast.call("join_group", "bench"),
        # notify_membership=True: the membership notices ARE the probe
        slow.call("join_group", "bench", notify_membership=True),
    ]
    world.run()
    assert all(j.ok for j in joins), "not every client joined"
    start = world.now + 0.1

    # Bulk blast: STATE frames rotate over four object ids (each new state
    # supersedes the queued one), UPDATE frames are never droppable.
    if blast is not None:
        method = "bcast_state" if blast == "state" else "bcast_update"

        def _send_blast(i: int) -> None:
            if fast.core.connected:
                fast.call(method, "bench", f"obj-{i % 4}", bytes(size))

        for i in range(blast_count):
            world.kernel.schedule_at(start + i * blast_interval, _send_blast, i)

    # Control-lane probe: membership churn.  Each successful op makes the
    # server notify the remaining members (MembershipNotice, control lane).
    op_times: list[float] = []

    def _churn(i: int) -> None:
        if churn.core.connected:
            op_times.append(world.now)
            if i % 2 == 0:
                churn.call("join_group", "bench")
            else:
                churn.call("leave_group", "bench")

    for i in range(churn_ops):
        world.kernel.schedule_at(start + i * churn_interval, _churn, i)

    world.run()

    notice_times = [
        at for at, kind, _ in slow.events
        if kind == NOTIFY_MEMBERSHIP and at >= start
    ]
    # FIFO per connection: the k-th notice answers the k-th churn op
    # (a kicked client simply stops receiving them).
    latencies = [at - sent for at, sent in zip(notice_times, op_times)]

    stats = server.host.dispatch_stats
    return BackpressureRow(
        scenario=scenario,
        peak_depth=server.host.outbox_peak_depth,
        coalesced=stats.outbox_coalesced,
        kicks=stats.outbox_kicks,
        ctrl_p50_ms=float(np.percentile(latencies, 50)) * 1000.0 if latencies else 0.0,
        ctrl_p99_ms=float(np.percentile(latencies, 99)) * 1000.0 if latencies else 0.0,
        ctrl_received=len(notice_times),
        kicked=any(kind == NOTIFY_KICKED for _, kind, _ in slow.events),
    )


def backpressure(
    blast_count: int = 200,
    blast_interval: float = 0.03,
    size: int = 2000,
    churn_ops: int = 24,
    churn_interval: float = 0.4,
) -> list[BackpressureRow]:
    """Slow-consumer behaviour of the flow-controlled send path.

    Four scenarios on one topology (LAN blaster, modem victim, LAN
    membership churner as the control-lane probe):

    * ``quiet`` — no blast: baseline control-lane notice latency.
    * ``bounded`` — STATE blast under the bounded policy: outbox depth
      plateaus (coalescing), nobody is kicked, control stays fast.
    * ``unbounded`` — same blast with flow control effectively off: the
      wire queue grows without bound and control traffic drowns.
    * ``kick`` — non-coalescible UPDATE blast against tiny bounds: the
      modem client is lag-kicked with ``Disconnect(SLOW_CONSUMER)``.
    """
    common = dict(
        blast_count=blast_count, blast_interval=blast_interval, size=size,
        churn_ops=churn_ops, churn_interval=churn_interval,
    )
    return [
        _backpressure_scenario("quiet", _BOUNDED_FLOW, None, **common),
        _backpressure_scenario("bounded", _BOUNDED_FLOW, "state", **common),
        _backpressure_scenario("unbounded", _UNBOUNDED_FLOW, "state", **common),
        _backpressure_scenario("kick", _KICK_FLOW, "update", **common),
    ]


# ---------------------------------------------------------------------------
# Hot group: optimistic intra-group parallelism vs. conflict rate
# ---------------------------------------------------------------------------


@dataclass
class HotGroupRow:
    """One (conflict rate, execution mode) cell of the hot-group sweep."""

    conflict_pct: int
    exec_lanes: int
    accepted_per_s: float
    elapsed_s: float
    commands_parallel: int
    conflicts: int
    reexecutions: int
    commit_stalls: int
    #: parallel throughput / serial throughput at the same conflict rate
    #: (1.0 on the serial rows themselves)
    speedup: float = 1.0
    #: delivery streams and recovered storage byte-identical to serial
    parity: bool = True


def _hot_group_run(
    exec_lanes: int,
    members: int,
    msgs: int,
    senders: int,
    conflict_pct: int,
    store_root=None,
):
    """One blast against a single hot group; returns (stats, outputs, vt).

    Every send is scheduled at ONE virtual instant so the clients' CPU
    lanes reserve all invoke slots before any inbound delivery lands —
    arrival order at the server (and therefore sequencing) is then
    independent of how fast the server drains, which is what makes the
    serial and parallel delivery streams directly comparable.
    """
    world = CoronaWorld()
    server = world.add_sharded_server(
        config=ServerConfig(server_id="server", exec_lanes=exec_lanes),
        shards=1,
        store_root=store_root,
    )
    clients = [world.add_client(client_id=f"c{i}") for i in range(members)]
    world.run()
    clients[0].call("create_group", "hot", store_root is not None)
    world.run()
    for client in clients:
        client.call("join_group", "hot", notify_membership=False)
    world.run()

    start = world.now + 1.0
    for i in range(msgs):
        # deterministic overlap pattern: pct of the stream hits one hot
        # object id, the rest write distinct ids (no conflicts possible)
        hot = conflict_pct and (i * conflict_pct) % 100 < conflict_pct
        object_id = "hotobj" if hot else f"obj{i}"
        clients[i % senders].at(
            start, "bcast_update", "hot", object_id, bytes([i % 256])
        )
    world.run()

    deliveries = tuple(
        tuple(
            (event.record.seqno, event.record.object_id, event.record.data)
            for _, event in client.deliveries
        )
        for client in clients
    )
    if store_root is not None:
        server.host.crash()  # closes the shard stores, flushing their WALs
    return server.host.dispatch_stats, deliveries, world.now - start


def hot_group(
    members: int = 1000,
    msgs: int = 48,
    senders: int = 8,
    exec_lanes: int = 4,
    conflict_pcts: tuple[int, ...] = (0, 10, 50),
    store_root=None,
) -> list[HotGroupRow]:
    """Accepted msgs/s into one 1000-member group, serial vs. optimistic.

    For each conflict rate the same single-instant blast runs twice —
    ``exec_lanes=0`` (strict serial apply) and ``exec_lanes`` modeled
    execution lanes under the dependency-aware optimistic scheduler —
    and the row pairs report throughput, speedup, and the scheduler
    counters (windows formed, conflicts detected, re-executions,
    commit stalls).  Exact-output parity is asserted per rate: every
    member's delivery stream (seqno, object id, payload) must be
    byte-identical between the two runs, so the speedup is measured
    against *provably* equivalent output.
    """
    rows: list[HotGroupRow] = []
    for run, pct in enumerate(conflict_pcts):
        # persistent runs get disjoint roots so serial vs parallel WALs
        # can be recovered and compared side by side afterwards
        def root(lanes: int):
            if store_root is None:
                return None
            return store_root / f"run{run}-lanes{lanes}"

        serial_stats, serial_out, serial_vt = _hot_group_run(
            0, members, msgs, senders, pct, root(0)
        )
        par_stats, par_out, par_vt = _hot_group_run(
            exec_lanes, members, msgs, senders, pct, root(exec_lanes)
        )
        parity = serial_out == par_out
        # exact-output parity is an invariant, not a statistic: a sweep
        # (including the quick variant) fails loudly on divergence
        assert parity, (
            f"parallel delivery streams diverged from serial at "
            f"{pct}% conflict"
        )
        serial_rate = msgs / serial_vt
        for lanes, stats, vt in ((0, serial_stats, serial_vt),
                                 (exec_lanes, par_stats, par_vt)):
            rows.append(HotGroupRow(
                conflict_pct=pct,
                exec_lanes=lanes,
                accepted_per_s=msgs / vt,
                elapsed_s=vt,
                commands_parallel=stats.commands_parallel,
                conflicts=stats.conflicts,
                reexecutions=stats.reexecutions,
                commit_stalls=stats.commit_stalls,
                speedup=msgs / vt / serial_rate,
                parity=parity,
            ))
    return rows


# ---------------------------------------------------------------------------
# The registry: every experiment, named once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One reproduced result.  Its function's name is its name everywhere
    (``corona-bench <name>``, ``BENCH_<name>.json``) and the function's
    defaults are its full configuration; *quick* shrinks that for
    ``--quick`` and the smoke tests; *gated* puts ``BENCH_<name>.json``
    under ``repro benchcheck``."""

    func: Callable[..., list]
    quick: dict[str, Any] = field(default_factory=dict)
    gated: bool = False

    def run(self, quick: bool = False) -> list:
        return self.func(**(self.quick if quick else {}))


EXPERIMENTS: dict[str, Experiment] = {
    experiment.func.__name__: experiment for experiment in (
        Experiment(fig3, {"client_counts": (5, 20, 40), "probes": 15}, gated=True),
        Experiment(table1, {"duration": 2.0}, gated=True),
        Experiment(table2, {"client_counts": (100, 200), "probes": 4}, gated=True),
        Experiment(multicast_ablation, {"client_counts": (10, 30), "probes": 8}),
        Experiment(server_scaling,
                   {"fanout_counts": (1, 3), "n_clients": 120, "probes": 3}),
        Experiment(msgsize_sweep, {"probes": 10}),
        Experiment(aggregate_throughput, {"duration": 2.0}),
        Experiment(join_latency),
        Experiment(transfer_policies),
        Experiment(state_transfer, gated=True),
        Experiment(join_policy_matrix),
        Experiment(logging_ablation, {"duration": 2.0}),
        Experiment(log_reduction, {"n_updates": 500}),
        Experiment(failover, {"suspicion_timeouts": (0.5,)}),
        Experiment(shard_scaling,
                   {"n_groups": 8, "members": 3, "duration": 1.0}, gated=True),
        Experiment(migration, {"n_groups": 8, "blast": 20}, gated=True),
        Experiment(backpressure, {"blast_count": 80, "churn_ops": 10}, gated=True),
        Experiment(hot_group,
                   {"members": 64, "msgs": 24, "conflict_pcts": (0, 50)}, gated=True),
    )
}
