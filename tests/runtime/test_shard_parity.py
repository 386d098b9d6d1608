"""Sharded host parity: one client script, two drivers.

The asyncio driver (:class:`repro.runtime.shard.ShardedHost`) and
the simulator's (:class:`repro.sim.shard.ShardedSimHost`) run the same
:class:`~repro.runtime.sharding.ShardFront`, sessions core, router and
shard workers.  Driving the same serialized script through both —
client requests plus front operations (a committed live migration, then
a second one whose destination is restarted after it installed the
group) — must produce:

* identical aggregated :class:`DispatchStats` (front + every shard),
* identical reply payloads (scatter-gathered ListGroups included),
* identical per-shard recovered storage after a clean stop.

A fixed core clock pins every timestamp that lands in replies or on
disk, so the comparisons are exact.

``TestWireEquivalence`` compares across the other axis: one raw-frame
session against a flat ``AsyncioHost`` and a ``ShardedHost`` on the
asyncio driver must put the same decoded messages, in the same order,
on every client's connection — chunked joins included, so a shard core
must key each connection's link to its peer host exactly as a flat core
does for the second join to open warm on both.
"""

import asyncio
import math
import random

from repro.core.server import ServerConfig, ServerCore
from repro.core.transfer import DEFAULT_TRANSFER
from repro.net.memory import MemoryNetwork
from repro.net.tcp import TcpTransport
from repro.runtime.client import CoronaClient
from repro.runtime.host import AsyncioHost
from repro.runtime.shard import ShardedHost, ShardRouter
from repro.sim.harness import CoronaWorld
from repro.storage.store import GroupStore
from repro.wire.messages import (
    AcquireLockRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    ChunkAck,
    CreateGroupRequest,
    GetMembershipRequest,
    Hello,
    JoinGroupRequest,
    LeaveGroupRequest,
    MembershipReply,
    ObjectState,
    PingRequest,
    ReleaseLockRequest,
    StateChunk,
    TransferSpec,
)

SHARDS = 3
GROUPS = [f"par-g{i}" for i in range(4)]


class FixedClock:
    def now(self) -> float:
        return 123.25


#: (client, method, args) — executed strictly one at a time on both
#: backends; replies to these are compared across backends.
SCRIPT = (
    [("alice", "create_group", (g, True)) for g in GROUPS]
    + [("alice", "join_group", (g,)) for g in GROUPS]
    + [
        ("bob", "join_group", (GROUPS[0],)),
        ("bob", "join_group", (GROUPS[2],)),
        ("alice", "bcast_state", (GROUPS[0], "doc", b"base")),
        ("alice", "bcast_update", (GROUPS[0], "doc", b"+1")),
        ("bob", "bcast_update", (GROUPS[2], "doc", b"hello")),
        ("alice", "list_groups", ()),
        ("bob", "get_membership", (GROUPS[0],)),
        ("bob", "leave_group", (GROUPS[0],)),
        ("alice", "delete_group", (GROUPS[3],)),
        # front operations (client "@front"): the shard arguments are
        # offsets from the group's current owner
        ("@front", "migrate", (GROUPS[1], 1)),
        ("alice", "bcast_update", (GROUPS[1], "doc", b"moved")),
        # the destination installs the group, then is restarted before
        # the front commits: the migration aborts back to the owner, and
        # the restarted shard finds a copy in its store whose lease
        # points elsewhere — a stale replica it must discard
        ("@front", "migrate_restart_dst", (GROUPS[1], 1)),
        ("alice", "bcast_update", (GROUPS[1], "doc", b"still here")),
        ("alice", "list_groups", ()),
    ]
)


def _normalize(method, value):
    """Reply payloads as comparable primitives (GroupView has no __eq__)."""
    if method == "join_group":
        return (
            value.name,
            value.next_seqno,
            tuple((m.client_id, m.role) for m in value.members),
            value.role,
        )
    return value


def _recover_shards(root):
    recovered = {}
    for index in range(SHARDS):
        store = GroupStore(root / f"shard{index}")
        groups = store.recover_all()
        store.close()
        recovered[index] = {
            name: (rec.meta, rec.checkpoint_seqno, rec.snapshot, rec.records)
            for name, rec in groups.items()
        }
    return recovered


def _drive_asyncio(root):
    async def main():
        host = ShardedHost(
            ServerConfig(server_id="server"),
            TcpTransport(),
            shards=SHARDS,
            store_root=root,
            core_clock=FixedClock(),
        )
        address = await host.listen(("127.0.0.1", 0))
        clients = {
            name: await CoronaClient.connect(address, name)
            for name in ("alice", "bob")
        }
        replies = []
        for name, method, args in SCRIPT:
            if name == "@front":
                group, offset = args
                dst = (host.router.route(group) + offset) % SHARDS
                host.migrate_group(group, dst)
                if method == "migrate_restart_dst":
                    # step the loop exactly as the sim leg steps its
                    # kernel: the destination's drain installs the group
                    # one tick before its migration_installed event
                    # (its own callback) would commit the move
                    for _ in range(100):
                        if group in host.workers[dst].owned_groups:
                            break
                        await asyncio.sleep(0)
                    else:
                        raise AssertionError("destination never installed")
                    host.restart_shard(dst)
                while host.sessions.migrations():
                    await asyncio.sleep(0.01)
                replies.append(_front_outcome(host))
                continue
            result = await getattr(clients[name], method)(*args)
            replies.append(_normalize(method, result))
        # replies are answered before trailing membership notifications
        # finish relaying through the front loop: let the pipeline drain,
        # then snapshot before closing (disconnects race the shutdown)
        await asyncio.sleep(0.3)
        stats = host.dispatch_stats
        for client in clients.values():
            await client.close()
        await host.stop()
        return stats, replies

    return asyncio.run(main())


def _front_outcome(host):
    record = host.sessions.migration_log[-1]
    return ("@front", record.group, record.outcome, host.router.epoch(record.group))


def _drive_sim(root):
    world = CoronaWorld()
    server = world.add_sharded_server(
        config=ServerConfig(server_id="server"),
        shards=SHARDS,
        store_root=root,
        core_clock=FixedClock(),
    )
    clients = {name: world.add_client(client_id=name) for name in ("alice", "bob")}
    world.run()
    host = server.host
    replies = []
    for name, method, args in SCRIPT:
        if name == "@front":
            group, offset = args
            dst = (host.router.route(group) + offset) % SHARDS
            host.migrate_group(group, dst)
            if method == "migrate_restart_dst":
                while group not in host.workers[dst].owned_groups:
                    assert world.kernel.step(), "destination never installed"
                host.restart_shard(dst)
            world.run()
            replies.append(_front_outcome(host))
            continue
        call = clients[name].call(method, *args)
        world.run()
        assert call.ok, f"{method}{args} failed: {call.error}"
        replies.append(_normalize(method, call.value))
    stats = host.dispatch_stats
    for worker in host.workers:
        if worker.store is not None:
            worker.store.close()
    return stats, replies


class TestShardedParity:
    def test_stats_replies_and_storage_match(self, tmp_path):
        a_stats, a_replies = _drive_asyncio(tmp_path / "a")
        s_stats, s_replies = _drive_sim(tmp_path / "s")

        # DispatchStats is a dataclass: one comparison covers every
        # counter of the front interpreter plus all three shards'.
        assert a_stats == s_stats
        # every reply payload matches, including the merged ListGroups
        # (scatter-gather must be order-deterministic) and membership
        assert a_replies == s_replies
        # the same groups recovered from the same shards, byte for byte
        a_rec = _recover_shards(tmp_path / "a")
        s_rec = _recover_shards(tmp_path / "s")
        assert a_rec == s_rec
        persisted = [name for shard in a_rec.values() for name in shard]
        assert sorted(persisted) == GROUPS[:3], (
            "deleted group purged, migrated group stored exactly once"
        )
        # the front operations did what the script says, on both drivers
        fronts = [r for r in a_replies if isinstance(r, tuple) and r[:1] == ("@front",)]
        assert [r[1:] for r in fronts] == [
            (GROUPS[1], "committed", 1), (GROUPS[1], "aborted", 1),
        ]
        assert a_stats.migrations_in == 2 and a_stats.migration_aborts == 1

    def test_sim_script_is_deterministic(self, tmp_path):
        first_stats, first_replies = _drive_sim(tmp_path / "one")
        second_stats, second_replies = _drive_sim(tmp_path / "two")
        assert first_stats == second_stats
        assert first_replies == second_replies
        assert _recover_shards(tmp_path / "one") == _recover_shards(tmp_path / "two")


# ---------------------------------------------------------------------------
# flat vs sharded, on the wire
# ---------------------------------------------------------------------------

WIRE_SHARDS = 4


def _groups_on_distinct_shards(count):
    router = ShardRouter(WIRE_SHARDS)
    picked = {}
    for i in range(100):
        name = f"wire-g{i}"
        picked.setdefault(router.natural(name), name)
        if len(picked) == count:
            return [picked[shard] for shard in sorted(picked)]
    raise AssertionError("no names spanning enough shards")


WIRE_GROUPS = _groups_on_distinct_shards(3)
#: A 256 KiB group joined chunked, twice, from the one peer host every
#: in-memory connection shares.
WIRE_BIG = "wire-big"
WIRE_BALLAST = bytes(range(256)) * 1024
WIRE_MEMBERS = {
    "alice": WIRE_GROUPS[:2],
    "bob": [WIRE_GROUPS[0], WIRE_GROUPS[2]],
    "carol": WIRE_GROUPS,
}


def _wire_script():
    """``(client, request)`` steps, then ``("wait", client, rid)``: the
    session reads *client*'s stream up to the reply to *rid*.  Every
    request but the contended lock waits for its reply at once."""
    rid = iter(range(1, 10_000))
    steps = []

    def ask(client, make, wait=True):
        request = make(next(rid))
        steps.append((client, request))
        if wait:
            steps.append(("wait", client, request.request_id))
        return request.request_id

    g0, g1, g2 = WIRE_GROUPS
    for group in WIRE_GROUPS:
        ask("alice", lambda r, g=group: CreateGroupRequest(r, g))
    for client, groups in WIRE_MEMBERS.items():
        for group in groups:
            ask(client, lambda r, g=group: JoinGroupRequest(
                r, g, notify_membership=True))
    rng = random.Random(34)
    for i in range(50):
        client = rng.choice(sorted(WIRE_MEMBERS))
        group = rng.choice(WIRE_MEMBERS[client])
        kind = rng.choice([BcastUpdateRequest, BcastStateRequest])
        obj, data = f"o{rng.randrange(3)}", b"%d" % i
        ask(client, lambda r: kind(r, group, obj, data))
    # ("transfer", client): read the chunk stream to its last chunk,
    # acking each chunk on arrival as a client core does; the group-
    # routed barrier queues behind the last ack, so the next join sees
    # the transfer done
    ask("alice", lambda r: CreateGroupRequest(
        r, WIRE_BIG, initial_state=(ObjectState("o", WIRE_BALLAST),)))
    for client in ("alice", "bob"):
        ask(client, lambda r: JoinGroupRequest(
            r, WIRE_BIG, transfer=TransferSpec(chunked=True)), wait=False)
        steps.append(("transfer", client))
        ask(client, lambda r: GetMembershipRequest(r, WIRE_BIG))
    for client in ("bob", "alice"):
        ask(client, lambda r: LeaveGroupRequest(r, WIRE_BIG))
    ask("alice", lambda r: AcquireLockRequest(r, g0, "o0"))
    # bob blocks behind alice's lock: granted when she releases it
    queued = ask("bob", lambda r: AcquireLockRequest(r, g0, "o0"), wait=False)
    ask("alice", lambda r: ReleaseLockRequest(r, g0, "o0"))
    steps.append(("wait", "bob", queued))
    ask("bob", lambda r: ReleaseLockRequest(r, g0, "o0"))
    ask("bob", lambda r: LeaveGroupRequest(r, g0))
    # carol closes while in one group only: a close that spans shards
    # emits each shard's notices from its own mailbox, ordered per group
    # (the paper's guarantee) but not across groups as a flat core's
    # single pass orders them
    for group in (g1, g2):
        ask("carol", lambda r, g=group: LeaveGroupRequest(r, g))
    steps.append(("close", "carol"))
    # the barrier is group-routed, so on a sharded server it queues
    # behind the close in the owning shard's mailbox (a Ping, answered
    # by the front itself, could overtake the left notice)
    ask("alice", lambda r: GetMembershipRequest(r, g0))
    ask("bob", lambda r: GetMembershipRequest(r, g2))
    return steps


WIRE_SCRIPT = _wire_script()


async def _read_until(conn, stream, rid):
    while True:
        message = await conn.receive()
        assert message is not None, f"connection closed before reply {rid}"
        stream.append(message)
        if getattr(message, "request_id", None) == rid:
            return


async def _read_transfer(conn, stream):
    while True:
        message = await conn.receive()
        assert message is not None, "connection closed mid-transfer"
        stream.append(message)
        if type(message) is StateChunk:
            await conn.send(ChunkAck(
                message.group, message.transfer_id,
                message.offset + len(message.data),
            ))
            if message.last:
                return


class StepClock:
    """Moves 1 µs per reading: the script is serial, so both hosts read
    it in the same order and a transfer's bandwidth samples — hence its
    chunk plan — come out identical, and non-zero."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        self._now += 1e-6
        return self._now


def _drive_wire(sharded):
    async def main():
        net = MemoryNetwork()
        config = ServerConfig(server_id="server", persist=False)
        if sharded:
            host = ShardedHost(
                config, net, shards=WIRE_SHARDS, core_clock=StepClock()
            )
        else:
            host = AsyncioHost(ServerCore(config, clock=StepClock()), net)
        await host.listen("srv")
        conns, streams = {}, {}
        for client in WIRE_MEMBERS:
            conns[client] = await net.dial("srv")
            streams[client] = []
            await conns[client].send(Hello(client))
            streams[client].append(await conns[client].receive())
        for step in WIRE_SCRIPT:
            if step[0] == "wait":
                _, client, rid = step
                await _read_until(conns[client], streams[client], rid)
            elif step[0] == "transfer":
                await _read_transfer(conns[step[1]], streams[step[1]])
            elif step[0] == "close":
                await conns[step[1]].close()
            else:
                client, request = step
                await conns[client].send(request)
        await host.stop()
        return streams

    return asyncio.run(asyncio.wait_for(main(), 20))


class TestWireEquivalence:
    def test_flat_and_sharded_servers_send_the_same_streams(self):
        router = ShardRouter(WIRE_SHARDS)
        assert len({router.route(g) for g in WIRE_GROUPS}) == len(WIRE_GROUPS)
        flat = _drive_wire(sharded=False)
        sharded = _drive_wire(sharded=True)
        for client in WIRE_MEMBERS:
            assert sharded[client] == flat[client], client
        # the first chunked join starts cold, the second opens at the
        # link the first measured: the ceiling chunk and a short tail
        cold, warm = (
            [len(m.data) for m in flat[client] if type(m) is StateChunk]
            for client in ("alice", "bob")
        )
        assert cold[0] == DEFAULT_TRANSFER.initial_chunk_bytes
        assert sum(cold) == sum(warm) > len(WIRE_BALLAST)
        assert len(warm) == math.ceil(
            sum(warm) / DEFAULT_TRANSFER.chunk_ceiling_bytes
        ) < len(cold)
        # the session did what it says: broadcasts fanned out, carol's
        # leaves and close reached the others, each stream ends at its
        # barrier, and the barrier no longer lists carol
        # (carol is in every group, so every broadcast reached her)
        assert sum(type(m).__name__ == "Delivery" for m in flat["carol"]) == 50
        for client in ("alice", "bob"):
            *_, notice, barrier = flat[client]
            assert type(notice).__name__ == "MembershipNotice"
            assert [info.client_id for info in notice.left] == ["carol"]
            assert type(barrier) is MembershipReply
            assert "carol" not in [info.client_id for info in barrier.members]
