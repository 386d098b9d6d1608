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
"""

import asyncio

from repro.core.server import ServerConfig
from repro.net.tcp import TcpTransport
from repro.runtime.client import CoronaClient
from repro.runtime.shard import ShardedHost
from repro.sim.harness import CoronaWorld
from repro.storage.store import GroupStore

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
