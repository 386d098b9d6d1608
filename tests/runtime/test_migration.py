"""Live migration on the asyncio runtime, plus the epoch fence.

The sim chaos suite (``tests/sim/test_migration_chaos.py``) exercises
the crash interleavings deterministically; this file pins down the
asyncio side of the same contract over real TCP:

* the commit path — lease and epoch move, delivery resumes on the new
  owner, the source forgets the group;
* the WAL segment handoff — after a migration the *destination's* store
  recovers the group across a crash-restart;
* unwinding — migrating a group that does not exist fails cleanly and
  leaves routing untouched;
* the fence — a command stamped with a stale epoch is rejected with
  ``corona.stale_epoch`` instead of being served by a non-owner, and
  epochs only ever go up.
"""

import asyncio

from repro.core.server import ServerConfig
from repro.net.tcp import TcpTransport
from repro.runtime.client import CoronaClient
from repro.runtime.shard import ShardedHost
from repro.sim.harness import CoronaWorld
from repro.wire.messages import BcastUpdateRequest

SHARDS = 3


async def _wait_idle(host, timeout=5.0):
    """Wait until no migration is in flight on the front loop."""
    deadline = asyncio.get_running_loop().time() + timeout
    while host.sessions.migrations():
        assert asyncio.get_running_loop().time() < deadline, (
            "migration did not settle", host.sessions.migrations(),
        )
        await asyncio.sleep(0.01)


class TestAsyncioMigration:
    def test_commit_path_and_wal_handoff(self, tmp_path):
        async def main():
            host = ShardedHost(
                ServerConfig(server_id="server"),
                TcpTransport(),
                shards=SHARDS,
                store_root=tmp_path,
            )
            address = await host.listen(("127.0.0.1", 0))
            alice = await CoronaClient.connect(address, "alice")
            bob = await CoronaClient.connect(address, "bob")
            group = "mig-live"
            await alice.create_group(group, persistent=True)
            await alice.join_group(group)
            await bob.join_group(group)
            deliveries = []
            bob.on_event(
                "delivery", lambda ev: deliveries.append(ev.record.data)
            )
            await alice.bcast_state(group, "doc", b"base")
            for i in range(3):
                await alice.bcast_update(group, "doc", b"+%d" % i)

            src = host.router.route(group)
            dst = (src + 1) % SHARDS
            host.migrate_group(group, dst)
            await _wait_idle(host)

            # lease and epoch moved exactly once; the runtime moved cores
            assert host.router.route(group) == dst
            assert host.router.lease(group) == dst
            assert host.router.epoch(group) == 1
            assert group in host.workers[dst].core.runtimes
            assert group not in host.workers[src].core.runtimes
            record = host.sessions.migration_log[-1]
            assert record.outcome == "committed"
            assert record.src == src and record.dst == dst
            assert record.bytes > 0
            assert host.dispatch_stats.migrations_out == 1
            assert host.dispatch_stats.migrations_in == 1

            # delivery resumes on the new owner, same stream
            await alice.bcast_update(group, "doc", b"after-migrate")
            await asyncio.sleep(0.05)
            assert deliveries[-1] == b"after-migrate"

            # WAL handoff: the destination's own store now recovers the
            # group across a crash-restart (epoch intact, log intact)
            tip = host.workers[dst].core.runtimes[group].group.log.next_seqno
            host.restart_shard(dst)
            await asyncio.sleep(0.05)
            assert host.router.route(group) == dst
            assert host.router.epoch(group) == 1
            recovered = host.workers[dst].core.runtimes[group]
            assert recovered.group.log.next_seqno == tip
            # sessions were lost in the crash: re-join, then resume
            await alice.join_group(group)
            await alice.bcast_update(group, "doc", b"after-crash")

            await alice.close()
            await bob.close()
            await host.stop()

        asyncio.run(main())

    def test_migrating_missing_group_fails_cleanly(self, tmp_path):
        async def main():
            host = ShardedHost(
                ServerConfig(server_id="server"),
                TcpTransport(),
                shards=SHARDS,
                store_root=tmp_path,
            )
            await host.listen(("127.0.0.1", 0))
            ghost = "never-created"
            src = host.router.route(ghost)
            host.migrate_group(ghost, (src + 1) % SHARDS)
            await _wait_idle(host)
            assert host.router.route(ghost) == src
            assert host.router.lease(ghost) is None
            assert host.router.epoch(ghost) == 0
            assert host.sessions.migration_log[-1].outcome == "failed"
            await host.stop()

        asyncio.run(main())

    def test_epochs_are_monotonic_across_migrations(self, tmp_path):
        async def main():
            host = ShardedHost(
                ServerConfig(server_id="server"),
                TcpTransport(),
                shards=SHARDS,
                store_root=tmp_path,
            )
            address = await host.listen(("127.0.0.1", 0))
            alice = await CoronaClient.connect(address, "alice")
            group = "mig-ring"
            await alice.create_group(group, persistent=True)
            await alice.join_group(group)
            seen = [host.router.epoch(group)]
            for hop in range(1, 4):
                dst = (host.router.route(group) + 1) % SHARDS
                host.migrate_group(group, dst)
                await _wait_idle(host)
                assert host.router.route(group) == dst
                seen.append(host.router.epoch(group))
            assert seen == [0, 1, 2, 3]
            await alice.close()
            await host.stop()

        asyncio.run(main())


class TestEpochFence:
    def test_stale_epoch_command_is_rejected(self):
        """A command stamped before a migration must not be served by
        the new owner at face value: the fence rejects it with
        ``corona.stale_epoch`` and counts the reject."""
        world = CoronaWorld()
        server = world.add_sharded_server(shards=SHARDS)
        alice = world.add_client(client_id="alice")
        world.run()
        group = "fence-0"
        created = alice.call("create_group", group, False)
        world.run()
        assert created.ok
        joined = alice.call("join_group", group)
        world.run()
        assert joined.ok
        host = server.host
        dst = (host.router.route(group) + 1) % SHARDS
        host.migrate_group(group, dst)
        world.run()
        assert host.router.epoch(group) == 1
        # replay a command carrying the pre-migration epoch stamp
        # directly into the new owner's mailbox
        conn = host.sessions._client_conn["alice"]
        stale = BcastUpdateRequest(
            request_id=999_001, group=group, object_id="doc", data=b"stale"
        )
        before = host.dispatch_stats.stale_epoch_rejects
        host.post(dst, ("message", conn, stale, 0))
        world.run()
        assert host.dispatch_stats.stale_epoch_rejects == before + 1
        # decisively: the stale command was NOT applied by the new owner
        log = host.workers[dst].core.runtimes[group].group.log
        assert all(rec.data != b"stale" for rec in log.records())
        # while a current-epoch command still flows
        sent = alice.call("bcast_update", group, "doc", b"fresh")
        world.run()
        assert sent.ok
        assert any(rec.data == b"fresh" for rec in log.records())
