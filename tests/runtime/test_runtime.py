"""Integration tests for the asyncio runtime (memory transport)."""

import asyncio

import pytest

from repro.core.errors import GroupExistsError, NoSuchGroupError
from repro.core.server import ServerConfig
from repro.net.memory import MemoryNetwork
from repro.runtime import CoronaClient, CoronaServer
from repro.storage.store import GroupStore
from repro.wire.messages import ObjectState, TransferPolicy, TransferSpec


def run(coro):
    return asyncio.run(coro)


async def _deployment(net, store=None, name="corona"):
    server = CoronaServer(store=store, transport=net)
    await server.start(name, 0)
    return server


class TestBasics:
    def test_connect_and_ping(self):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            async with await CoronaClient.connect(("corona", 0), "alice", transport=net) as alice:
                server_time = await alice.ping()
                assert isinstance(server_time, float)
            await server.stop()

        run(main())

    def test_create_join_bcast(self):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            bob = await CoronaClient.connect(("corona", 0), "bob", transport=net)
            await alice.create_group("room", initial_state=(ObjectState("doc", b"v0:"),))
            await alice.join_group("room")
            await bob.join_group("room")

            got = asyncio.Event()
            bob.on_event("delivery", lambda ev: got.set())
            await alice.bcast_update("room", "doc", b"edit")
            await asyncio.wait_for(got.wait(), 2)
            assert bob.view("room").state.get("doc").materialized() == b"v0:edit"
            await alice.close()
            await bob.close()
            await server.stop()

        run(main())

    def test_error_surfaces_as_exception(self):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            with pytest.raises(NoSuchGroupError):
                await alice.join_group("ghost")
            await alice.create_group("g")
            with pytest.raises(GroupExistsError):
                await alice.create_group("g")
            await alice.close()
            await server.stop()

        run(main())

    def test_membership_and_listing(self):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            bob = await CoronaClient.connect(("corona", 0), "bob", transport=net)
            await alice.create_group("g", persistent=True)
            await alice.join_group("g", notify_membership=True)

            noticed = asyncio.Event()
            alice.on_event("membership", lambda n: noticed.set())
            await bob.join_group("g")
            await asyncio.wait_for(noticed.wait(), 2)

            members = await alice.get_membership("g")
            assert sorted(m.client_id for m in members) == ["alice", "bob"]
            groups = await alice.list_groups()
            assert [g.name for g in groups] == ["g"]
            await alice.close()
            await bob.close()
            await server.stop()

        run(main())

    def test_locks(self):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            bob = await CoronaClient.connect(("corona", 0), "bob", transport=net)
            await alice.create_group("g")
            await alice.join_group("g")
            await bob.join_group("g")
            await alice.acquire_lock("g", "o")
            waiter = asyncio.create_task(bob.acquire_lock("g", "o"))
            await asyncio.sleep(0.05)
            assert not waiter.done()
            await alice.release_lock("g", "o")
            assert await asyncio.wait_for(waiter, 2) == "o"
            await alice.close()
            await bob.close()
            await server.stop()

        run(main())

    def test_transfer_policy(self):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            await alice.create_group("g", persistent=True)
            await alice.join_group("g")
            for i in range(5):
                await alice.bcast_update("g", "doc", b"%d" % i)
            late = await CoronaClient.connect(("corona", 0), "late", transport=net)
            view = await late.join_group(
                "g", transfer=TransferSpec(policy=TransferPolicy.LATEST_N, last_n=2)
            )
            assert view.state.get("doc").materialized() == b"34"
            await alice.close()
            await late.close()
            await server.stop()

        run(main())


class TestPersistence:
    def test_restart_recovers_groups(self, tmp_path):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net, store=GroupStore(tmp_path / "d"))
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            await alice.create_group("g", persistent=True)
            await alice.join_group("g")
            await alice.bcast_update("g", "doc", b"durable")
            await alice.close()
            await server.stop()

            server2 = await _deployment(
                net, store=GroupStore(tmp_path / "d"), name="corona2"
            )
            assert server2.recovered_groups == 1
            carol = await CoronaClient.connect(("corona2", 0), "carol", transport=net)
            view = await carol.join_group("g")
            assert view.state.get("doc").materialized() == b"durable"
            await carol.close()
            await server2.stop()

        run(main())

    def test_sharded_restart_reports_recovered_groups(self, tmp_path):
        # what `corona-server --shards N --data D` prints after a restart
        async def main():
            net = MemoryNetwork()
            server = CoronaServer(shards=3, store_root=tmp_path, transport=net)
            await server.start("corona", 0)
            assert server.recovered_groups == 0
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            for name in ("g0", "g1", "g2", "g3"):
                await alice.create_group(name, persistent=True)
            await alice.close()
            await server.stop()

            server2 = CoronaServer(shards=3, store_root=tmp_path, transport=net)
            await server2.start("corona2", 0)
            assert server2.recovered_groups == 4
            await server2.stop()

        run(main())

    def test_the_callers_config_is_not_mutated(self, tmp_path):
        config = ServerConfig()
        assert config.persist
        memory_only = CoronaServer(config=config)
        assert not memory_only.config.persist and config.persist
        durable = CoronaServer(config=config, store=GroupStore(tmp_path / "d"))
        assert durable.config is config

    def test_client_disconnect_removes_membership(self, tmp_path):
        async def main():
            net = MemoryNetwork()
            server = await _deployment(net)
            alice = await CoronaClient.connect(("corona", 0), "alice", transport=net)
            bob = await CoronaClient.connect(("corona", 0), "bob", transport=net)
            await alice.create_group("g", persistent=True)
            await alice.join_group("g", notify_membership=True)
            await bob.join_group("g")

            left = asyncio.Event()
            alice.on_event("membership", lambda n: left.set() if n.left else None)
            await bob.close()  # abrupt disconnect = fail-stop client
            await asyncio.wait_for(left.wait(), 2)
            members = await alice.get_membership("g")
            assert [m.client_id for m in members] == ["alice"]
            await alice.close()
            await server.stop()

        run(main())


class TestTcpTransport:
    def test_over_real_sockets(self):
        async def main():
            server = CoronaServer()
            host, port = await server.start("127.0.0.1", 0)
            alice = await CoronaClient.connect((host, port), "alice")
            bob = await CoronaClient.connect((host, port), "bob")
            await alice.create_group("g")
            await alice.join_group("g")
            await bob.join_group("g")
            got = asyncio.Event()
            bob.on_event("delivery", lambda ev: got.set())
            await alice.bcast_update("g", "o", b"over-tcp")
            await asyncio.wait_for(got.wait(), 5)
            assert bob.view("g").state.get("o").materialized() == b"over-tcp"
            await alice.close()
            await bob.close()
            await server.stop()

        run(main())
