"""Reconnection over the asyncio runtime: the server restarts, the
auto-reconnect client resynchronizes from stable storage."""

import asyncio

from repro.net.memory import MemoryNetwork
from repro.runtime import CoronaClient, CoronaServer
from repro.storage.store import GroupStore


def test_client_survives_server_restart(tmp_path):
    async def main():
        net = MemoryNetwork()
        server = CoronaServer(store=GroupStore(tmp_path / "d"), transport=net)
        await server.start("corona", 0)

        client = await CoronaClient.connect(
            ("corona", 0), "resilient", transport=net,
            auto_reconnect=True, reconnect_backoff=0.05,
        )
        await client.create_group("g", persistent=True)
        await client.join_group("g")
        await client.bcast_update("g", "doc", b"pre;")

        dropped = asyncio.Event()
        rejoined = asyncio.Event()
        client.on_event("disconnected", lambda _p: dropped.set())
        client.on_event("rejoined", lambda _v: rejoined.set())

        await server.stop()
        await asyncio.wait_for(dropped.wait(), 5)

        # restart on the same address, recovering the group from disk
        server2 = CoronaServer(store=GroupStore(tmp_path / "d"), transport=net)
        await server2.start("corona", 0)
        await asyncio.wait_for(rejoined.wait(), 10)

        assert client.view("g").state.get("doc").materialized() == b"pre;"
        await client.bcast_update("g", "doc", b"post;")
        await asyncio.sleep(0.1)
        assert client.view("g").state.get("doc").materialized() == b"pre;post;"

        await client.close()
        await server2.stop()

    asyncio.run(main())


def test_reconnect_is_opt_in(tmp_path):
    async def main():
        net = MemoryNetwork()
        server = CoronaServer(transport=net)
        await server.start("corona", 0)
        client = await CoronaClient.connect(("corona", 0), "plain", transport=net)
        dropped = asyncio.Event()
        client.on_event("disconnected", lambda _p: dropped.set())
        await server.stop()
        await asyncio.wait_for(dropped.wait(), 5)
        await asyncio.sleep(0.3)
        assert not client.core.connected  # no redial attempts
        await client.close()

    asyncio.run(main())


def test_a_left_group_is_not_rejoined_over_tcp():
    async def main():
        server = CoronaServer()
        address = await server.start("127.0.0.1", 0)
        owner = await CoronaClient.connect(address, "owner")
        for group in ("kept", "left"):
            await owner.create_group(group)
            await owner.join_group(group)  # keeps the group alive

        client = await CoronaClient.connect(
            address, "resilient", auto_reconnect=True, reconnect_backoff=0.05,
        )
        await client.join_group("kept")
        await client.join_group("left")
        await client.leave_group("left")
        rejoined = []
        back = asyncio.Event()
        client.on_event("rejoined", lambda view: rejoined.append(view.name))
        client.on_event("rejoined", lambda _view: back.set())

        server.host.close_connection(server.core._client_conn["resilient"])
        await asyncio.wait_for(back.wait(), 10)
        # sent after every rejoin the reconnect issued, so answered after
        members = await client.get_membership("left")

        assert rejoined == ["kept"]
        assert "resilient" not in {m.client_id for m in members}
        assert set(client.core.views) == {"kept"}

        for c in (client, owner):
            await c.close()
        await server.stop()

    asyncio.run(asyncio.wait_for(main(), 30))
