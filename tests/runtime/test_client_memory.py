"""A client that joins, leaves and closes leaves no replica behind.

A closed ``CoronaClient`` is held only by reference cycles (host and
interpreter closures, the notify callback), so whatever its core still
points at lives until the cycle collector runs — never, in a process
that runs with ``gc.disable()`` like the benchmark load generator.  The
core therefore drops a group's ``GroupView`` as soon as the server acks
the leave, and every request table is empty once a request has ended,
whether the leave succeeded, failed or timed out.
"""

import asyncio
import gc
from collections import Counter

import pytest

from repro.core.client import GroupView
from repro.core.errors import NoSuchGroupError, RequestTimeoutError
from repro.runtime import CoronaClient, CoronaServer
from repro.wire.messages import Ack, ObjectState, TransferSpec

STATE = bytes(range(256)) * 1024  # 256 KiB: a chunked join really streams
GROUP = "ballast"
CYCLES = 20


def _live_views(besides):
    """Live replicas of the group other than *besides*."""
    return sum(
        1 for obj in gc.get_objects()
        if isinstance(obj, GroupView) and obj.name == GROUP
        and obj is not besides
    )


def _assert_tables_empty(core):
    """Every per-request table of a ``ClientCore`` is empty."""
    tables = {
        name: getattr(core, name)
        for name in ("_pending", "_pending_bcast", "_joins",
                     "_streams", "_unstarted", "_leaving")
    }
    assert not any(tables.values()), tables


@pytest.fixture
def gc_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


async def _serve():
    server = CoronaServer()
    address = await server.start("127.0.0.1", 0)
    owner = await CoronaClient.connect(address, "owner")
    await owner.create_group(GROUP, initial_state=(ObjectState("o", STATE),))
    await owner.join_group(GROUP)  # keeps the group alive between joiners
    return server, address, owner


def test_join_leave_close_cycles_hold_no_replicas(gc_off):
    async def main():
        server, address, owner = await _serve()
        owners = owner.core.views[GROUP]
        live = []
        for cycle in range(CYCLES):
            chunked = cycle % 2 == 1
            client = await CoronaClient.connect(address, f"joiner-{cycle}")
            progress = []
            client.on_transfer_progress(progress.append)
            view = await client.join_group(
                GROUP, transfer=TransferSpec(chunked=chunked)
            )
            assert view.state.get("o").materialized() == STATE
            assert bool(progress) == chunked
            del view
            await client.leave_group(GROUP)
            assert GROUP not in client.core.views
            _assert_tables_empty(client.core)
            await client.close()
            del client, progress
            live.append(_live_views(besides=owners))
        # a closed client pinned its replica until a collection: on the
        # unfixed core this read 1, 2, 3, ... 20
        assert live == [0] * CYCLES, live
        await owner.close()
        await server.stop()

    asyncio.run(asyncio.wait_for(main(), 60))


def test_a_closed_client_is_freed_without_the_cycle_collector(gc_off):
    async def main():
        server, address, owner = await _serve()
        for cycle in range(CYCLES):
            client = await CoronaClient.connect(address, f"joiner-{cycle}")
            client.on_event("delivery", lambda event: None)
            await client.join_group(
                GROUP, transfer=TransferSpec(chunked=cycle % 2 == 1)
            )
            await client.leave_group(GROUP)
            await client.close()
            del client
        await asyncio.sleep(0.05)  # closed transports report in
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            leaked = Counter(
                type(obj).__qualname__ for obj in gc.garbage
                if type(obj).__module__.startswith("repro")
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        # on a client that kept its host, core and callbacks wired up
        # this held the whole stack, CoronaClient down to BoundedOutbox
        assert not leaked, leaked
        await owner.close()
        await server.stop()

    asyncio.run(asyncio.wait_for(main(), 60))


def test_failed_and_timed_out_leaves_leave_no_requests_behind(gc_off):
    async def main():
        server, address, owner = await _serve()

        client = await CoronaClient.connect(address, "failing")
        with pytest.raises(NoSuchGroupError):
            await client.leave_group("nowhere")
        _assert_tables_empty(client.core)
        await client.close()

        client = await CoronaClient.connect(address, "stalled")
        await client.join_group(GROUP)
        client.core.config.request_timeout = 0.2  # read per request
        deliver = client.core.on_message

        def losing_the_leave_ack(conn, message):
            if isinstance(message, Ack) and message.request_id in client.core._leaving:
                return []
            return deliver(conn, message)

        client.core.on_message = losing_the_leave_ack  # looked up per call
        with pytest.raises(RequestTimeoutError):
            await client.leave_group(GROUP)
        _assert_tables_empty(client.core)
        assert GROUP in client.core.views  # the leave failed: keep it
        await client.close()

        await owner.close()
        await server.stop()

    asyncio.run(asyncio.wait_for(main(), 30))
