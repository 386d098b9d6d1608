"""Chunked joins over loopback TCP against a real ``CoronaServer``: on a
fast link the planner's slow start gets a 256 KiB snapshot across in a
handful of ``StateChunk`` frames, and the next join from the same host
starts at the bandwidth the first one measured (docs/protocol.md
§3.5.2).

Counts frames, never time — the wall-clock side is ``benchmarks/real``.
"""

import asyncio
import math

import pytest

from repro.core.transfer import DEFAULT_TRANSFER
from repro.runtime import CoronaClient, CoronaServer
from repro.wire.messages import ObjectState, StateChunk, TransferSpec

STATE = bytes(range(256)) * 1024  # 256 KiB, not one repeated byte


async def _chunked_join(address, client_id):
    """Join "g" chunked as a fresh client; returns the client, its view,
    the chunk sizes it received and its progress events."""
    joiner = await CoronaClient.connect(address, client_id)
    frames, progress = [], []
    deliver = joiner.core.on_message

    def counting(conn, message):
        if isinstance(message, StateChunk):
            frames.append(len(message.data))
        return deliver(conn, message)

    joiner.core.on_message = counting  # the host looks it up per call
    joiner.on_transfer_progress(progress.append)
    view = await asyncio.wait_for(
        joiner.join_group("g", transfer=TransferSpec(chunked=True)), 10
    )
    return joiner, view, frames, progress


def test_256k_chunked_join_takes_a_handful_of_frames():
    async def main():
        server = CoronaServer()
        address = await server.start("127.0.0.1", 0)
        seeder = await CoronaClient.connect(address, "seeder")
        await seeder.create_group("g", initial_state=(ObjectState("o", STATE),))

        full = await CoronaClient.connect(address, "full")
        full_view = await full.join_group("g")

        joiner, view, frames, progress = await _chunked_join(address, "chunked")

        assert server.core.stats.chunked_transfers == 1
        assert 1 <= len(frames) <= 8, frames
        assert sum(frames) == progress[-1].total_bytes > len(STATE)
        assert len(progress) == len(frames)
        assert progress[-1].received_bytes == progress[-1].total_bytes
        assert view.state.get("o").materialized() == STATE
        assert (view.state.get("o").materialized()
                == full_view.state.get("o").materialized())
        assert view.next_seqno == full_view.next_seqno

        for client in (seeder, full, joiner):
            await client.close()
        await server.stop()

    asyncio.run(asyncio.wait_for(main(), 30))


def _link_tables(server):
    """Every peer-host table the server keeps, flat or sharded."""
    if server.shards == 1:
        return [server.core._links, server.core._conn_addr]
    tables = [server.host.sessions._conn_addr]
    for worker in server.host.workers:
        tables += [worker.core._links, worker.core._conn_addr]
    return tables


@pytest.mark.parametrize("shards", [1, 4])
def test_a_second_chunked_join_from_the_host_opens_warm(shards):
    async def main():
        server = CoronaServer(shards=shards)
        address = await server.start("127.0.0.1", 0)
        seeder = await CoronaClient.connect(address, "seeder")
        await seeder.create_group("g", initial_state=(ObjectState("o", STATE),))

        first, _view, cold, _progress = await _chunked_join(address, "first")
        second, view, warm, progress = await _chunked_join(address, "second")

        # cold: the 4 KiB opening window before slow start's first sample
        assert cold[:DEFAULT_TRANSFER.inflight_chunks] == [
            DEFAULT_TRANSFER.initial_chunk_bytes
        ] * DEFAULT_TRANSFER.inflight_chunks
        # warm: "127.0.0.1" measured the link, so the ceiling at once
        total = progress[-1].total_bytes
        assert len(warm) == math.ceil(
            total / DEFAULT_TRANSFER.chunk_ceiling_bytes
        ), warm
        assert sum(warm) == total
        assert view.state.get("o").materialized() == STATE

        for client in (seeder, first, second):
            await client.close()
        for _ in range(200):  # the closes reach every core
            if not any(_link_tables(server)):
                break
            await asyncio.sleep(0.01)
        assert not any(_link_tables(server)), _link_tables(server)
        await server.stop()

    asyncio.run(asyncio.wait_for(main(), 30))
