"""A chunked join over loopback TCP against a real ``CoronaServer``:
on a fast link the planner's slow start gets a 256 KiB snapshot across
in a handful of ``StateChunk`` frames (docs/protocol.md §3.5.2).

Counts frames, never time — the wall-clock side is ``benchmarks/real``.
"""

import asyncio

from repro.runtime import CoronaClient, CoronaServer
from repro.wire.messages import ObjectState, StateChunk, TransferSpec

STATE = bytes(range(256)) * 1024  # 256 KiB, not one repeated byte


def test_256k_chunked_join_takes_a_handful_of_frames():
    async def main():
        server = CoronaServer()
        address = await server.start("127.0.0.1", 0)
        seeder = await CoronaClient.connect(address, "seeder")
        await seeder.create_group("g", initial_state=(ObjectState("o", STATE),))

        full = await CoronaClient.connect(address, "full")
        full_view = await full.join_group("g")

        joiner = await CoronaClient.connect(address, "chunked")
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
