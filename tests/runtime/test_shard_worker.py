"""The asyncio shard worker: a FIFO mailbox on the front's own loop.

What a ``ShardedHost`` does is covered over real TCP elsewhere
(``test_shard_routing.py``, ``test_migration.py``, ``test_shard_parity.py``);
this file pins *how* the driver runs it: no threads, one drain callback
per loop tick per worker, stop/restart process the backlog in order
before the shard's store closes, worker timers fire on the shared loop,
and every worker bounds its WAL loss window like the flat host.
"""

import asyncio
import shutil
import threading
from unittest import mock

from repro.core.interpreter import metrics_middleware
from repro.core.server import ServerConfig
from repro.core.transfer import TransferConfig
from repro.net.flowcontrol import BoundedOutbox
from repro.net.memory import MemoryNetwork
from repro.runtime.client import CoronaClient
from repro.runtime.host import FLUSH_INTERVAL
from repro.runtime.shard import ShardedHost
from repro.storage.store import GroupStore
from repro.wire import codec
from repro.wire.messages import (
    Ack,
    BcastUpdateRequest,
    CreateGroupRequest,
    GetMembershipRequest,
    Hello,
    JoinGroupRequest,
    MembershipReply,
    ObjectState,
    TransferSpec,
)
from tests.runtime.test_host_io import ScriptedConnection, run, ticks, until

SHARDS = 4


async def sharded_host(store_root=None, config=None):
    host = ShardedHost(
        config or ServerConfig(persist=store_root is not None),
        MemoryNetwork(), shards=SHARDS, store_root=store_root,
    )
    await host.listen("srv")
    return host


async def scripted_client(host, client_id):
    """A scripted connection past its handshake; frames reach the front
    the way an accepted socket's decoded chunks do."""
    conn = ScriptedConnection()
    cid = host.adopt_connection(conn)
    host._on_messages(cid, [Hello(client_id)])
    await ticks()
    conn.batches.clear()
    return conn, cid


def _payloads(wal_records):
    return [codec.decode(record).data for _seqno, record in wal_records]


def count_drains(worker):
    calls = []
    drain = worker._drain  # bound before the wrapper shadows it
    worker._drain = lambda: (calls.append(worker.queue_depth()), drain())
    return calls


class TestNoThreads:
    def test_listen_starts_no_thread(self):
        async def main():
            before = threading.active_count()
            host = await sharded_host()
            assert threading.active_count() == before
            assert not [
                t.name for t in threading.enumerate()
                if t.name.startswith("corona-shard-")
            ]
            await host.stop()

        run(main())


class TestOneDrainPerTick:
    def test_a_chunk_for_one_shard_is_one_drain_and_one_write(self):
        async def main():
            host = await sharded_host()
            conn, cid = await scripted_client(host, "alice")
            host._on_messages(cid, [CreateGroupRequest(1, "g")])
            await ticks()
            conn.batches.clear()
            worker = host.workers[host.router.route("g")]
            drains = count_drains(worker)

            n = 12
            host._on_messages(
                cid, [GetMembershipRequest(10 + i, "g") for i in range(n)]
            )
            assert worker.queue_depth() == n and drains == []
            await ticks()
            assert drains == [n], "one callback found the whole chunk queued"
            replies = [m for batch in conn.batches for m in batch]
            assert [type(m) for m in replies] == [MembershipReply] * n
            assert [m.request_id for m in replies] == list(range(10, 10 + n))
            assert len(conn.batches) == 1 < n, "n replies, one socket write"
            await host.stop()

        run(main())

    def test_a_broadcast_is_one_host_fanout_and_no_front_work_however_many_members(self):
        async def main():
            front_effects = {}
            host = ShardedHost(
                ServerConfig(persist=False), MemoryNetwork(), shards=SHARDS,
                middlewares=[metrics_middleware(front_effects)],
            )
            await host.listen("srv")
            members = [await scripted_client(host, f"c{i}") for i in range(5)]
            (_conn0, cid0) = members[0]
            host._on_messages(cid0, [CreateGroupRequest(1, "g")])
            for _conn, cid in members:
                host._on_messages(cid, [JoinGroupRequest(2, "g")])
            await ticks()
            for conn, _cid in members:
                conn.batches.clear()
            front_effects.clear()
            relays, fanouts = [], []
            call_front = host.call_front
            host.call_front = lambda fn, token=0: (relays.append(1), call_front(fn, token))
            deliver_fanout = host.deliver_fanout
            host.deliver_fanout = lambda conns, message: (
                fanouts.append(len(conns)), deliver_fanout(conns, message)
            )[1]

            host._on_messages(cid0, [BcastUpdateRequest(3, "g", "o", b"x")])
            await ticks()
            assert relays == [] and front_effects == {}
            assert fanouts == [5]
            for conn, _cid in members[1:]:
                ((frame,),) = conn.batches
                assert frame.update.data == b"x"
            ((ack, own),) = members[0][0].batches  # control lane first
            assert ack == Ack(3) and own is frame
            await host.stop()

        run(main())

    def test_a_quiet_tick_schedules_no_drain(self):
        async def main():
            host = await sharded_host()
            drains = [count_drains(worker) for worker in host.workers]
            await ticks(10)
            assert drains == [[]] * SHARDS
            await host.stop()

        run(main())


class TestStopDrainsFirst:
    """``stop()`` and ``restart_shard()`` process what was queued, in
    order, before the shard's store closes."""

    @staticmethod
    async def _queue_updates(tmp_path):
        host = await sharded_host(store_root=tmp_path)
        _conn, cid = await scripted_client(host, "alice")
        host._on_messages(cid, [
            CreateGroupRequest(1, "g", persistent=True),
            JoinGroupRequest(2, "g"),
        ])
        await ticks()
        index = host.router.route("g")
        worker = host.workers[index]
        log = []
        process, close = worker.process_item, worker.store.close
        worker.process_item = lambda item: (log.append(item[2].data), process(item))
        worker.store.close = lambda: (log.append("closed"), close())
        host._on_messages(
            cid, [BcastUpdateRequest(10 + i, "g", "o", b"%d" % i) for i in range(5)]
        )
        assert worker.queue_depth() == 5  # queued, no tick has run yet
        return host, index, worker, log

    @staticmethod
    def _recovered(tmp_path, index):
        store = GroupStore(tmp_path / f"shard{index}")
        try:
            return _payloads(store.recover("g").records)
        finally:
            store.close()

    def test_stop_processes_the_backlog_then_closes_the_store(self, tmp_path):
        async def main():
            host, index, worker, log = await self._queue_updates(tmp_path)
            await host.stop()
            assert log == [b"0", b"1", b"2", b"3", b"4", "closed"]
            assert self._recovered(tmp_path, index) == [b"0", b"1", b"2", b"3", b"4"]
            # the drain callback the posts scheduled fires after stop():
            # nothing is left for it, and later posts are ignored
            worker.post(("list", 0, 0))
            await ticks()
            assert worker.queue_depth() == 0 and log[-1] == "closed"

        run(main())

    def test_replies_made_while_stop_drains_reach_no_outbox(self, tmp_path):
        """The backlog runs after the host stopped serving: its Acks and
        deliveries are dropped (and counted), never pushed."""

        async def main():
            host, _index, worker, log = await self._queue_updates(tmp_path)
            drops = worker.interpreter.stats.send_drops
            pushes = []
            push = BoundedOutbox.push

            def recording_push(box, message, *args):
                pushes.append(message)
                return push(box, message, *args)

            with mock.patch.object(BoundedOutbox, "push", recording_push):
                await host.stop()
            assert log[:5] == [b"0", b"1", b"2", b"3", b"4"]
            assert pushes == []
            # per update: the sender's own delivery and its Ack
            assert worker.interpreter.stats.send_drops - drops == 2 * 5

        run(main())

    def test_restart_processes_the_backlog_then_closes_the_store(self, tmp_path):
        async def main():
            host, index, worker, log = await self._queue_updates(tmp_path)
            fresh = host.restart_shard(index)
            assert log == [b"0", b"1", b"2", b"3", b"4", "closed"]
            assert fresh is host.workers[index] is not worker
            assert fresh.recovered_groups == ("g",)
            await ticks()  # the retired worker's pending drain: a no-op
            assert len(log) == 6
            await host.stop()
            assert self._recovered(tmp_path, index) == [b"0", b"1", b"2", b"3", b"4"]

        run(main())


class TestWorkerTimers:
    def test_a_transfer_ttl_fires_on_a_sharded_host(self):
        async def main():
            config = ServerConfig(
                persist=False, transfer=TransferConfig(resume_ttl=0.05)
            )
            host = await sharded_host(config=config)
            _seeder, seeder_id = await scripted_client(host, "seeder")
            state = ObjectState("o", bytes(range(256)) * 1024)
            host._on_messages(
                seeder_id,
                [CreateGroupRequest(1, "g", persistent=True, initial_state=(state,))],
            )
            _joiner, joiner_id = await scripted_client(host, "joiner")
            host._on_messages(joiner_id, [
                JoinGroupRequest(1, "g", transfer=TransferSpec(chunked=True)),
            ])
            await ticks()
            worker = host.workers[host.router.route("g")]
            assert len(worker.core._transfers) == 1  # unacked: stalled
            # the joiner drops mid-transfer: the session pauses under a
            # resume TTL, a timer on the worker (the shared loop's)
            host._drop_connection(joiner_id)
            await until(lambda: worker.interpreter.stats.timers_started == 1)
            assert len(worker.core._transfers) == 1
            await until(lambda: not worker.core._transfers)
            await host.stop()

        run(main())


class TestWorkerFlushTick:
    def test_wal_records_reach_the_file_while_the_host_runs(self, tmp_path):
        """A sharded server bounds its WAL loss window like a flat one:
        a ``kill -9`` more than a flush interval after a broadcast keeps
        it (recovering from a *copy* of the live directory sees what a
        crash would leave behind)."""

        async def main():
            host = await sharded_host(store_root=tmp_path / "live")
            alice = await CoronaClient.connect(
                "srv", "alice", transport=host.transport
            )
            await alice.create_group("g", persistent=True)
            await alice.join_group("g")
            for i in range(5):
                await alice.bcast_update("g", "o", b"%d" % i)
            await asyncio.sleep(2 * FLUSH_INTERVAL)
            index = host.router.route("g")
            crashed = tmp_path / "crashed"
            shutil.copytree(tmp_path / "live" / f"shard{index}", crashed)
            store = GroupStore(crashed)
            records = store.recover_all()["g"].records
            store.close()
            assert _payloads(records) == [b"0", b"1", b"2", b"3", b"4"]
            await alice.close()
            await host.stop()

        run(main())
