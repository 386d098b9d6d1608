"""Optimistic-scheduler parity: serial vs parallel in the simulator.

The dependency-aware scheduler (``repro.core.scheduler``) promises that
enabling ``exec_lanes`` changes *when* work happens, never *what* the
service outputs.  One single-sender blast (overlapping object ids, so
real conflicts occur) is driven through two configurations:

* ``exec_lanes=0`` — the strict-serial reference;
* ``exec_lanes=4`` — optimistic windows on modeled CPU lanes.

Every member's delivery stream and the recovered per-shard storage must
be byte-identical across both.  A fixed core clock pins the timestamps
that land in records and on disk, and the single sender pins the
arrival (and therefore sequencing) order.  The asyncio hosts never open
a speculation window, so only the simulator has a parallel side.
"""

from repro.core.server import ServerConfig
from repro.sim.harness import CoronaWorld
from repro.storage.store import GroupStore

N = 24
LANES = 4


class FixedClock:
    def now(self) -> float:
        return 321.5


def _object_id(i):
    # three hot objects -> plenty of same-window collisions
    return f"obj{i % 3}"


def _recover(root):
    store = GroupStore(root / "shard0")
    groups = store.recover_all()
    store.close()
    return {
        name: (rec.meta, rec.checkpoint_seqno, rec.snapshot, rec.records)
        for name, rec in groups.items()
    }


def _drive_sim(root, exec_lanes):
    world = CoronaWorld()
    server = world.add_sharded_server(
        config=ServerConfig(server_id="server", exec_lanes=exec_lanes),
        shards=1,
        store_root=root,
        core_clock=FixedClock(),
    )
    alice = world.add_client(client_id="alice")
    bob = world.add_client(client_id="bob")
    world.run()
    create = alice.call("create_group", "hot", True)
    world.run()
    assert create.ok, create.error
    for client in (alice, bob):
        join = client.call("join_group", "hot")
        world.run()
        assert join.ok, join.error
    # one virtual instant: the client's CPU lane serializes the sends in
    # schedule order, so arrival order is identical on every config
    start = world.now + 1.0
    for i in range(N):
        alice.at(start, "bcast_update", "hot", _object_id(i), bytes([i]))
    world.run()
    streams = tuple(
        tuple(
            (ev.record.seqno, ev.record.object_id, ev.record.data)
            for _, ev in client.deliveries
        )
        for client in (alice, bob)
    )
    stats = server.host.dispatch_stats
    for worker in server.host.workers:
        if worker.store is not None:
            worker.store.close()
    return streams, stats


class TestSchedulerParity:
    def test_parallel_sim_output_equals_serial(self, tmp_path):
        serial_streams, serial_stats = _drive_sim(tmp_path / "s", 0)
        parallel_streams, parallel_stats = _drive_sim(tmp_path / "p", LANES)

        assert parallel_streams == serial_streams
        assert all(len(s) == N for s in serial_streams)
        assert _recover(tmp_path / "p") == _recover(tmp_path / "s")

        # serial config never speculates
        assert serial_stats.commands_parallel == 0
        assert serial_stats.conflicts == serial_stats.reexecutions == 0
        # the parallel config actually did: windows formed, the object
        # overlap produced conflicts, every conflict re-executed
        assert parallel_stats.commands_parallel > 0
        assert parallel_stats.conflicts > 0
        assert parallel_stats.reexecutions == parallel_stats.conflicts

    def test_parallel_sim_is_deterministic(self, tmp_path):
        first = _drive_sim(tmp_path / "one", LANES)
        second = _drive_sim(tmp_path / "two", LANES)
        assert first == second
        assert _recover(tmp_path / "one") == _recover(tmp_path / "two")
