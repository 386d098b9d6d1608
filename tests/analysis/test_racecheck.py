"""Vector-clock happens-before checker: unit traces, the recorder and
its interpreter middleware, serialization, and the instrumented sharded
sim world (clean run + deliberately injected race)."""

from __future__ import annotations

from repro.analysis.racecheck import (
    RaceEvent,
    RaceRecorder,
    check_race_trace,
    events_from_jsonl,
    events_to_jsonl,
    inject_race,
    seeded_sharded_trace,
)


def ids(findings):
    return [f.rule_id for f in findings]


class TestCheckRaceTrace:
    def test_token_hop_orders_cross_lane_accesses(self):
        events = [
            RaceEvent("front", "write", "wal:g"),
            RaceEvent("front", "send", "mbox:shard0", token=1),
            RaceEvent("shard0", "recv", "mbox:shard0", token=1),
            RaceEvent("shard0", "write", "wal:g"),
        ]
        assert check_race_trace(events) == []

    def test_unordered_write_write_is_a_race(self):
        events = [
            RaceEvent("shard0", "write", "wal:g"),
            RaceEvent("shard1", "write", "wal:g"),
        ]
        findings = check_race_trace(events)
        assert ids(findings) == ["RACE001"]
        assert "wal:g" in findings[0].message

    def test_unordered_read_write_is_a_race(self):
        events = [
            RaceEvent("shard0", "read", "frame:1"),
            RaceEvent("shard1", "write", "frame:1"),
        ]
        assert ids(check_race_trace(events)) == ["RACE001"]

    def test_read_read_is_not_a_race(self):
        events = [
            RaceEvent("shard0", "read", "frame:1"),
            RaceEvent("shard1", "read", "frame:1"),
        ]
        assert check_race_trace(events) == []

    def test_same_lane_accesses_are_program_ordered(self):
        events = [
            RaceEvent("shard0", "write", "wal:g"),
            RaceEvent("shard0", "write", "wal:g"),
            RaceEvent("shard0", "read", "wal:g"),
        ]
        assert check_race_trace(events) == []

    def test_racy_hot_loop_reports_once_per_lane_pair(self):
        events = [
            RaceEvent("shard0", "write", "wal:g"),
            RaceEvent("shard1", "write", "wal:g"),
            RaceEvent("shard0", "write", "wal:g"),
            RaceEvent("shard1", "write", "wal:g"),
        ]
        assert len(check_race_trace(events)) == 1

    def test_transitive_ordering_through_relay(self):
        # shard0 -> front -> shard1: the relayed clock orders the ends
        events = [
            RaceEvent("shard0", "write", "wal:g"),
            RaceEvent("shard0", "send", "mbox:front", token=1),
            RaceEvent("front", "recv", "mbox:front", token=1),
            RaceEvent("front", "send", "mbox:shard1", token=2),
            RaceEvent("shard1", "recv", "mbox:shard1", token=2),
            RaceEvent("shard1", "write", "wal:g"),
        ]
        assert check_race_trace(events) == []


class TestRecorder:
    def test_send_tokens_are_unique_and_events_ordered(self):
        recorder = RaceRecorder()
        t1 = recorder.send("front", "mbox:shard0")
        t2 = recorder.send("front", "mbox:shard1")
        recorder.recv("shard0", "mbox:shard0", t1)
        assert t1 != t2
        kinds = [e.kind for e in recorder.events()]
        assert kinds == ["send", "send", "recv"]

    def test_middleware_records_wal_and_frame_traffic(self):
        class AppendWal:
            group = "g7"

        class SendMessage:
            def __init__(self, message):
                self.message = message

        class Msg:
            pass

        recorder = RaceRecorder()
        mw = recorder.middleware("front")
        passed = []
        msg = Msg()
        mw(AppendWal(), passed.append)
        mw(SendMessage(msg), passed.append)       # first encode: write
        msg._corona_wire_frame = b"cached"
        mw(SendMessage(msg), passed.append)       # cached frame: read
        events = recorder.events()
        assert [e.kind for e in events] == ["write", "write", "read"]
        assert events[0].obj == "wal:g7"
        assert events[1].obj == events[2].obj
        assert len(passed) == 3  # middleware always forwards

    def test_middleware_records_a_fanouts_frame_fill(self):
        """Every broadcast's first encode happens under its SendFanout:
        drop that name from the middleware and the frame-cache *write*
        vanishes from the trace, leaving reads nothing to race with."""
        class SendFanout:
            def __init__(self, conns, message):
                self.conns, self.message = conns, message

        class SendMessage:
            def __init__(self, message):
                self.message = message

        class Msg:
            pass

        recorder = RaceRecorder()
        mw = recorder.middleware("front")
        msg = Msg()
        mw(SendFanout((1, 2, 3), msg), lambda e: None)  # first encode: write
        msg._corona_wire_frame = b"cached"
        mw(SendMessage(msg), lambda e: None)            # a replay: read
        events = recorder.events()
        assert [(e.kind, e.loc) for e in events] == [
            ("write", "SendFanout"), ("read", "SendMessage"),
        ]
        assert events[0].obj == events[1].obj


class TestSerialization:
    def test_jsonl_roundtrip(self):
        events = [
            RaceEvent("front", "send", "mbox:shard0", token=3, loc="post"),
            RaceEvent("shard0", "recv", "mbox:shard0", token=3),
            RaceEvent("shard0", "write", "wal:g", loc="AppendWal"),
        ]
        assert events_from_jsonl(events_to_jsonl(events)) == events


class TestInjectRace:
    def test_injected_pair_is_always_caught(self):
        base = [
            RaceEvent("front", "send", "mbox:shard0", token=1),
            RaceEvent("shard0", "recv", "mbox:shard0", token=1),
            RaceEvent("shard0", "write", "wal:g"),
        ]
        assert check_race_trace(base) == []
        findings = check_race_trace(inject_race(base))
        assert any("injected:frame" in f.message for f in findings)

    def test_injection_on_empty_trace_uses_fallback_lanes(self):
        findings = check_race_trace(inject_race([]))
        assert any("injected:frame" in f.message for f in findings)


class TestSeededShardedTrace:
    def test_instrumented_sharded_world_is_race_free(self, tmp_path):
        events = seeded_sharded_trace(store_root=tmp_path, shards=3)
        lanes = {e.lane for e in events}
        assert "front" in lanes
        assert any(lane.startswith("shard") for lane in lanes)
        kinds = {e.kind for e in events}
        assert {"send", "recv", "write"} <= kinds
        assert check_race_trace(events) == []

    def test_injected_race_is_detected_in_real_trace(self):
        events = seeded_sharded_trace()
        findings = check_race_trace(inject_race(events))
        assert ids(findings) == ["RACE001"]
        assert "injected:frame" in findings[0].message


# --------------------------------------------------------------------------
# scheduler execution lanes (optimistic intra-group parallelism)
# --------------------------------------------------------------------------

def _scheduler_trace(exec_lanes=4, msgs=12):
    """An instrumented parallel-scheduler burst on the sharded sim."""
    from repro.core.server import ServerConfig
    from repro.sim.harness import CoronaWorld

    recorder = RaceRecorder()
    world = CoronaWorld()
    world.add_sharded_server(
        config=ServerConfig(server_id="server", exec_lanes=exec_lanes),
        shards=1,
        race_recorder=recorder,
    )
    alice = world.add_client(client_id="alice")
    bob = world.add_client(client_id="bob")
    world.run()
    for client in (alice, bob):
        call = client.call("create_group", "sched-g", False) if client is alice \
            else client.call("join_group", "sched-g")
        world.run()
        assert call.ok
    join = alice.call("join_group", "sched-g")
    world.run()
    assert join.ok
    start = world.now + 1.0
    for i in range(msgs):
        alice.at(start, "bcast_update", "sched-g", f"obj{i % 3}", bytes([i]))
    world.run()
    return recorder.events()


class TestSchedulerLanes:
    def test_parallel_run_is_race_free(self):
        events = _scheduler_trace()
        # the scheduler's execution lanes actually appear in the trace:
        # dispatch hops to shard0.exec<k> and frame fills recorded there
        exec_lanes = {e.lane for e in events if ".exec" in e.lane}
        assert exec_lanes, "no execution-lane events recorded"
        fills = [e for e in events
                 if ".exec" in e.lane and e.kind == "write"
                 and e.loc == "scheduler-exec"]
        assert fills, "no speculative frame fills recorded"
        assert check_race_trace(events) == []

    def test_join_edges_are_load_bearing(self):
        """Strip the dispatch/join hops around the execution lanes and
        the exact same access trace becomes a reported race — the
        happens-before edges are what order a lane's frame fill before
        the front's cached-frame fan-out reads."""
        events = _scheduler_trace()
        stripped = [
            e for e in events
            if not (e.kind in ("send", "recv")
                    and (".exec" in e.obj or ".exec" in e.lane))
        ]
        findings = check_race_trace(stripped)
        assert "RACE001" in ids(findings)

    def test_injected_race_found_in_parallel_trace(self):
        events = _scheduler_trace()
        assert ids(check_race_trace(inject_race(events))) == ["RACE001"]
