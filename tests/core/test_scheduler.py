"""Unit tests for the dependency-aware optimistic scheduler (sans-io).

The contract under test: with ``exec_lanes > 0`` and a batch bracketed
by ``begin_batch``/``end_batch``, the core emits an effect stream
*identical* to the strict-serial core — same frames, same order — while
the scheduler's counters record what speculation actually did.
"""

import pytest

from repro.core.clock import ManualClock
from repro.core.events import AppendWal
from repro.core.scheduler import (
    CommandScheduler,
    ExecutionEngine,
    ThreadPoolEngine,
    stable_lane,
)
from repro.core.server import ServerConfig, ServerCore
from repro.core.state import SharedState
from repro.wire.messages import (
    Ack,
    AcquireLockRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    Delivery,
    ErrorReply,
    Hello,
    JoinGroupRequest,
    UpdateRecord,
)
from tests.core.helpers import CoreDriver


def _driver(exec_lanes=0, **config_kwargs):
    config = ServerConfig(server_id="s1", exec_lanes=exec_lanes, **config_kwargs)
    return CoreDriver(ServerCore(config, ManualClock()))


def _member(driver, client_id, group="g", create=False):
    conn = driver.connect()
    driver.deliver(conn, Hello(client_id=client_id))
    if create:
        from repro.wire.messages import CreateGroupRequest

        driver.deliver(conn, CreateGroupRequest(1, group))
    driver.deliver(conn, JoinGroupRequest(2, group))
    return conn


class TestStableLane:
    def test_deterministic_and_in_range(self):
        for lanes in (1, 2, 4, 7):
            for key in ("g:obj0", "g:obj1", "conn:42"):
                lane = stable_lane(key, lanes)
                assert 0 <= lane < lanes
                assert lane == stable_lane(key, lanes)

    def test_single_lane_short_circuits(self):
        assert stable_lane("anything", 1) == 0
        assert stable_lane("anything", 0) == 0

    def test_spreads_keys(self):
        lanes = {stable_lane(f"g:obj{i}", 4) for i in range(64)}
        assert lanes == {0, 1, 2, 3}


class TestDependencies:
    def test_deps_are_object_id_plus_held_locks(self):
        driver = _driver(exec_lanes=2)
        conn = _member(driver, "alice", create=True)
        driver.deliver(conn, AcquireLockRequest(3, "g", "doc"))
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(4, "g", "other", b"x"))
        (cmd,) = driver.core.scheduler._window
        assert cmd.deps == ("other", "doc")
        assert cmd.observed == (("other", None), ("doc", None))
        driver.effects.extend(driver.core.end_batch())

    def test_no_duplicate_dep_when_writing_held_object(self):
        driver = _driver(exec_lanes=2)
        conn = _member(driver, "alice", create=True)
        driver.deliver(conn, AcquireLockRequest(3, "g", "doc"))
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(4, "g", "doc", b"x"))
        (cmd,) = driver.core.scheduler._window
        assert cmd.deps == ("doc",)
        driver.effects.extend(driver.core.end_batch())

    def test_observed_version_tracks_last_seqno(self):
        driver = _driver(exec_lanes=2)
        conn = _member(driver, "alice", create=True)
        driver.deliver(conn, BcastUpdateRequest(3, "g", "doc", b"a"))
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(4, "g", "doc", b"b"))
        (cmd,) = driver.core.scheduler._window
        assert cmd.observed == (("doc", 0),)
        driver.effects.extend(driver.core.end_batch())


class TestSharedStateVersion:
    def test_missing_object_is_none(self):
        state = SharedState()
        assert state.version("doc") is None

    def test_version_is_last_applied_seqno(self):
        state = SharedState()
        from repro.wire.messages import UpdateKind

        state.apply(UpdateRecord(5, UpdateKind.UPDATE, "doc", b"x", "alice", 0.0))
        assert state.version("doc") == 5


class TestBatchEquivalence:
    """The headline invariant: batch mode replays the serial tail."""

    N = 8

    def _run(self, exec_lanes, conflict=False):
        driver = _driver(exec_lanes=exec_lanes)
        conns = [_member(driver, f"c{i}", create=(i == 0)) for i in range(3)]
        before = len(driver.effects)
        if exec_lanes:
            driver.core.begin_batch()
        for i in range(self.N):
            oid = "hot" if conflict and i % 2 == 0 else f"obj{i}"
            driver.deliver(
                conns[i % 3], BcastUpdateRequest(10 + i, "g", oid, bytes([i]))
            )
        if exec_lanes:
            driver.effects.extend(driver.core.end_batch())
        group = driver.core.groups["g"]
        return (
            driver.effects[before:],
            group.state.materialize_all(),
            driver.core.scheduler.stats if driver.core.scheduler else None,
        )

    def test_parallel_effects_equal_serial(self):
        serial, serial_state, _ = self._run(0)
        parallel, parallel_state, stats = self._run(4)
        assert parallel == serial
        assert parallel_state == serial_state
        assert stats.commands_parallel == self.N
        assert stats.conflicts == 0

    def test_conflicts_detected_and_reexecuted(self):
        serial, serial_state, _ = self._run(0, conflict=True)
        parallel, parallel_state, stats = self._run(4, conflict=True)
        assert parallel == serial
        assert parallel_state == serial_state
        # 4 "hot" writes in one window: every one after the first sees
        # the version move at commit time
        assert stats.conflicts == 3
        assert stats.reexecutions == 3

    def test_single_command_window_is_not_counted_parallel(self):
        driver = _driver(exec_lanes=4)
        conn = _member(driver, "alice", create=True)
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(10, "g", "doc", b"x"))
        driver.effects.extend(driver.core.end_batch())
        assert driver.core.scheduler.stats.commands_parallel == 0


class TestBarriers:
    def test_bcast_state_flushes_then_runs_serial(self):
        driver = _driver(exec_lanes=4)
        conn = _member(driver, "alice", create=True)
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(10, "g", "doc", b"+1"))
        assert driver.core.scheduler.pending == 1
        driver.deliver(conn, BcastStateRequest(11, "g", "doc", b"base"))
        # the STATE barrier committed the pending update first
        assert driver.core.scheduler.pending == 0
        driver.effects.extend(driver.core.end_batch())
        acks = [
            m.request_id
            for m in driver.sent_to(conn)
            if isinstance(m, Ack)
        ]
        assert acks[-2:] == [10, 11]

    def test_non_broadcast_message_flushes_window(self):
        driver = _driver(exec_lanes=4)
        conn = _member(driver, "alice", create=True)
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(10, "g", "doc", b"+1"))
        assert driver.core.scheduler.pending == 1
        driver.deliver(conn, AcquireLockRequest(11, "g", "doc"))
        assert driver.core.scheduler.pending == 0
        driver.effects.extend(driver.core.end_batch())

    def test_error_reply_flushes_first(self):
        driver = _driver(exec_lanes=4)
        conn = _member(driver, "alice", create=True)
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(10, "g", "doc", b"+1"))
        effects = driver.deliver(
            conn, BcastUpdateRequest(11, "nope", "doc", b"x")
        )
        assert driver.core.scheduler.pending == 0
        sent = [send.message for send in driver.all_sends(effects)]
        # the pending command's effects precede the error reply
        assert any(isinstance(m, Ack) and m.request_id == 10 for m in sent)
        assert isinstance(sent[-1], ErrorReply)
        driver.effects.extend(driver.core.end_batch())

    def test_connection_close_flushes_window(self):
        driver = _driver(exec_lanes=4)
        conn = _member(driver, "alice", create=True)
        _member(driver, "bob")  # keeps the group alive after the close
        driver.core.begin_batch()
        driver.deliver(conn, BcastUpdateRequest(10, "g", "doc", b"+1"))
        driver.close(conn)
        assert driver.core.scheduler.pending == 0
        # the update committed (WAL-less config: state applied) before
        # the membership change processed
        assert driver.core.groups["g"].state.version("doc") == 0
        driver.effects.extend(driver.core.end_batch())


class TestEngines:
    def test_inline_engine_never_stalls(self):
        engine = ExecutionEngine()
        ran = []
        engine.dispatch(None, lambda: ran.append(1))
        assert ran == [1]
        assert engine.wait(None) is False
        engine.close()

    def test_thread_pool_engine_runs_and_joins(self):
        driver = _driver(exec_lanes=2)
        driver.core.scheduler.engine = ThreadPoolEngine(2, name="test-exec")
        conns = [_member(driver, f"c{i}", create=(i == 0)) for i in range(2)]
        before = len(driver.effects)
        driver.core.begin_batch()
        for i in range(6):
            driver.deliver(
                conns[i % 2], BcastUpdateRequest(10 + i, "g", f"o{i}", b"x")
            )
        driver.effects.extend(driver.core.end_batch())
        driver.core.scheduler.engine.close()
        deliveries = driver.deliveries_to(conns[0], driver.effects[before:])
        assert [d.update.seqno for d in deliveries] == list(range(6))

    def test_serial_config_has_no_scheduler(self):
        driver = _driver(exec_lanes=0)
        assert driver.core.scheduler is None
        # begin/end batch are harmless no-ops without a scheduler
        driver.core.begin_batch()
        assert driver.core.end_batch() == []


class TestWalParity:
    def test_wal_payloads_identical_to_serial(self):
        def run(exec_lanes):
            driver = _driver(exec_lanes=exec_lanes, persist=True)
            conn = _member(driver, "alice", create=True)
            before = len(driver.effects)
            if exec_lanes:
                driver.core.begin_batch()
            for i in range(5):
                driver.deliver(
                    conn, BcastUpdateRequest(10 + i, "g", f"o{i % 2}", b"x")
                )
            if exec_lanes:
                driver.effects.extend(driver.core.end_batch())
            return [
                (e.group, e.seqno, e.record)
                for e in driver.effects[before:]
                if isinstance(e, AppendWal)
            ]

        assert run(4) == run(0)
