"""Sans-io unit tests for the client's reconnect machinery (timers,
backoff, rejoin requests), complementing the scenario tests in
test_reconnect.py."""

from repro.core.client import ClientConfig, ClientCore
from repro.core.clock import ManualClock
from repro.core.events import OpenConnection, StartTimer
from repro.wire.messages import (
    Ack,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    MemberInfo,
    MemberRole,
    StateSnapshot,
    TransferPolicy,
)
from tests.core.helpers import CoreDriver


def _client(**kwargs):
    config = ClientConfig(
        "c", auto_reconnect=True, reconnect_backoff=1.0,
        reconnect_backoff_max=4.0, **kwargs,
    )
    core = ClientCore(config, ManualClock())
    driver = CoreDriver(core)
    driver.invoke("connect", ("host", 1))
    conn = driver.connect(key="server")
    driver.deliver(conn, HelloReply(server_id="s1"))
    return driver, core, conn


def _join(driver, conn, group="g", next_seqno=3, role=MemberRole.OBSERVER):
    rid = driver.invoke("join_group", group, role, None, True)
    snapshot = StateSnapshot(group, next_seqno - 1, (), (), next_seqno)
    driver.deliver(conn, JoinReply(rid, snapshot, ()))


class TestBackoff:
    def test_disconnect_arms_reconnect_timer(self):
        driver, core, conn = _client()
        driver.close(conn)
        timers = [t for t in driver.timers_started() if t.key == "reconnect"]
        assert timers and timers[-1].delay == 1.0

    def test_backoff_doubles_up_to_max(self):
        driver, core, conn = _client()
        delays = []
        driver.close(conn)
        for _ in range(4):
            delays.append(
                [t for t in driver.effects if isinstance(t, StartTimer)
                 and t.key == "reconnect"][-1].delay
            )
            driver.clear()
            driver.fire_timer("reconnect")
            # the dial fails: synthetic connect + close
            failed_conn = driver.connect(key="server")
            driver.close(failed_conn)
        assert delays == [1.0, 2.0, 4.0, 4.0]

    def test_backoff_resets_on_success(self):
        driver, core, conn = _client()
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        driver.deliver(conn2, HelloReply(server_id="s1"))
        driver.clear()
        driver.close(conn2)
        timers = [t for t in driver.timers_started() if t.key == "reconnect"]
        assert timers[-1].delay == 1.0  # back to the initial backoff

    def test_reconnect_timer_dials_stored_address(self):
        driver, core, conn = _client()
        driver.close(conn)
        effects = driver.fire_timer("reconnect")
        dials = [e for e in effects if isinstance(e, OpenConnection)]
        assert dials and dials[0].address == ("host", 1)
        assert dials[0].key == "server"


class TestRejoin:
    def test_rejoin_reuses_role_and_transfer_cursor(self):
        driver, core, conn = _client()
        _join(driver, conn, next_seqno=7, role=MemberRole.OBSERVER)
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        driver.clear()
        driver.deliver(conn2, HelloReply(server_id="s1"))
        joins = [
            m for m in driver.sent_to(conn2)
            if isinstance(m, JoinGroupRequest)
        ]
        assert len(joins) == 1
        join = joins[0]
        assert join.group == "g"
        assert join.role is MemberRole.OBSERVER
        assert join.notify_membership is True
        assert join.transfer.policy is TransferPolicy.SINCE_SEQNO
        assert join.transfer.since_seqno == 6  # next_seqno - 1

    def test_a_left_group_is_not_rejoined(self):
        driver, core, conn = _client()
        _join(driver, conn, group="room")
        _join(driver, conn, group="kept")
        leave = driver.invoke("leave_group", "room")
        driver.deliver(conn, Ack(leave))
        driver.close(conn)
        conn2 = driver.connect(key="server")
        driver.clear()
        driver.deliver(conn2, HelloReply(server_id="s1"))
        joins = [
            m.group for m in driver.sent_to(conn2)
            if isinstance(m, JoinGroupRequest)
        ]
        assert joins == ["kept"]

    def test_hello_resent_on_each_reconnect(self):
        driver, core, conn = _client()
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        hellos = [m for m in driver.sent_to(conn2) if isinstance(m, Hello)]
        assert len(hellos) == 1

    def test_no_rejoin_without_views(self):
        driver, core, conn = _client()
        driver.close(conn)
        driver.fire_timer("reconnect")
        conn2 = driver.connect(key="server")
        driver.clear()
        driver.deliver(conn2, HelloReply(server_id="s1"))
        assert not [
            m for m in driver.sent_to(conn2) if isinstance(m, JoinGroupRequest)
        ]
