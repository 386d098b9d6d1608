"""Sans-io unit tests for the Corona client core."""

import pytest

from repro.core.client import ClientConfig, ClientCore, GroupView
from repro.core.clock import ManualClock
from repro.core.errors import (
    NoSuchGroupError,
    NotAMemberError,
    NotConnectedError,
    ProtocolError,
    RequestTimeoutError,
)
from repro.wire.messages import (
    Ack,
    BcastUpdateRequest,
    Delivery,
    DeliveryMode,
    ErrorReply,
    GroupDeletedNotice,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    LockGranted,
    MemberInfo,
    MemberRole,
    MembershipNotice,
    ObjectState,
    PingReply,
    StateSnapshot,
    UpdateKind,
    UpdateRecord,
)
from tests.core.helpers import CoreDriver


def _client(timeout=10.0):
    core = ClientCore(ClientConfig("alice", request_timeout=timeout), ManualClock())
    driver = CoreDriver(core)
    conn = driver.connect(key="server")
    driver.deliver(conn, HelloReply(server_id="s1"))
    return driver, conn


def _record(seqno, data=b"x", sender="bob", object_id="o", kind=UpdateKind.UPDATE):
    return UpdateRecord(seqno, kind, object_id, data, sender, 0.0)


def _snapshot(group="g", base=-1, objects=(), updates=(), next_seqno=0):
    return StateSnapshot(group, base, tuple(objects), tuple(updates), next_seqno)


def _joined(driver, conn, next_seqno=0, objects=()):
    rid = driver.invoke("join_group", "g")
    driver.deliver(
        conn,
        JoinReply(
            rid,
            _snapshot(objects=objects, next_seqno=next_seqno, base=next_seqno - 1),
            (MemberInfo("alice", MemberRole.PRINCIPAL),),
        ),
    )
    return rid


class TestHandshake:
    def test_hello_sent_on_connect(self):
        core = ClientCore(ClientConfig("alice"), ManualClock())
        driver = CoreDriver(core)
        conn = driver.connect(key="server")
        assert driver.sent_to(conn) == [Hello(client_id="alice")]

    def test_connected_notification(self):
        driver, _conn = _client()
        (note,) = driver.notifications("connected")
        assert note.payload == "s1"
        assert driver.core.connected
        assert driver.core.server_id == "s1"

    def test_non_server_connection_ignored(self):
        core = ClientCore(ClientConfig("alice"), ManualClock())
        driver = CoreDriver(core)
        driver.connect(key="other")
        assert driver.all_sends() == []

    def test_request_while_disconnected_raises(self):
        core = ClientCore(ClientConfig("alice"), ManualClock())
        with pytest.raises(NotConnectedError):
            core.ping()


class TestRequestReply:
    def test_ack_completes_request(self):
        driver, conn = _client()
        rid = driver.invoke("create_group", "g")
        assert driver.timers_started()[-1].key == f"req-{rid}"
        driver.deliver(conn, Ack(rid))
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert reply.ok and reply.request_id == rid and reply.kind == "create"
        assert driver.timers_cancelled()[-1].key == f"req-{rid}"

    def test_error_reply_reconstructs_exception(self):
        driver, conn = _client()
        rid = driver.invoke("join_group", "ghost")
        driver.deliver(conn, ErrorReply(rid, "corona.no_such_group", "nope"))
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert not reply.ok
        assert isinstance(reply.error, NoSuchGroupError)

    def test_timeout_fails_request(self):
        driver, conn = _client(timeout=5.0)
        rid = driver.invoke("ping")
        driver.fire_timer(f"req-{rid}")
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert isinstance(reply.error, RequestTimeoutError)

    def test_late_reply_after_timeout_ignored(self):
        driver, conn = _client()
        rid = driver.invoke("ping")
        driver.fire_timer(f"req-{rid}")
        driver.deliver(conn, PingReply(rid, 1.0))
        assert len(driver.notifications("reply")) == 1

    def test_unknown_timer_ignored(self):
        driver, _conn = _client()
        assert driver.fire_timer("other-timer") == []
        assert driver.fire_timer("req-9999") == []

    def test_disconnect_fails_pending_requests(self):
        driver, conn = _client()
        driver.invoke("ping")
        driver.close(conn)
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert isinstance(reply.error, NotConnectedError)
        assert driver.notifications("disconnected")
        assert not driver.core.connected

    def test_request_ids_unique(self):
        driver, _conn = _client()
        ids = {driver.invoke("ping") for _ in range(5)}
        assert len(ids) == 5

    def test_ping_reply_value(self):
        driver, conn = _client()
        rid = driver.invoke("ping")
        driver.deliver(conn, PingReply(rid, 123.5))
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert reply.value == 123.5

    def test_lock_granted_completes_acquire(self):
        driver, conn = _client()
        rid = driver.invoke("acquire_lock", "g", "o")
        driver.deliver(conn, LockGranted(rid, "g", "o"))
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert reply.ok and reply.value == "o"


class TestJoinAndViews:
    def test_join_builds_view_from_snapshot(self):
        driver, conn = _client()
        _joined(
            driver, conn, next_seqno=3,
            objects=(ObjectState("o", b"STATE"),),
        )
        view = driver.core.views["g"]
        assert view.state.get("o").materialized() == b"STATE"
        assert view.next_seqno == 3
        assert view.members == (MemberInfo("alice", MemberRole.PRINCIPAL),)

    def test_join_reply_value_is_view(self):
        driver, conn = _client()
        _joined(driver, conn)
        (reply,) = [n.payload for n in driver.notifications("reply")]
        assert isinstance(reply.value, GroupView)

    def test_snapshot_with_updates_applied(self):
        driver, conn = _client()
        rid = driver.invoke("join_group", "g")
        snapshot = _snapshot(
            base=1,
            updates=(_record(2, b"a"), _record(3, b"b")),
            next_seqno=4,
        )
        driver.deliver(conn, JoinReply(rid, snapshot, ()))
        view = driver.core.views["g"]
        assert view.state.get("o").materialized() == b"ab"
        assert view.next_seqno == 4

    def test_delivery_applies_to_view(self):
        driver, conn = _client()
        _joined(driver, conn)
        driver.deliver(conn, Delivery("g", _record(0, b"+1")))
        view = driver.core.views["g"]
        assert view.state.get("o").materialized() == b"+1"
        assert view.next_seqno == 1
        (event,) = [n.payload for n in driver.notifications("delivery")]
        assert event.group == "g" and event.record.seqno == 0

    def test_delivery_for_unjoined_group_still_notified(self):
        driver, conn = _client()
        driver.deliver(conn, Delivery("other", _record(0)))
        assert driver.notifications("delivery")

    def test_duplicate_delivery_rejected(self):
        driver, conn = _client()
        _joined(driver, conn)
        driver.deliver(conn, Delivery("g", _record(0)))
        with pytest.raises(ProtocolError):
            driver.deliver(conn, Delivery("g", _record(0)))

    def test_unexplained_gap_rejected(self):
        driver, conn = _client()
        _joined(driver, conn)
        with pytest.raises(ProtocolError):
            driver.deliver(conn, Delivery("g", _record(5)))

    def test_membership_notice_updates_view(self):
        driver, conn = _client()
        _joined(driver, conn)
        members = (
            MemberInfo("alice", MemberRole.PRINCIPAL),
            MemberInfo("bob", MemberRole.PRINCIPAL),
        )
        driver.deliver(
            conn,
            MembershipNotice("g", (MemberInfo("bob", MemberRole.PRINCIPAL),), (), members),
        )
        assert driver.core.views["g"].members == members
        assert driver.notifications("membership")

    def test_group_deleted_drops_view(self):
        driver, conn = _client()
        _joined(driver, conn)
        driver.deliver(conn, GroupDeletedNotice("g"))
        assert "g" not in driver.core.views
        assert driver.notifications("group_deleted")

    def test_acked_leave_drops_the_view(self):
        driver, conn = _client()
        _joined(driver, conn)
        leave = driver.invoke("leave_group", "g")
        assert "g" in driver.core.views  # not before the server agrees
        driver.deliver(conn, Ack(leave))
        assert "g" not in driver.core.views
        assert not driver.core._leaving

    @pytest.mark.parametrize("fail", ["error", "timeout", "disconnect"])
    def test_failed_leave_keeps_the_view(self, fail):
        driver, conn = _client()
        _joined(driver, conn)
        leave = driver.invoke("leave_group", "g")
        if fail == "error":
            driver.deliver(conn, ErrorReply(leave, NotAMemberError.code, ""))
        elif fail == "timeout":
            driver.fire_timer(f"req-{leave}")
        else:
            driver.close(conn)
        assert "g" in driver.core.views
        assert not driver.core._leaving
        (reply,) = [n.payload for n in driver.notifications("reply")
                    if n.payload.request_id == leave]
        assert not reply.ok

    def test_late_ack_of_a_timed_out_leave_keeps_the_view(self):
        driver, conn = _client()
        _joined(driver, conn)
        leave = driver.invoke("leave_group", "g")
        driver.fire_timer(f"req-{leave}")
        driver.deliver(conn, Ack(leave))
        assert "g" in driver.core.views  # the app was told it failed

    def test_fifo_checked_per_sender(self):
        driver, conn = _client()
        _joined(driver, conn)
        driver.deliver(conn, Delivery("g", _record(0, sender="bob")))
        driver.deliver(conn, Delivery("g", _record(1, sender="carol")))
        view = driver.core.views["g"]
        assert view.fifo.last_from("bob") == 0
        assert view.fifo.last_from("carol") == 1


class TestExclusiveMode:
    def test_exclusive_payload_spliced_into_gap(self):
        driver, conn = _client()
        _joined(driver, conn)
        rid = driver.invoke(
            "bcast_update", "g", "o", b"MINE", DeliveryMode.EXCLUSIVE
        )
        sent = driver.sent_to(conn)[-1]
        assert isinstance(sent, BcastUpdateRequest)
        driver.deliver(conn, Ack(rid))  # server sequenced it as seqno 0
        view = driver.core.views["g"]
        assert view.next_seqno == 0  # replica lags until the gap shows
        driver.deliver(conn, Delivery("g", _record(1, b"THEIRS", sender="bob")))
        assert view.state.get("o").materialized() == b"MINETHEIRS"
        assert view.next_seqno == 2

    def test_inclusive_bcast_needs_no_splice(self):
        driver, conn = _client()
        _joined(driver, conn)
        rid = driver.invoke("bcast_update", "g", "o", b"MINE")
        driver.deliver(conn, Delivery("g", _record(0, b"MINE", sender="alice")))
        driver.deliver(conn, Ack(rid))
        view = driver.core.views["g"]
        assert view.state.get("o").materialized() == b"MINE"
        assert not view.pending_exclusive

    def test_failed_exclusive_bcast_not_spliced(self):
        driver, conn = _client()
        _joined(driver, conn)
        rid = driver.invoke(
            "bcast_update", "g", "o", b"MINE", DeliveryMode.EXCLUSIVE
        )
        driver.deliver(conn, ErrorReply(rid, "corona.not_a_member", ""))
        assert not driver.core.views["g"].pending_exclusive

    def test_two_exclusive_gaps_fill_in_order(self):
        driver, conn = _client()
        _joined(driver, conn)
        r1 = driver.invoke("bcast_update", "g", "o", b"A", DeliveryMode.EXCLUSIVE)
        r2 = driver.invoke("bcast_update", "g", "o", b"B", DeliveryMode.EXCLUSIVE)
        driver.deliver(conn, Ack(r1))
        driver.deliver(conn, Ack(r2))
        driver.deliver(conn, Delivery("g", _record(2, b"C", sender="bob")))
        view = driver.core.views["g"]
        assert view.state.get("o").materialized() == b"ABC"
