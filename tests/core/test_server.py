"""Sans-io unit tests for the single-server Corona core (paper §3)."""

import pytest

from repro.core.clock import ManualClock
from repro.core.events import (
    AppendWal,
    CloseConnection,
    CreateGroupStorage,
    PurgeGroupStorage,
    SendMessage,
)
from repro.core.reduction import ReduceByCount
from repro.core.server import ServerConfig, ServerCore
from repro.core.session import AclSessionManager, GroupAction
from repro.storage.store import RecoveredGroup
from repro.wire import codec
from repro.wire.messages import (
    Ack,
    AcquireLockRequest,
    BcastStateRequest,
    BcastUpdateRequest,
    CreateGroupRequest,
    DeleteGroupRequest,
    Delivery,
    DeliveryMode,
    ErrorReply,
    GetMembershipRequest,
    GroupDeletedNotice,
    GroupListReply,
    GroupMeta,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    LeaveGroupRequest,
    ListGroupsRequest,
    LockGranted,
    MemberInfo,
    MemberRole,
    MembershipNotice,
    MembershipReply,
    PingReply,
    PingRequest,
    ReduceLogRequest,
    ReleaseLockRequest,
    ObjectState,
    StateSnapshot,
    TransferPolicy,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)
from tests.core.helpers import CoreDriver


@pytest.fixture
def clock():
    return ManualClock()


def _server(clock, **config_kwargs):
    config = ServerConfig(server_id="s1", **config_kwargs)
    return CoreDriver(ServerCore(config, clock))


def _client(driver, client_id):
    conn = driver.connect()
    effects = driver.deliver(conn, Hello(client_id=client_id))
    assert any(
        isinstance(e, SendMessage) and isinstance(e.message, HelloReply)
        for e in effects
    )
    return conn


def _join(driver, conn, group="g", rid=10, **kwargs):
    effects = driver.deliver(conn, JoinGroupRequest(rid, group, **kwargs))
    replies = [m for m in driver.sent_to(conn, effects) if isinstance(m, JoinReply)]
    assert replies, f"join failed: {driver.sent_to(conn, effects)}"
    return replies[0]


class TestHandshake:
    def test_hello_reply_carries_server_id(self, clock):
        driver = _server(clock)
        conn = driver.connect()
        effects = driver.deliver(conn, Hello(client_id="alice"))
        (reply,) = driver.sent_to(conn, effects)
        assert reply == HelloReply(server_id="s1")

    def test_request_before_hello_rejected(self, clock):
        driver = _server(clock)
        conn = driver.connect()
        effects = driver.deliver(conn, PingRequest(1))
        (reply,) = driver.sent_to(conn, effects)
        assert isinstance(reply, ErrorReply)
        assert reply.code == "corona.protocol"

    def test_reconnect_closes_stale_connection(self, clock):
        driver = _server(clock)
        old = _client(driver, "alice")
        new = driver.connect()
        effects = driver.deliver(new, Hello(client_id="alice"))
        closes = [e for e in effects if isinstance(e, CloseConnection)]
        assert closes == [CloseConnection(old)]

    def test_ping(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        clock.advance(12.5)
        effects = driver.deliver(conn, PingRequest(7))
        (reply,) = driver.sent_to(conn, effects)
        assert reply == PingReply(7, 12.5)


class TestCreateGroup:
    def test_create_acked_and_persisted(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        initial = (ObjectState("o", b"init"),)
        effects = driver.deliver(conn, CreateGroupRequest(1, "g", True, initial))
        assert Ack(1) in driver.sent_to(conn, effects)
        (create,) = driver.of_type(CreateGroupStorage, effects)
        meta = codec.decode(create.meta)
        assert isinstance(meta, GroupMeta)
        assert meta.persistent and meta.initial_state == initial

    def test_duplicate_create_rejected(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "g"))
        effects = driver.deliver(conn, CreateGroupRequest(2, "g"))
        (reply,) = driver.sent_to(conn, effects)
        assert isinstance(reply, ErrorReply) and reply.code == "corona.group_exists"

    def test_unauthorized_create_rejected(self, clock):
        acl = AclSessionManager()
        acl.restrict("g", GroupAction.CREATE, {"admin"})
        driver = _server(clock, session_manager=acl)
        conn = _client(driver, "alice")
        effects = driver.deliver(conn, CreateGroupRequest(1, "g"))
        (reply,) = driver.sent_to(conn, effects)
        assert reply.code == "corona.not_authorized"

    def test_no_storage_effect_when_not_persisting(self, clock):
        driver = _server(clock, persist=False)
        conn = _client(driver, "alice")
        effects = driver.deliver(conn, CreateGroupRequest(1, "g"))
        assert driver.of_type(CreateGroupStorage, effects) == []


class TestJoin:
    def test_join_gets_full_state_and_membership(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(
            conn, CreateGroupRequest(1, "g", False, (ObjectState("o", b"S"),))
        )
        reply = _join(driver, conn)
        assert reply.snapshot.objects == (ObjectState("o", b"S"),)
        assert reply.members == (MemberInfo("alice", MemberRole.PRINCIPAL),)

    def test_join_missing_group(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        effects = driver.deliver(conn, JoinGroupRequest(1, "ghost"))
        (reply,) = driver.sent_to(conn, effects)
        assert reply.code == "corona.no_such_group"

    def test_double_join_rejected(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "g"))
        _join(driver, conn)
        effects = driver.deliver(conn, JoinGroupRequest(2, "g"))
        (reply,) = driver.sent_to(conn, effects)
        assert reply.code == "corona.already_member"

    def test_join_does_not_involve_existing_members(self, clock):
        """The defining Corona property: a join sends nothing to members
        who did not subscribe to membership notifications."""
        driver = _server(clock)
        alice = _client(driver, "alice")
        bob = _client(driver, "bob")
        driver.deliver(alice, CreateGroupRequest(1, "g"))
        _join(driver, alice)
        driver.clear()
        _join(driver, bob, rid=11)
        assert driver.sent_to(alice) == []

    def test_membership_notice_to_subscribers_only(self, clock):
        driver = _server(clock)
        alice = _client(driver, "alice")
        bob = _client(driver, "bob")
        carol = _client(driver, "carol")
        driver.deliver(alice, CreateGroupRequest(1, "g"))
        _join(driver, alice, rid=2, notify_membership=True)
        _join(driver, bob, rid=3)
        driver.clear()
        _join(driver, carol, rid=4)
        (notice,) = driver.sent_to(alice)
        assert isinstance(notice, MembershipNotice)
        assert notice.joined == (MemberInfo("carol", MemberRole.PRINCIPAL),)
        assert len(notice.members) == 3
        assert driver.sent_to(bob) == []

    def test_get_membership(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "g"))
        _join(driver, conn)
        effects = driver.deliver(conn, GetMembershipRequest(5, "g"))
        (reply,) = driver.sent_to(conn, effects)
        assert reply == MembershipReply(
            5, "g", (MemberInfo("alice", MemberRole.PRINCIPAL),)
        )

    def test_list_groups(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "a", True))
        driver.deliver(conn, CreateGroupRequest(2, "b"))
        effects = driver.deliver(conn, ListGroupsRequest(3))
        (reply,) = driver.sent_to(conn, effects)
        assert isinstance(reply, GroupListReply)
        assert {g.name: g.persistent for g in reply.groups} == {"a": True, "b": False}


class TestMulticast:
    def _room(self, clock, members=("alice", "bob"), **config):
        driver = _server(clock, **config)
        conns = {}
        for i, name in enumerate(members):
            conns[name] = _client(driver, name)
        driver.deliver(conns[members[0]], CreateGroupRequest(1, "g"))
        for i, name in enumerate(members):
            _join(driver, conns[name], rid=10 + i)
        driver.clear()
        return driver, conns

    def test_inclusive_delivery_to_all(self, clock):
        driver, conns = self._room(clock)
        effects = driver.deliver(
            conns["alice"], BcastUpdateRequest(20, "g", "o", b"d")
        )
        for name in ("alice", "bob"):
            deliveries = driver.deliveries_to(conns[name], effects)
            assert len(deliveries) == 1
            assert deliveries[0].update.data == b"d"
            assert deliveries[0].update.sender == "alice"
        assert Ack(20) in driver.sent_to(conns["alice"], effects)

    def test_exclusive_skips_sender(self, clock):
        driver, conns = self._room(clock)
        effects = driver.deliver(
            conns["alice"],
            BcastUpdateRequest(20, "g", "o", b"d", DeliveryMode.EXCLUSIVE),
        )
        assert driver.deliveries_to(conns["alice"], effects) == []
        assert Ack(20) in driver.sent_to(conns["alice"], effects)
        assert len(driver.deliveries_to(conns["bob"], effects)) == 1

    def test_seqnos_are_contiguous_and_total(self, clock):
        driver, conns = self._room(clock)
        driver.deliver(conns["alice"], BcastUpdateRequest(20, "g", "o", b"a"))
        driver.deliver(conns["bob"], BcastUpdateRequest(21, "g", "o", b"b"))
        deliveries = driver.deliveries_to(conns["alice"])
        assert [d.update.seqno for d in deliveries] == [0, 1]

    def test_timestamp_from_service_clock(self, clock):
        driver, conns = self._room(clock)
        clock.advance(42.0)
        driver.deliver(conns["alice"], BcastUpdateRequest(20, "g", "o", b"a"))
        (delivery,) = driver.deliveries_to(conns["bob"])
        assert delivery.update.timestamp == 42.0

    def test_delivery_fanout_in_join_order(self, clock):
        driver, conns = self._room(clock, members=("alice", "bob", "carol"))
        effects = driver.deliver(
            conns["alice"], BcastUpdateRequest(20, "g", "o", b"d")
        )
        send_order = [
            e.conn for e in driver.all_sends(effects)
            if isinstance(e.message, Delivery)
        ]
        assert send_order == [conns["alice"], conns["bob"], conns["carol"]]

    def test_bcast_state_overrides(self, clock):
        driver, conns = self._room(clock)
        driver.deliver(conns["alice"], BcastUpdateRequest(20, "g", "o", b"a"))
        driver.deliver(conns["alice"], BcastStateRequest(21, "g", "o", b"NEW"))
        group = driver.core.groups["g"]
        assert group.state.get("o").materialized() == b"NEW"

    def test_non_member_cannot_broadcast(self, clock):
        driver, conns = self._room(clock)
        outsider = _client(driver, "eve")
        effects = driver.deliver(outsider, BcastUpdateRequest(30, "g", "o", b"d"))
        (reply,) = driver.sent_to(outsider, effects)
        assert reply.code == "corona.not_a_member"

    def test_observer_cannot_broadcast(self, clock):
        driver, conns = self._room(clock)
        watcher = _client(driver, "watcher")
        _join(driver, watcher, rid=15, role=MemberRole.OBSERVER)
        effects = driver.deliver(watcher, BcastUpdateRequest(30, "g", "o", b"d"))
        replies = [
            m for m in driver.sent_to(watcher, effects) if isinstance(m, ErrorReply)
        ]
        assert replies and replies[0].code == "corona.not_authorized"

    def test_observer_still_receives_deliveries(self, clock):
        driver, conns = self._room(clock)
        watcher = _client(driver, "watcher")
        _join(driver, watcher, rid=15, role=MemberRole.OBSERVER)
        effects = driver.deliver(conns["alice"], BcastUpdateRequest(31, "g", "o", b"d"))
        assert len(driver.deliveries_to(watcher, effects)) == 1

    def test_stateful_server_logs_to_wal(self, clock):
        driver, conns = self._room(clock)
        effects = driver.deliver(conns["alice"], BcastUpdateRequest(20, "g", "o", b"d"))
        (append,) = driver.of_type(AppendWal, effects)
        record = codec.decode(append.record)
        assert isinstance(record, UpdateRecord)
        assert record.seqno == 0 and append.seqno == 0

    def test_stateless_server_does_not_log(self, clock):
        driver, conns = self._room(clock, stateful=False)
        effects = driver.deliver(conns["alice"], BcastUpdateRequest(20, "g", "o", b"d"))
        assert driver.of_type(AppendWal, effects) == []
        assert driver.core.groups["g"].log.records() == ()
        # but delivery and sequencing still happen
        assert len(driver.deliveries_to(conns["bob"], effects)) == 1


class TestLeaveAndFailure:
    def _room(self, clock, persistent=False):
        driver = _server(clock)
        alice = _client(driver, "alice")
        bob = _client(driver, "bob")
        driver.deliver(alice, CreateGroupRequest(1, "g", persistent))
        _join(driver, alice, rid=2, notify_membership=True)
        _join(driver, bob, rid=3)
        driver.clear()
        return driver, alice, bob

    def test_leave_acked_and_noticed(self, clock):
        driver, alice, bob = self._room(clock)
        effects = driver.deliver(bob, LeaveGroupRequest(9, "g"))
        assert Ack(9) in driver.sent_to(bob, effects)
        (notice,) = [
            m for m in driver.sent_to(alice) if isinstance(m, MembershipNotice)
        ]
        assert notice.left == (MemberInfo("bob", MemberRole.PRINCIPAL),)

    def test_leave_without_membership_rejected(self, clock):
        driver, alice, bob = self._room(clock)
        eve = _client(driver, "eve")
        effects = driver.deliver(eve, LeaveGroupRequest(9, "g"))
        (reply,) = driver.sent_to(eve, effects)
        assert reply.code == "corona.not_a_member"

    def test_transient_group_dies_at_null_membership(self, clock):
        driver, alice, bob = self._room(clock, persistent=False)
        driver.deliver(bob, LeaveGroupRequest(9, "g"))
        effects = driver.deliver(alice, LeaveGroupRequest(10, "g"))
        assert "g" not in driver.core.groups
        assert driver.of_type(PurgeGroupStorage, effects)

    def test_persistent_group_survives_null_membership(self, clock):
        driver, alice, bob = self._room(clock, persistent=True)
        driver.deliver(conn=bob, message=LeaveGroupRequest(9, "g"))
        driver.deliver(conn=alice, message=LeaveGroupRequest(10, "g"))
        assert "g" in driver.core.groups
        # state remains transferable to a later joiner
        driver.deliver(alice, BcastUpdateRequest(11, "g", "o", b"x"))  # error: not member
        reply = _join(driver, alice, rid=12)
        assert reply.snapshot.next_seqno == 0

    def test_disconnect_removes_from_groups_and_releases_locks(self, clock):
        driver, alice, bob = self._room(clock)
        driver.deliver(bob, AcquireLockRequest(20, "g", "o"))
        driver.deliver(alice, AcquireLockRequest(21, "g", "o"))  # queued
        driver.clear()
        effects = driver.close(bob)
        grants = [
            m for m in driver.sent_to(alice, effects) if isinstance(m, LockGranted)
        ]
        assert grants == [LockGranted(21, "g", "o")]
        assert not driver.core.groups["g"].is_member("bob")

    def test_disconnect_of_unknown_conn_is_noop(self, clock):
        driver = _server(clock)
        assert driver.close(999) == []


class TestDelete:
    def test_delete_notifies_members_and_purges(self, clock):
        driver = _server(clock)
        alice = _client(driver, "alice")
        bob = _client(driver, "bob")
        driver.deliver(alice, CreateGroupRequest(1, "g", True))
        _join(driver, alice, rid=2)
        _join(driver, bob, rid=3)
        driver.clear()
        effects = driver.deliver(alice, DeleteGroupRequest(4, "g"))
        assert GroupDeletedNotice("g") in driver.sent_to(bob, effects)
        assert Ack(4) in driver.sent_to(alice, effects)
        assert driver.of_type(PurgeGroupStorage, effects)
        assert "g" not in driver.core.groups

    def test_delete_missing_group(self, clock):
        driver = _server(clock)
        alice = _client(driver, "alice")
        effects = driver.deliver(alice, DeleteGroupRequest(1, "ghost"))
        (reply,) = driver.sent_to(alice, effects)
        assert reply.code == "corona.no_such_group"


class TestLocks:
    def _locked_room(self, clock):
        driver = _server(clock)
        alice = _client(driver, "alice")
        bob = _client(driver, "bob")
        driver.deliver(alice, CreateGroupRequest(1, "g"))
        _join(driver, alice, rid=2)
        _join(driver, bob, rid=3)
        driver.clear()
        return driver, alice, bob

    def test_grant_and_release(self, clock):
        driver, alice, bob = self._locked_room(clock)
        effects = driver.deliver(alice, AcquireLockRequest(10, "g", "o"))
        assert LockGranted(10, "g", "o") in driver.sent_to(alice, effects)
        effects = driver.deliver(alice, ReleaseLockRequest(11, "g", "o"))
        assert Ack(11) in driver.sent_to(alice, effects)

    def test_blocking_queue_granted_on_release(self, clock):
        driver, alice, bob = self._locked_room(clock)
        driver.deliver(alice, AcquireLockRequest(10, "g", "o"))
        effects = driver.deliver(bob, AcquireLockRequest(11, "g", "o"))
        assert driver.sent_to(bob, effects) == []  # queued silently
        effects = driver.deliver(alice, ReleaseLockRequest(12, "g", "o"))
        assert LockGranted(11, "g", "o") in driver.sent_to(bob, effects)

    def test_nonblocking_denied(self, clock):
        driver, alice, bob = self._locked_room(clock)
        driver.deliver(alice, AcquireLockRequest(10, "g", "o"))
        effects = driver.deliver(bob, AcquireLockRequest(11, "g", "o", blocking=False))
        (reply,) = driver.sent_to(bob, effects)
        assert reply.code == "corona.lock_held"

    def test_release_not_held(self, clock):
        driver, alice, bob = self._locked_room(clock)
        effects = driver.deliver(bob, ReleaseLockRequest(11, "g", "o"))
        (reply,) = driver.sent_to(bob, effects)
        assert reply.code == "corona.lock_not_held"

    def test_lock_requires_membership(self, clock):
        driver, alice, bob = self._locked_room(clock)
        eve = _client(driver, "eve")
        effects = driver.deliver(eve, AcquireLockRequest(11, "g", "o"))
        (reply,) = driver.sent_to(eve, effects)
        assert reply.code == "corona.not_a_member"


class TestReduction:
    def test_explicit_reduce_folds_and_checkpoints(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "g", True, (ObjectState("o", b"S"),)))
        _join(driver, conn)
        for i in range(3):
            driver.deliver(conn, BcastUpdateRequest(10 + i, "g", "o", b"%d" % i))
        driver.clear()
        effects = driver.deliver(conn, ReduceLogRequest(20, "g"))
        assert Ack(20) in driver.sent_to(conn, effects)
        (ckpt,) = driver.checkpoints()
        snapshot = codec.decode(ckpt.snapshot)
        assert isinstance(snapshot, StateSnapshot)
        assert snapshot.base_seqno == 2
        assert snapshot.objects == (ObjectState("o", b"S012"),)
        group = driver.core.groups["g"]
        assert len(group.log) == 0
        assert group.log.next_seqno == 3

    def test_policy_triggers_auto_reduction(self, clock):
        driver = _server(clock, reduction=ReduceByCount(max_records=2))
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "g", True))
        _join(driver, conn)
        for i in range(3):
            driver.deliver(conn, BcastUpdateRequest(10 + i, "g", "o", b"x"))
        assert driver.checkpoints()  # third append crossed the threshold
        assert len(driver.core.groups["g"].log) == 0

    def test_reduce_on_empty_log_is_noop(self, clock):
        driver = _server(clock)
        conn = _client(driver, "alice")
        driver.deliver(conn, CreateGroupRequest(1, "g", True))
        effects = driver.deliver(conn, ReduceLogRequest(2, "g"))
        assert Ack(2) in driver.sent_to(conn, effects)
        assert driver.checkpoints() == []

    def test_join_after_reduction_gets_folded_state(self, clock):
        driver = _server(clock)
        alice = _client(driver, "alice")
        driver.deliver(alice, CreateGroupRequest(1, "g", True))
        _join(driver, alice)
        for i in range(3):
            driver.deliver(alice, BcastUpdateRequest(10 + i, "g", "o", b"%d" % i))
        driver.deliver(alice, ReduceLogRequest(20, "g"))
        bob = _client(driver, "bob")
        reply = _join(driver, bob, rid=21)
        assert reply.snapshot.objects == (ObjectState("o", b"012"),)
        assert reply.snapshot.next_seqno == 3


class TestRecovery:
    def _recovered_core(self, clock, records=(), snapshot=None, ckpt_seqno=-1):
        meta = GroupMeta("g", True, (ObjectState("o", b"INIT"),), 0.0)
        data = RecoveredGroup(
            group="g",
            meta=codec.encode(meta),
            checkpoint_seqno=ckpt_seqno,
            snapshot=codec.encode(snapshot) if snapshot else None,
            records=[(r.seqno, codec.encode(r)) for r in records],
        )
        return ServerCore(ServerConfig(server_id="s1"), clock, recovered={"g": data})

    def test_recover_from_meta_only(self, clock):
        core = self._recovered_core(clock)
        group = core.groups["g"]
        assert group.persistent
        assert group.state.get("o").materialized() == b"INIT"
        assert group.sequencer.next_seqno == 0

    def test_recover_replays_wal_records(self, clock):
        records = [
            UpdateRecord(0, UpdateKind.UPDATE, "o", b"+a", "c", 0.0),
            UpdateRecord(1, UpdateKind.UPDATE, "o", b"+b", "c", 0.0),
        ]
        core = self._recovered_core(clock, records=records)
        group = core.groups["g"]
        assert group.state.get("o").materialized() == b"INIT+a+b"
        assert group.sequencer.next_seqno == 2
        assert len(group.log) == 2

    def test_recover_from_checkpoint_plus_suffix(self, clock):
        snapshot = StateSnapshot("g", 4, (ObjectState("o", b"FOLDED"),), (), 5)
        records = [UpdateRecord(5, UpdateKind.UPDATE, "o", b"+z", "c", 0.0)]
        core = self._recovered_core(
            clock, records=records, snapshot=snapshot, ckpt_seqno=4
        )
        group = core.groups["g"]
        assert group.state.get("o").materialized() == b"FOLDED+z"
        assert group.sequencer.next_seqno == 6
        assert group.log.first_seqno == 5

    def test_recovered_group_serves_joins(self, clock):
        records = [UpdateRecord(0, UpdateKind.UPDATE, "o", b"+a", "c", 0.0)]
        core = self._recovered_core(clock, records=records)
        driver = CoreDriver(core)
        conn = _client(driver, "alice")
        reply = _join(driver, conn, rid=1)
        assert reply.snapshot.objects == (ObjectState("o", b"INIT+a"),)
        assert reply.snapshot.next_seqno == 1
