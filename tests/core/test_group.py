"""Tests for group bookkeeping: membership, lifecycle flags."""

import pytest

from repro.core.errors import AlreadyMemberError, NotAMemberError
from repro.core.group import Group
from repro.wire.messages import MemberInfo, MemberRole, ObjectState


def _group(persistent=False):
    return Group("g", persistent, initial_state=(ObjectState("o", b"init"),))


class TestMembership:
    def test_add_and_query(self):
        group = _group()
        group.add_member("alice", conn=1, role=MemberRole.PRINCIPAL)
        assert group.is_member("alice")
        assert len(group) == 1
        assert group.member("alice").conn == 1

    def test_join_order_preserved(self):
        group = _group()
        for i, name in enumerate(["c", "a", "b"]):
            group.add_member(name, conn=i, role=MemberRole.PRINCIPAL)
        assert [m.client_id for m in group.members()] == ["c", "a", "b"]

    def test_conns_follow_membership_in_join_order(self):
        group = _group()
        assert group.conns == ()
        for i, name in enumerate(["c", "a", "b"]):
            group.add_member(name, conn=10 + i, role=MemberRole.PRINCIPAL)
        assert group.conns == (10, 11, 12)
        assert group.conns_without("a") == (10, 12)
        assert group.conns_without("stranger") is group.conns
        group.remove_member("c")
        assert group.conns == (11, 12)
        group.rebind_member("b", conn=99)
        assert group.member("b").conn == 99
        assert group.conns == (11, 99)
        with pytest.raises(NotAMemberError):
            group.rebind_member("ghost", conn=5)

    def test_duplicate_join_rejected(self):
        group = _group()
        group.add_member("alice", 1, MemberRole.PRINCIPAL)
        with pytest.raises(AlreadyMemberError):
            group.add_member("alice", 2, MemberRole.PRINCIPAL)

    def test_remove_member(self):
        group = _group()
        group.add_member("alice", 1, MemberRole.PRINCIPAL)
        removed = group.remove_member("alice")
        assert removed.client_id == "alice"
        assert not group.is_member("alice")

    def test_remove_non_member_raises(self):
        with pytest.raises(NotAMemberError):
            _group().remove_member("ghost")

    def test_member_lookup_raises_for_non_member(self):
        with pytest.raises(NotAMemberError):
            _group().member("ghost")

    def test_member_infos(self):
        group = _group()
        group.add_member("alice", 1, MemberRole.PRINCIPAL)
        group.add_member("bob", 2, MemberRole.OBSERVER)
        assert group.member_infos() == (
            MemberInfo("alice", MemberRole.PRINCIPAL),
            MemberInfo("bob", MemberRole.OBSERVER),
        )

    def test_notice_subscribers(self):
        group = _group()
        group.add_member("alice", 1, MemberRole.PRINCIPAL, wants_membership_notices=True)
        group.add_member("bob", 2, MemberRole.PRINCIPAL)
        assert [m.client_id for m in group.notice_subscribers()] == ["alice"]


class TestLifecycle:
    def test_transient_dies_when_empty(self):
        group = _group(persistent=False)
        assert group.empty
        assert group.dies_when_empty

    def test_persistent_survives_null_membership(self):
        group = _group(persistent=True)
        assert group.empty
        assert not group.dies_when_empty

    def test_initial_state_loaded(self):
        group = _group()
        assert group.state.get("o").base == b"init"

    def test_fresh_group_log_empty(self):
        group = _group()
        assert len(group.log) == 0
        assert group.sequencer.next_seqno == 0
