"""Group bookkeeping: membership, shared state, log, locks, per group.

A group is "the basic unit of communication in Corona": a set of member
processes plus the shared state they operate on (paper §3.1).  Groups are
persistent or transient — a persistent group and its shared state survive
a null membership; a transient group is destroyed when its last member
leaves.

This module is pure bookkeeping; the server core drives it and turns its
return values into protocol messages and effects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import AlreadyMemberError, NotAMemberError
from repro.core.ids import ClientId, ConnId, GroupId
from repro.core.locks import LockTable
from repro.core.log import StateLog
from repro.core.ordering import Sequencer
from repro.core.state import SharedState
from repro.wire.messages import GroupInfo, MemberInfo, MemberRole, ObjectState

__all__ = ["Member", "Group"]


@dataclass
class Member:
    """One member's server-side record."""

    client_id: ClientId
    conn: ConnId
    role: MemberRole
    wants_membership_notices: bool = False

    def info(self) -> MemberInfo:
        return MemberInfo(self.client_id, self.role)


class Group:
    """Server-side state of one communication group."""

    def __init__(
        self,
        name: GroupId,
        persistent: bool,
        initial_state: tuple[ObjectState, ...] = (),
        created_at: float = 0.0,
    ) -> None:
        self.name = name
        self.persistent = persistent
        self.initial_state = initial_state
        self.created_at = created_at
        self.state = SharedState(initial_state)
        self.log = StateLog()
        self.locks = LockTable()
        self.sequencer = Sequencer()
        #: Members in join order — deliveries fan out in this order, so the
        #: paper's "last client a broadcast is sent to" is well defined.
        self._members: dict[ClientId, Member] = {}
        #: The members' connections in join order — what a broadcast fans
        #: out to.  Rebuilt when membership changes, not per broadcast.
        self.conns: tuple[ConnId, ...] = ()

    # -- membership -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._members)

    def is_member(self, client: ClientId) -> bool:
        return client in self._members

    def member(self, client: ClientId) -> Member:
        try:
            return self._members[client]
        except KeyError:
            raise NotAMemberError(
                f"{client!r} is not a member of {self.name!r}"
            ) from None

    def members(self) -> list[Member]:
        """All members, in join order."""
        return list(self._members.values())

    def member_infos(self) -> tuple[MemberInfo, ...]:
        return tuple(m.info() for m in self._members.values())

    def info(self) -> GroupInfo:
        """This group's ``ListGroups`` entry."""
        return GroupInfo(self.name, self.persistent, len(self), self.log.next_seqno)

    def add_member(
        self,
        client: ClientId,
        conn: ConnId,
        role: MemberRole,
        wants_membership_notices: bool = False,
    ) -> Member:
        """Add a member; duplicate joins are protocol errors."""
        if client in self._members:
            raise AlreadyMemberError(
                f"{client!r} is already a member of {self.name!r}"
            )
        member = Member(client, conn, role, wants_membership_notices)
        self._members[client] = member
        self._reindex()
        return member

    def remove_member(self, client: ClientId) -> Member:
        """Remove a member (leave or failure); returns its record."""
        member = self._members.pop(client, None)
        if member is None:
            raise NotAMemberError(
                f"{client!r} is not a member of {self.name!r}"
            )
        self._reindex()
        return member

    def rebind_member(self, client: ClientId, conn: ConnId) -> None:
        """The member came back on a new connection (transfer resume)."""
        self.member(client).conn = conn
        self._reindex()

    def conns_without(self, client: ClientId) -> tuple[ConnId, ...]:
        """:attr:`conns` minus *client*'s own (EXCLUSIVE delivery)."""
        member = self._members.get(client)
        if member is None:
            return self.conns
        return tuple(conn for conn in self.conns if conn != member.conn)

    def _reindex(self) -> None:
        self.conns = tuple(m.conn for m in self._members.values())

    def notice_subscribers(self) -> list[Member]:
        """Members who asked for membership-change notifications."""
        return [m for m in self._members.values() if m.wants_membership_notices]

    # -- lifecycle -----------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self._members

    @property
    def dies_when_empty(self) -> bool:
        """Transient groups cease to exist at null membership (§3.1)."""
        return not self.persistent
