"""Workspace session management: who may do what to which group.

"The Corona server works in conjunction with an external workspace session
manager that determines which client is allowed to execute these actions"
(paper §3.2).  The server core consults a :class:`SessionManager` before
every group-management action; the library ships a permissive default and
an access-control-list implementation, and applications can supply their
own.

The same module holds the other half of "who is this": the Hello
handshake.  :class:`SessionCore` is the connection-scoped part of every
Corona server core — protocol-version check, authentication, the
conn↔client tables, stale-connection eviction on reconnect, and Ping —
written once, so a flat :class:`~repro.core.server.ServerCore` and the
sharded front (:class:`~repro.runtime.sharding.ShardSessions`) answer a
handshake with the same effects, byte for byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol

from repro.core.clock import Clock
from repro.core.errors import CoronaError, NotAuthorizedError, ProtocolError
from repro.core.events import CloseConnection, ProtocolCore
from repro.core.ids import ClientId, ConnId, GroupId
from repro.wire.messages import (
    PROTOCOL_VERSION,
    ErrorReply,
    Hello,
    HelloReply,
    PingReply,
    PingRequest,
)

if TYPE_CHECKING:
    from repro.core.server import ServerConfig

__all__ = [
    "GroupAction",
    "SessionManager",
    "AllowAll",
    "AclSessionManager",
    "SessionCore",
]


class GroupAction(enum.Enum):
    """Actions gated by the session manager."""

    CREATE = "create"
    DELETE = "delete"
    JOIN = "join"
    BROADCAST = "broadcast"
    REDUCE = "reduce"


class SessionManager(Protocol):
    """External authority over group-management actions."""

    def authorize(self, client: ClientId, action: GroupAction, group: GroupId) -> bool:
        """Return True when *client* may perform *action* on *group*."""
        ...


class AllowAll:
    """Permissive default: every client may do everything."""

    def authorize(self, client: ClientId, action: GroupAction, group: GroupId) -> bool:
        return True


@dataclass
class AclSessionManager:
    """Access-control lists per (group, action).

    Unlisted (group, action) pairs fall back to ``default_allow``.  An
    entry maps to the set of permitted client ids; the wildcard ``"*"``
    permits everyone.
    """

    default_allow: bool = True
    _acl: dict[tuple[GroupId, GroupAction], set[ClientId]] = field(default_factory=dict)

    def restrict(self, group: GroupId, action: GroupAction, clients: set[ClientId]) -> None:
        """Limit *action* on *group* to *clients* (replaces prior entry)."""
        self._acl[(group, action)] = set(clients)

    def authorize(self, client: ClientId, action: GroupAction, group: GroupId) -> bool:
        allowed = self._acl.get((group, action))
        if allowed is None:
            return self.default_allow
        return "*" in allowed or client in allowed


class SessionCore(ProtocolCore):
    """Sans-io Hello handshake and the conn↔client tables behind it.

    Subclasses route ``Hello`` to :meth:`_on_hello`, resolve every other
    request's sender with :meth:`_client_of`, and call
    :meth:`_forget_conn` when a connection closes.
    """

    def __init__(self, config: "ServerConfig", clock: Clock) -> None:
        super().__init__()
        self.config = config
        self.clock = clock
        self._conn_client: dict[ConnId, ClientId] = {}
        self._client_conn: dict[ClientId, ConnId] = {}
        #: The peer of every open connection, as its host reported it.
        self._conn_addr: dict[ConnId, Any] = {}

    def handle_connected(self, conn: ConnId, peer: Any, key: str) -> None:
        if peer is not None:
            self._conn_addr[conn] = peer

    def _on_hello(self, conn: ConnId, msg: Hello) -> None:
        if msg.protocol_version != PROTOCOL_VERSION:
            self._reply_error(conn, 0, ProtocolError(
                f"protocol version {msg.protocol_version} not supported "
                f"(server speaks {PROTOCOL_VERSION})"
            ))
            self.emit(CloseConnection(conn))
            return
        if not self.config.authenticator.authenticate(msg.client_id, msg.token):
            self._reply_error(conn, 0, NotAuthorizedError(
                f"authentication failed for {msg.client_id!r}"
            ))
            self.emit(CloseConnection(conn))
            return
        stale = self._client_conn.get(msg.client_id)
        if stale is not None and stale != conn:
            # Reconnection: the old connection is dead weight; drop it.
            self._conn_client.pop(stale, None)
            self.emit(CloseConnection(stale))
        self._conn_client[conn] = msg.client_id
        self._client_conn[msg.client_id] = conn
        self.send(conn, HelloReply(server_id=self.config.server_id))

    def _client_of(self, conn: ConnId) -> ClientId:
        client = self._conn_client.get(conn)
        if client is None:
            raise ProtocolError("request before Hello handshake")
        return client

    def _on_ping(self, conn: ConnId, msg: PingRequest) -> None:
        self._client_of(conn)
        self.send(conn, PingReply(msg.request_id, self.clock.now()))

    def _forget_conn(self, conn: ConnId) -> ClientId | None:
        """Drop *conn* from the tables; returns the client it carried
        (None when it never completed a handshake).  A client that
        already reconnected keeps its newer connection."""
        self._conn_addr.pop(conn, None)
        client = self._conn_client.pop(conn, None)
        if client is not None and self._client_conn.get(client) == conn:
            del self._client_conn[client]
        return client

    def _reply_error(self, conn: ConnId, request_id: int, err: CoronaError) -> None:
        self.send(conn, ErrorReply(request_id, err.code, str(err)))
