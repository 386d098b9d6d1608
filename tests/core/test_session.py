"""Tests for session-manager authorization and the shared handshake."""

import pytest

from repro.core.auth import TokenAuthenticator
from repro.core.clock import ManualClock
from repro.core.events import CloseConnection, SendMessage
from repro.core.server import ServerConfig, ServerCore
from repro.core.session import AclSessionManager, AllowAll, GroupAction
from repro.runtime.sharding import ShardRouter, ShardSessions
from repro.wire.messages import (
    PROTOCOL_VERSION,
    ErrorReply,
    Hello,
    HelloReply,
    PingRequest,
)


class TestAllowAll:
    def test_everything_permitted(self):
        manager = AllowAll()
        for action in GroupAction:
            assert manager.authorize("anyone", action, "any-group")


class TestAcl:
    def test_default_allow(self):
        manager = AclSessionManager()
        assert manager.authorize("alice", GroupAction.JOIN, "g")

    def test_default_deny(self):
        manager = AclSessionManager(default_allow=False)
        assert not manager.authorize("alice", GroupAction.JOIN, "g")

    def test_restriction_enforced(self):
        manager = AclSessionManager()
        manager.restrict("g", GroupAction.DELETE, {"admin"})
        assert manager.authorize("admin", GroupAction.DELETE, "g")
        assert not manager.authorize("alice", GroupAction.DELETE, "g")

    def test_restriction_scoped_to_group_and_action(self):
        manager = AclSessionManager()
        manager.restrict("g", GroupAction.DELETE, {"admin"})
        assert manager.authorize("alice", GroupAction.DELETE, "other")
        assert manager.authorize("alice", GroupAction.JOIN, "g")

    def test_wildcard(self):
        manager = AclSessionManager(default_allow=False)
        manager.restrict("g", GroupAction.JOIN, {"*"})
        assert manager.authorize("anyone", GroupAction.JOIN, "g")

    def test_replacing_restriction(self):
        manager = AclSessionManager()
        manager.restrict("g", GroupAction.CREATE, {"a"})
        manager.restrict("g", GroupAction.CREATE, {"b"})
        assert not manager.authorize("a", GroupAction.CREATE, "g")
        assert manager.authorize("b", GroupAction.CREATE, "g")


# ---------------------------------------------------------------------------
# the Hello handshake: one SessionCore behind both server fronts
# ---------------------------------------------------------------------------

def _flat(config):
    return ServerCore(config, ManualClock())


def _sharded(config):
    return ShardSessions(
        config, ManualClock(), ShardRouter(2), 2, post=lambda shard, item: None
    )


def _config():
    return ServerConfig(
        server_id="srv", persist=False,
        authenticator=TokenAuthenticator({"alice": "s3cret"}),
    )


#: name -> [(conn, message), ...] fed in order; every step's effect list
#: must be identical on a flat core and on the sharded front.
HANDSHAKE_CASES = {
    "wrong version": [
        (1, Hello("alice", protocol_version=PROTOCOL_VERSION + 1, token="s3cret")),
    ],
    "bad token": [(1, Hello("alice", token="guess"))],
    "reconnect evicts the stale connection": [
        (1, Hello("alice", token="s3cret")),
        (2, Hello("alice", token="s3cret")),
        (1, PingRequest(7)),  # the evicted connection is unknown again
        (2, PingRequest(8)),
    ],
    "request before Hello": [(1, PingRequest(9))],
}


@pytest.mark.parametrize("case", sorted(HANDSHAKE_CASES))
def test_handshake_effects_match_on_both_cores(case):
    flat, sharded = _flat(_config()), _sharded(_config())
    trace = []
    for conn, message in HANDSHAKE_CASES[case]:
        effects = flat.on_message(conn, message)
        assert effects == sharded.on_message(conn, message), (case, message)
        trace.extend(effects)
    # and the shared handshake says what each case expects it to say
    kinds = [
        type(e.message).__name__ if isinstance(e, SendMessage) else type(e).__name__
        for e in trace
    ]
    assert kinds == {
        "wrong version": ["ErrorReply", "CloseConnection"],
        "bad token": ["ErrorReply", "CloseConnection"],
        "reconnect evicts the stale connection": [
            "HelloReply", "CloseConnection", "HelloReply", "ErrorReply", "PingReply",
        ],
        "request before Hello": ["ErrorReply"],
    }[case]
    closes = [e.conn for e in trace if isinstance(e, CloseConnection)]
    assert closes == ([] if case == "request before Hello" else [1])
    for effect in trace:
        if isinstance(effect, SendMessage) and isinstance(effect.message, HelloReply):
            assert effect.message.server_id == "srv"
        if isinstance(effect, SendMessage) and isinstance(effect.message, ErrorReply):
            assert effect.message.code.startswith("corona.")
