"""Hypothesis property: optimistic parallel execution ≡ serial execution.

For ANY stream of broadcast commands with ANY object-id overlap (random
conflicts), running the stream through a batched core with the optimistic
scheduler must produce exactly the serial core's output: the same effect
stream (deliveries, acks, WAL appends — same frames, same order), the
same sequence numbers, and the same final materialized state.  Barrier
commands (``bcastState``) are mixed in to exercise the window flush.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.events import AppendWal
from repro.core.server import ServerConfig, ServerCore
from repro.wire.messages import (
    BcastStateRequest,
    BcastUpdateRequest,
    Delivery,
    Hello,
    JoinGroupRequest,
)
from tests.core.helpers import CoreDriver, sends_in

CLIENTS = ("alice", "bob", "carol")
#: A small pool forces real overlap; hypothesis picks how much.
OBJECTS = ("o0", "o1", "o2", "o3", "hot")

commands = st.lists(
    st.tuples(
        st.sampled_from(CLIENTS),
        st.sampled_from(OBJECTS),
        st.binary(min_size=0, max_size=6),
        st.booleans(),  # True -> bcastState (a whole-state barrier)
    ),
    min_size=1,
    max_size=24,
)


def _run(stream, exec_lanes, window=64):
    config = ServerConfig(
        server_id="s1", exec_lanes=exec_lanes, exec_window=window, persist=True
    )
    driver = CoreDriver(ServerCore(config, ManualClock()))
    conns = {}
    for i, name in enumerate(CLIENTS):
        conn = driver.connect()
        driver.deliver(conn, Hello(client_id=name))
        if i == 0:
            from repro.wire.messages import CreateGroupRequest

            driver.deliver(conn, CreateGroupRequest(1, "g"))
        driver.deliver(conn, JoinGroupRequest(2, "g"))
        conns[name] = conn
    before = len(driver.effects)

    if exec_lanes:
        driver.core.begin_batch()
    for rid, (sender, object_id, data, is_state) in enumerate(stream, start=10):
        cls = BcastStateRequest if is_state else BcastUpdateRequest
        driver.deliver(conns[sender], cls(rid, "g", object_id, data))
    if exec_lanes:
        driver.effects.extend(driver.core.end_batch())

    effects = driver.effects[before:]
    group = driver.core.groups["g"]
    sends = list(sends_in(effects))
    wal = [(e.group, e.seqno, e.record) for e in effects if isinstance(e, AppendWal)]
    seqnos = [
        m.update.seqno for _, m in sends
        if isinstance(m, Delivery) and _ == conns["alice"]
    ]
    return sends, wal, seqnos, group.state.materialize_all()


@given(commands)
@settings(deadline=None, max_examples=60)
def test_parallel_output_equals_serial(stream):
    serial = _run(stream, exec_lanes=0)
    parallel = _run(stream, exec_lanes=3)
    assert parallel == serial


@given(commands, st.integers(1, 6))
@settings(deadline=None, max_examples=30)
def test_equivalence_holds_for_any_lane_count(stream, lanes):
    assert _run(stream, exec_lanes=lanes) == _run(stream, exec_lanes=0)
