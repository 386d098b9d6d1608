"""Model-based property test: the client core's join lifecycle.

Hypothesis drives one ClientCore against a scripted server: FULL and
chunked joins, chunk and delivery arrivals in any order the two lanes
of a connection outbox allow, live broadcasts mid-stream, leaves, group
deletion, connection loss with the resume accepted or refused, and
request timeouts.  After every step:

* every application join has had exactly one reply once it ended, and
  none while it is pending;
* a group's chunk stream, if any, belongs to a pending join, and reads
  only the chunks the server sent for that join;
* once nothing is in flight, the replica equals the served snapshot
  plus every delivery after it, and every per-request table is empty.

The server queues its frames on two FIFO lanes (docs/flow-control.md
§2.1).  A control frame may overtake chunks queued before it, as on a
parked connection, and the deliveries of a membership a leave ended:
the leave's ``Ack`` and a new join's reply may reach the client ahead
of them, and the new replica already holds what they carry.  It never
overtakes a live membership's delivery, nor one from before the group
was deleted and created again.
"""

import itertools
import os
from collections import Counter, deque

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.client import TIMER_RECONNECT, ClientConfig, ClientCore
from repro.core.clock import ManualClock
from repro.core.events import NOTIFY_REPLY, CancelTimer, Notify, SendMessage, StartTimer
from repro.core.transfer import chunk_marker
from repro.wire import frames
from repro.wire.messages import (
    Ack,
    ChunkAck,
    Delivery,
    ErrorReply,
    GroupDeletedNotice,
    Hello,
    HelloReply,
    JoinGroupRequest,
    JoinReply,
    LeaveGroupRequest,
    ObjectState,
    StateChunk,
    StateSnapshot,
    TransferResume,
    TransferSpec,
    UpdateKind,
    UpdateRecord,
)

GROUP = "g"
CHUNK_BYTES = 64
#: CI runs this suite in its own step with a larger budget.
EXAMPLES = int(os.environ.get("CORONA_CLIENT_MODEL_EXAMPLES", "60"))


class _ScriptedServer:
    """A Corona server for one client and one group, reduced to what a
    join sees.  It answers every request at once and queues every chunk
    of a stream with its marker: an unbounded window, so an abandoned
    stream leaves the longest tail it can."""

    def __init__(self) -> None:
        self.control: deque = deque()
        self.bulk: deque = deque()
        self._order = itertools.count()
        self._transfer_ids = itertools.count(1)
        self.accept_resume = True
        #: The transfer id of each chunked join, by request id.
        self.transfer_of: dict[int, int] = {}
        self._recreate(bytes(range(200)))

    def _recreate(self, data: bytes) -> None:
        #: Deliveries queued before this mark belong to a deleted group.
        self.created_at = next(self._order)
        #: Deliveries queued before this mark belong to a left membership.
        self.left_at = self.created_at
        self.data = data
        self.records: list[UpdateRecord] = []
        self.next_seqno = 1
        self.member = False
        #: (transfer id, snapshot, payload) of the resumable stream
        self.stream = None

    def _queue(self, lane: deque, message) -> None:
        lane.append((next(self._order), message))

    def _snapshot(self) -> StateSnapshot:
        return StateSnapshot(
            GROUP, self.next_seqno - 1, (ObjectState("o", self.data),), (),
            self.next_seqno,
        )

    def _send_chunks(self, transfer_id: int, payload: bytes, offset: int) -> None:
        for start in range(offset, len(payload), CHUNK_BYTES):
            end = min(start + CHUNK_BYTES, len(payload))
            self._queue(self.bulk, StateChunk(
                GROUP, transfer_id, start, payload[start:end], len(payload),
                end == len(payload),
            ))

    # -- the client's requests ---------------------------------------------

    def handle(self, message) -> None:
        if isinstance(message, Hello):
            self._queue(self.control, HelloReply(server_id="s"))
        elif isinstance(message, JoinGroupRequest):
            if self.member:
                self._queue(self.control, ErrorReply(
                    message.request_id, "corona.already_member", ""
                ))
                return
            self.member = True
            snapshot = self._snapshot()
            if not message.transfer.chunked:
                self.stream = None
                self._queue(self.control, JoinReply(message.request_id, snapshot, ()))
                return
            payload = frames.payload_of(snapshot)
            self.stream = (next(self._transfer_ids), snapshot, payload)
            self.transfer_of[message.request_id] = self.stream[0]
            self._queue(self.control, JoinReply(
                message.request_id, chunk_marker(snapshot), ()
            ))
            self._send_chunks(self.stream[0], payload, 0)
        elif isinstance(message, LeaveGroupRequest):
            if not self.member:
                self._queue(self.control, ErrorReply(
                    message.request_id, "corona.not_a_member", ""
                ))
                return
            self.member, self.stream = False, None
            self._queue(self.control, Ack(message.request_id))
            self.left_at = next(self._order)
        elif isinstance(message, ChunkAck):
            if (self.stream is not None and message.transfer_id == self.stream[0]
                    and message.offset == len(self.stream[2])):
                self.stream = None  # done: nothing left to resume
        elif isinstance(message, TransferResume):
            if (not self.accept_resume or self.stream is None
                    or message.transfer_id != self.stream[0]):
                self.stream = None
                self._queue(self.control, ErrorReply(
                    message.request_id, "corona.stale_state", ""
                ))
                return
            transfer_id, snapshot, payload = self.stream
            self.member = True
            self._queue(self.control, JoinReply(
                message.request_id, chunk_marker(snapshot), ()
            ))
            for record in self.records:
                if record.seqno > message.have_seqno:
                    self._queue(self.bulk, Delivery(GROUP, record))
            self._send_chunks(transfer_id, payload, message.offset)
        else:
            raise AssertionError(f"unexpected request {message!r}")

    # -- what happens at the server meanwhile ------------------------------

    def broadcast(self, data: bytes) -> None:
        record = UpdateRecord(
            self.next_seqno, UpdateKind.UPDATE, "o", data, "other", 0.0
        )
        self.records.append(record)
        self.data += data
        self.next_seqno += 1
        if self.member:
            self._queue(self.bulk, Delivery(GROUP, record))

    def delete_and_recreate(self) -> None:
        if self.member:
            self._queue(self.control, GroupDeletedNotice(GROUP))
        self._recreate(b"fresh" * 40)

    def lose_connection(self) -> None:
        """Frames in flight are lost; the member fails; a stream's
        session survives for a resume."""
        self.control.clear()
        self.bulk.clear()
        self.member = False

    def next_frame(self, overtake: bool):
        """The next frame the client reads.  Bulk never overtakes an
        earlier control frame; control overtakes queued chunks and the
        deliveries of a left membership when *overtake* is set, and never
        another queued delivery."""
        control, bulk = self.control, self.bulk
        if control and (
            not bulk or control[0][0] < bulk[0][0]
            or (overtake and not any(
                isinstance(m, Delivery) and order < control[0][0]
                and not self.created_at < order < self.left_at
                for order, m in bulk
            ))
        ):
            return control.popleft()[1]
        return bulk.popleft()[1]


class ClientModelMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.core = ClientCore(
            ClientConfig("c", auto_reconnect=True, reconnect_backoff=1.0),
            ManualClock(),
        )
        self.server = _ScriptedServer()
        self._conn_ids = itertools.count(100)
        self.timers: set[str] = set()
        self.joins: set[int] = set()
        self.replies: Counter = Counter()
        #: A request timed out on this connection: the server may have
        #: acted on it without the client knowing (a late reply is
        #: ignored), so holding a replica no longer tracks membership.
        self.timed_out = False
        self.core.connect(("server", 1))
        self._run(self.core.drain())
        self._dial()

    def _dial(self) -> None:
        self.conn = next(self._conn_ids)
        self._run(self.core.on_connected(self.conn, peer="s", key="server"))
        # the handshake completes before anything else is read
        self._run(self.core.on_message(self.conn, self.server.next_frame(False)))

    def _run(self, effects) -> None:
        for effect in effects:
            if isinstance(effect, SendMessage):
                assert effect.conn == self.conn
                self.server.handle(effect.message)
            elif isinstance(effect, StartTimer):
                self.timers.add(effect.key)
            elif isinstance(effect, CancelTimer):
                self.timers.discard(effect.key)
            elif isinstance(effect, Notify) and effect.kind == NOTIFY_REPLY:
                if effect.payload.request_id in self.joins:
                    self.replies[effect.payload.request_id] += 1

    def _in_flight(self) -> bool:
        return bool(self.server.control or self.server.bulk)

    # -- rules ---------------------------------------------------------------

    @rule(chunked=st.booleans())
    def join(self, chunked):
        rid = self.core.join_group(GROUP, transfer=TransferSpec(chunked=chunked))
        self.joins.add(rid)
        self._run(self.core.drain())

    @rule(then_join=st.booleans(), chunked=st.booleans())
    def leave(self, then_join, chunked):
        """Leave, and maybe pipeline a join of the group behind it."""
        self.core.leave_group(GROUP)
        self._run(self.core.drain())
        if then_join:
            self.join(chunked)

    @precondition(lambda self: self._in_flight())
    @rule(overtakes=st.lists(st.booleans(), min_size=1, max_size=4))
    def read_frames(self, overtakes):
        """Read up to one frame per flag; a set flag lets a control
        frame overtake the chunks queued before it."""
        for overtake in overtakes:
            if not self._in_flight():
                return
            message = self.server.next_frame(overtake)
            self._run(self.core.on_message(self.conn, message))

    @rule(data=st.binary(min_size=1, max_size=8))
    def live_broadcast(self, data):
        self.server.broadcast(data)

    @rule()
    def delete_group(self):
        self.server.delete_and_recreate()

    @rule(accept_resume=st.booleans())
    def lose_and_restore_connection(self, accept_resume):
        self.server.accept_resume = accept_resume
        self.server.lose_connection()
        self._run(self.core.on_closed(self.conn))
        self.timed_out = False  # the reconnect rejoins what it holds
        assert TIMER_RECONNECT in self.timers
        self.timers.discard(TIMER_RECONNECT)
        self._run(self.core.on_timer(TIMER_RECONNECT))
        self._dial()

    @precondition(lambda self: any(k.startswith("req-") for k in self.timers))
    @rule(data=st.data())
    def request_times_out(self, data):
        key = data.draw(st.sampled_from(
            sorted(k for k in self.timers if k.startswith("req-"))
        ))
        self.timers.discard(key)
        self.timed_out = True
        self._run(self.core.on_timer(key))

    # -- invariants ------------------------------------------------------------

    @invariant()
    def a_join_is_answered_once_when_it_ends(self):
        for rid in self.joins:
            assert self.replies[rid] == (0 if rid in self.core._pending else 1)

    @invariant()
    def a_stream_belongs_to_a_pending_join(self):
        for group, join in self.core._streams.items():
            assert join.group == group
            assert self.core._joins.get(join.request_id) is join
            assert join.request_id in self.core._pending
            if join.transfer_id >= 0:  # it adopted its own stream
                assert join.transfer_id == self.server.transfer_of[join.request_id]

    @invariant()
    def a_quiet_replica_is_the_snapshot_plus_what_followed(self):
        if self._in_flight():
            return
        view = self.core.views.get(GROUP)
        if not self.timed_out:
            assert (view is not None) == self.server.member
        if view is None or not self.server.member:
            return
        assert view.state.get("o").materialized() == self.server.data
        assert view.next_seqno == self.server.next_seqno

    @invariant()
    def nothing_in_flight_leaves_no_request_state(self):
        if self._in_flight():
            return
        core = self.core
        tables = {
            name: getattr(core, name)
            for name in ("_pending", "_pending_bcast", "_joins", "_streams",
                         "_unstarted", "_leaving")
        }
        assert not any(tables.values()), tables


TestClientModel = ClientModelMachine.TestCase
TestClientModel.settings = settings(
    max_examples=EXAMPLES, stateful_step_count=40, deadline=None,
    derandomize=True,
)
