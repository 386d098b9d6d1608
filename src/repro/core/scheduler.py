"""Dependency-aware optimistic parallel execution inside one group.

Sharding (PR 4) parallelizes *across* groups; within a single hot group
sequencing, execution, and fan-out remained strictly serial — the one
axis sharding cannot help with.  Following the optimistic parallel
state-machine-replication design (Marandi & Pedone), commands whose
dependency sets are disjoint may *execute* concurrently as long as they
*commit* in sequence order; the paper's §4.1 ordering contract is a
property of the commit order, not of the execution order.

The model here is a two-phase split of the broadcast fast path:

* **submit** (serial, arrival order) — the command is validated and
  sequenced exactly as on the serial path, so sequence numbers and
  record timestamps are byte-identical.  Its *dependency set* is the
  object id it writes plus every object whose lock the sender holds;
  the current version (``SharedObject.last_seqno``) of each dependency
  is captured as the command's *observed versions*.
* **execute** (parallel, on execution lanes) — frame preparation: the
  record's WAL payload and the ``Delivery`` fan-out frame are encoded
  and cached.  Execution reads **no mutable group state**, so
  speculative executions can never race each other; what speculation
  can get wrong is only the *version* its observations were based on.
* **commit** (serial, strict seqno order) — the observed versions are
  revalidated; a command whose dependencies moved (an earlier command
  in the window wrote an overlapping object) counts a conflict and is
  re-executed serially.  The commit then replays the serial tail
  exactly: ``apply_and_deliver`` (log append, state apply, WAL effect,
  fan-out), the ``Ack``, and the ``group_sequenced`` hook — so the
  effect stream content is identical to serial execution per
  connection and per group.

Barriers: ``bcastState`` (whole-object override), membership changes,
locks, reduction, and connection closes flush the open window before
they run — they must observe fully committed state (see
``ServerCore.handle_message`` / ``GroupRuntime.broadcast``).

Backends: the asyncio shard worker drains its mailbox greedily into a
window and runs execution on a real thread pool
(:class:`ThreadPoolEngine`); the simulator executes inline but charges
each execution on a modeled CPU lane chosen by :func:`stable_lane`, so
windows, conflicts, and lane assignment are deterministic and identical
run to run (``repro/sim/shard.py``).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.core.ids import ClientId, ConnId, GroupId, ObjectId, SeqNo
from repro.core.interpreter import DispatchStats
from repro.wire import frames
from repro.wire.messages import (
    Ack,
    Delivery,
    DeliveryMode,
    UpdateKind,
    UpdateRecord,
)

if TYPE_CHECKING:
    from repro.core.group_runtime import GroupRuntime
    from repro.core.server import ServerCore

__all__ = [
    "CommandScheduler",
    "CommitReport",
    "ExecutionEngine",
    "ScheduledCommand",
    "ThreadPoolEngine",
    "stable_lane",
]


def stable_lane(key: str, lanes: int) -> int:
    """Deterministic lane for *key* — stable across processes and runs.

    SHA-1 based like :class:`~repro.runtime.sharding.ShardRouter`'s ring
    (``hash()`` varies per process under ``PYTHONHASHSEED``), so the sim
    mirror assigns the same lanes every run and traces stay identical.
    """
    if lanes <= 1:
        return 0
    digest = hashlib.sha1(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") % lanes


@dataclass
class ScheduledCommand:
    """One sequenced broadcast waiting in the speculation window."""

    runtime: "GroupRuntime"
    conn: ConnId
    client: ClientId
    record: UpdateRecord
    mode: DeliveryMode
    request_id: int
    #: Object ids this command depends on: the object it writes plus
    #: every object whose lock the sender holds.
    deps: tuple[ObjectId, ...]
    #: ``(object_id, version)`` captured at submit; ``None`` version
    #: means the object did not exist yet.
    observed: tuple[tuple[ObjectId, SeqNo | None], ...]
    #: Execution lane (modeled on sim, advisory on asyncio).
    lane: int
    delivery: Delivery | None = None
    future: Future | None = None
    #: Race-recorder hop tokens (0 = instrumentation off).
    dispatch_token: int = 0
    join_token: int = 0
    conflicted: bool = False


@dataclass(frozen=True)
class CommitReport:
    """What one committed command looked like — consumed by the sim
    worker to charge modeled execution lanes after a flush."""

    group: GroupId
    seqno: SeqNo
    lane: int
    conflicted: bool
    #: Wire size of the sequenced record; the sim charges the execution
    #: (frame preparation) as ``send_cost(cost_bytes)`` on the lane.
    cost_bytes: int


class ExecutionEngine:
    """Inline execution: tasks run at dispatch, on the calling thread.

    The simulator uses this engine — real execution is cheap and the
    *modeled* cost is charged on CPU lanes by the sim shard worker.
    """

    def dispatch(self, cmd: ScheduledCommand, task: Callable[[], None]) -> None:
        task()

    def wait(self, cmd: ScheduledCommand) -> bool:
        """Block until *cmd*'s execution finished; True when the commit
        actually had to wait (a stall)."""
        return False

    def close(self) -> None:
        pass


class ThreadPoolEngine(ExecutionEngine):
    """Real concurrent execution on a thread pool (asyncio backend).

    Frame preparation is pure CPU work on immutable records, so tasks
    need no locks; the commit loop joins each future in seqno order.
    """

    def __init__(self, lanes: int, name: str = "corona-exec") -> None:
        self.lanes = max(1, lanes)
        self._pool = ThreadPoolExecutor(
            max_workers=self.lanes, thread_name_prefix=name
        )

    def dispatch(self, cmd: ScheduledCommand, task: Callable[[], None]) -> None:
        cmd.future = self._pool.submit(task)

    def wait(self, cmd: ScheduledCommand) -> bool:
        future = cmd.future
        if future is None:
            return False
        stalled = not future.done()
        future.result()
        return stalled

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class CommandScheduler:
    """Per-core optimistic scheduler: one speculation window at a time.

    Owned by a :class:`~repro.core.server.ServerCore` when
    ``ServerConfig.exec_lanes > 0``.  The worker loop brackets a mailbox
    batch with ``core.begin_batch()`` / ``core.end_batch()``; between
    the two, :meth:`~repro.core.group_runtime.GroupRuntime.broadcast`
    routes eligible commands through :meth:`submit` instead of the
    serial tail, and :meth:`flush` commits everything in seqno order.
    """

    def __init__(self, core: "ServerCore", lanes: int, window: int = 64) -> None:
        self.core = core
        self.lanes = max(1, lanes)
        #: Advisory cap on window size; the asyncio worker caps its
        #: mailbox drain at this, the sim worker force-flushes at it.
        self.window_limit = max(1, window)
        #: Counter sink.  Workers rebind this to their interpreter's
        #: stats so scheduler counters aggregate with everything else.
        self.stats = DispatchStats()
        self.engine: ExecutionEngine = ExecutionEngine()
        #: Optional repro.analysis.racecheck.RaceRecorder (duck-typed).
        self.recorder: Any = None
        self.lane_name = ""
        #: Reports of the most recent flush (sim charging input).
        self.last_flush: tuple[CommitReport, ...] = ()
        self._window: list[ScheduledCommand] = []
        self._active = False

    def bind_recorder(self, recorder: Any, lane_name: str) -> None:
        """Attach happens-before instrumentation: *lane_name* is the
        owning worker's lane; execution lanes record as
        ``<lane_name>.exec<k>`` with send/recv hop edges around each
        dispatched task, so the vector-clock replay sees the join that
        orders a lane's frame fill before the commit-side fan-out."""
        self.recorder = recorder
        self.lane_name = lane_name

    # -- window lifecycle ------------------------------------------------

    @property
    def active(self) -> bool:
        """True between ``begin_batch`` and ``end_batch``."""
        return self._active

    @property
    def pending(self) -> int:
        """Commands submitted but not yet committed."""
        return len(self._window)

    def open(self) -> None:
        self._active = True

    def close(self) -> None:
        """Commit everything pending and leave speculation mode."""
        self.flush()
        self._active = False

    # -- submit ----------------------------------------------------------

    def submit(
        self,
        runtime: "GroupRuntime",
        conn: ConnId,
        client: ClientId,
        msg: Any,
        kind: UpdateKind,
    ) -> None:
        """Sequence one validated broadcast and speculate its execution.

        The caller (``GroupRuntime.broadcast``) has already checked
        membership and role, and has already flushed for barrier kinds —
        only plain ``bcastUpdate`` commands reach this point.
        """
        group = runtime.group
        record = runtime.sequence(kind, msg.object_id, msg.data, client)
        held = group.locks.held_by(client)
        if msg.object_id in held:
            deps = held
        else:
            deps = (msg.object_id,) + held
        observed = tuple((dep, group.state.version(dep)) for dep in deps)
        cmd = ScheduledCommand(
            runtime=runtime,
            conn=conn,
            client=client,
            record=record,
            mode=msg.mode,
            request_id=msg.request_id,
            deps=deps,
            observed=observed,
            lane=stable_lane(f"{group.name}:{min(deps)}", self.lanes),
        )
        self._window.append(cmd)
        self._dispatch(cmd)

    def _dispatch(self, cmd: ScheduledCommand) -> None:
        recorder = self.recorder
        exec_name = f"{self.lane_name}.exec{cmd.lane}"
        if recorder is not None:
            cmd.dispatch_token = recorder.send(self.lane_name, f"mbox:{exec_name}")

        def task() -> None:
            if recorder is not None:
                recorder.recv(exec_name, f"mbox:{exec_name}", cmd.dispatch_token)
            delivery = self._prepare(cmd, exec_name)
            if recorder is not None:
                cmd.join_token = recorder.send(exec_name, f"mbox:{self.lane_name}")
            cmd.delivery = delivery

        self.engine.dispatch(cmd, task)

    def _prepare(self, cmd: ScheduledCommand, exec_name: str) -> Delivery:
        """The execution itself: pure frame preparation, no state reads."""
        frames.payload_of(cmd.record)  # warm the WAL/commit payload
        delivery = Delivery(cmd.runtime.name, cmd.record)
        if self.recorder is not None:
            # the fill must be recorded before the encode caches the
            # frame (a cached frame records as a read, not a write)
            self.recorder.wire_access(exec_name, delivery, loc="scheduler-exec")
        frames.encoded_frame(delivery)
        return delivery

    # -- commit ----------------------------------------------------------

    def flush(self) -> tuple[CommitReport, ...]:
        """Commit every pending command, strictly in seqno order."""
        self.last_flush = ()
        window = self._window
        if not window:
            return ()
        self._window = []
        if len(window) > 1:
            self.stats.commands_parallel += len(window)
        reports: list[CommitReport] = []
        for cmd in window:
            if self.engine.wait(cmd):
                self.stats.commit_stalls += 1
            if self.recorder is not None and cmd.join_token:
                self.recorder.recv(
                    self.lane_name, f"mbox:{self.lane_name}", cmd.join_token
                )
            if self._versions_moved(cmd):
                self.stats.conflicts += 1
                cmd.conflicted = True
                # optimistic fallback: re-execute serially with the
                # committed state visible (frame contents are a pure
                # function of the record, so the cached frames stand)
                if cmd.delivery is None:
                    cmd.delivery = self._prepare(
                        cmd, f"{self.lane_name}.exec{cmd.lane}"
                    )
                self.stats.reexecutions += 1
            self._commit(cmd)
            reports.append(
                CommitReport(
                    group=cmd.runtime.name,
                    seqno=cmd.record.seqno,
                    lane=cmd.lane,
                    conflicted=cmd.conflicted,
                    cost_bytes=frames.frame_size(cmd.record),
                )
            )
        self.last_flush = tuple(reports)
        return self.last_flush

    def _versions_moved(self, cmd: ScheduledCommand) -> bool:
        state = cmd.runtime.group.state
        for dep, version in cmd.observed:
            if state.version(dep) != version:
                return True
        return False

    def _commit(self, cmd: ScheduledCommand) -> None:
        """Replay the serial broadcast tail for one command."""
        runtime = cmd.runtime
        core = self.core
        runtime.apply_and_deliver(cmd.record, cmd.mode, delivery=cmd.delivery)
        core.send(cmd.conn, Ack(cmd.request_id))
        core.group_sequenced(runtime, cmd.record, cmd.mode, cmd.conn)
