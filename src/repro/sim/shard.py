"""Sharded simulated host: the kernel/``CpuLanes`` driver.

The sharding design itself is :mod:`repro.runtime.sharding` — the very
:class:`~repro.runtime.sharding.ShardFront`, sessions core and worker
item protocol the asyncio driver (:mod:`repro.runtime.shard`) runs.
This module supplies the simulated loops and the cost model: the front
runs on the host's lane 0 and charges ``recv_cost`` for every inbound
frame; each shard worker owns lane ``1 + index`` of a
:class:`CpuLanes`, and (when persistence is on) its own real
:class:`~repro.storage.GroupStore`.  Mailbox items post through the
kernel at zero delay — insertion-order tie-breaking keeps every mailbox
FIFO and every run reproducible.

While a worker processes an item the host's active lane is switched to
the worker's, so the fan-out ``send_cost`` and WAL charges land on the
shard's CPU, not the front's.  That models shards on separate cores —
what a process-per-shard driver would buy; the asyncio driver runs them
all on one loop — so groups on different shards burn CPU concurrently,
which is exactly what ``bench_shard_scaling`` predicts.  A worker's
sends go straight to the host's ``deliver_batch``, as under the asyncio
driver, so the counters (front + shards) match the asyncio host's and
the host-parity suite can compare them field by field.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.clock import Clock
from repro.core.interpreter import EffectBackend, Middleware
from repro.core.scheduler import stable_lane
from repro.core.server import ServerConfig
from repro.runtime.sharding import ShardFront, ShardWorkerBase, front_middlewares
from repro.sim.host import SimCosts, SimHost
from repro.sim.kernel import CpuLanes, EventHandle, SimKernel
from repro.sim.network import SimNetwork
from repro.sim.profiles import HostProfile
from repro.storage.store import GroupStore, RecoveredGroup
from repro.wire.messages import BcastStateRequest, BcastUpdateRequest

__all__ = ["ShardedSimHost"]

#: Routed messages that may start a speculation window.  ``bcastState``
#: itself barriers inside the runtime, but it keeps the window open for
#: updates that follow it in the same burst.
_WINDOW_OPENERS = (BcastStateRequest, BcastUpdateRequest)


class _SimShardWorker(SimCosts, ShardWorkerBase):
    """One shard under simulation: CPU lane ``1 + index`` plus a private
    store; work arrives via kernel events posted by the front."""

    def __init__(
        self,
        host: "ShardedSimHost",
        index: int,
        config: ServerConfig,
        clock: Clock,
        recovered: dict[str, RecoveredGroup] | None,
        store: GroupStore | None,
        race_recorder: Any = None,
    ) -> None:
        super().__init__(host, index, config, clock, recovered, store, race_recorder)
        self.lane = 1 + index
        # -- optimistic-scheduler model (repro.core.scheduler) ---------
        self._sched = self.core.scheduler
        self._exec_lanes = max(0, config.exec_lanes)
        #: First CpuLanes index of this shard's execution lanes.
        self._exec_base = 1 + host.shards + index * self._exec_lanes
        #: Monotonic window id; a scheduled flush event for a window that
        #: already closed (force-flush or barrier) sees a newer id and
        #: no-ops, so every window flushes exactly once.
        self._generation = 0
        self._spreading = False
        #: ``(group, seqno) -> modeled execution-done time`` of the
        #: window just flushed; placement floors fan-out charges on it.
        self._exec_done: dict[tuple, float] = {}
        self._conflicted: set[tuple] = set()
        #: Set by :meth:`stop` (shard restart / host crash): events
        #: already scheduled against this worker object become no-ops,
        #: the modeled version of a crashed shard's mailbox draining into
        #: the void (the asyncio driver's graceful ``stop`` drains first).
        self.closed = False

    @property
    def _machine(self) -> SimHost:
        return self._host  # costs land on the host's lanes and disk

    # -- mailbox ---------------------------------------------------------

    def post(self, item: Any) -> None:
        # Zero-delay kernel events; insertion-order tie-breaking makes
        # this a deterministic FIFO mailbox per shard.  The event is
        # bound to this worker object: items posted before a restart die
        # with the old worker (its ``closed`` flag), like a crashed
        # shard's mailbox.
        self._host.kernel.schedule(0.0, self.process, item)

    def process(self, item: tuple) -> None:
        """Handle one mailbox item on this shard's CPU lane."""
        if self.closed or not self._host.alive:
            return
        item = self._unwrap(item)
        prev = self._host._lane
        self._host._lane = self.lane
        try:
            if (
                self._sched is not None
                and not self._sched.active
                and item[0] == "message"
                and type(item[2]) in _WINDOW_OPENERS
            ):
                self._open_window()
            self.process_item(item)
            if (
                self._sched is not None
                and self._sched.active
                and self._sched.pending >= self.core.config.exec_window
            ):
                # force-flush a full window right away: exec_window
                # caps the commands one window speculates on
                self._flush_window(self._generation)
        finally:
            self._host._lane = prev

    @contextmanager
    def _on_lane(self) -> Iterator[None]:
        """Charge everything inside to this shard's home lane, not the
        front's (the per-item paths above and below inline the same
        save/restore: a generator per mailbox item is measurable)."""
        host = self._host
        prev = host._lane
        host._lane = self.lane
        try:
            yield
        finally:
            host._lane = prev

    # -- speculation windows ----------------------------------------------

    def _open_window(self) -> None:
        """Start speculating: the window stays open while the shard's
        lanes are busy and flushes when they would all go idle.

        The flush event lands when the *previous* window's modeled work
        (home-lane commits plus execution-lane charges) drains, so the
        window collects every broadcast that arrives in that span —
        window sizes self-regulate to the offered load, the
        deterministic mirror of the asyncio worker's greedy mailbox
        drain between wakeups.
        """
        host = self._host
        self.core.begin_batch()
        self._generation += 1
        flush_at = max(host.kernel.now(), host._lanes.free_at(self.lane))
        for k in range(self._exec_lanes):
            flush_at = max(flush_at, host._lanes.free_at(self._exec_base + k))
        host.kernel.schedule_at(flush_at, self._flush_window, self._generation)

    def _flush_window(self, generation: int) -> None:
        host = self._host
        if (
            self.closed
            or not host.alive
            or self._sched is None
            or not self._sched.active
            or generation != self._generation
        ):
            return
        self._spreading = True
        try:
            with self._on_lane():
                effects = self.core.end_batch()
                self._charge_window(self._sched.last_flush)
                self.interpreter.execute(effects)
        finally:
            self._spreading = False
            self._exec_done = {}
            self._conflicted = set()
        # a barrier mid-batch may have closed and reopened the window;
        # bumping the generation here would orphan that reopened window,
        # so only the guard above (active flag) handles reentry

    def _charge_window(self, reports: tuple) -> None:
        """Model the execution lanes for one flushed window.

        Each commit's frame preparation is charged ``send_cost`` on its
        assigned execution lane.  A conflicted command burns its lane
        (the wasted optimistic attempt) *and* the home lane (the serial
        re-execution).  When an execution finishes after the home lane
        would commit, the home lane stalls — the modeled counterpart of
        a thread-pool ``future.result()`` wait.
        """
        host = self._host
        if not reports or self._exec_lanes < 1:
            return
        lanes = host._lanes
        now = host.kernel.now()
        stats = self.interpreter.stats
        for r in reports:
            cost = host.profile.send_cost(r.cost_bytes)
            key = (r.group, r.seqno)
            if r.conflicted:
                lanes.occupy(self._exec_base + r.lane, cost, now)
                self._exec_done[key] = lanes.occupy(self.lane, cost, now)
                self._conflicted.add(key)
                continue
            done = lanes.occupy(self._exec_base + r.lane, cost, now)
            self._exec_done[key] = done
            if done > lanes.free_at(self.lane):
                stats.commit_stalls += 1
                lanes.stall(self.lane, done)

    def _placement(self, conn: int, messages: list) -> tuple[int, float]:
        """CPU lane + earliest-start floor for sending *messages*.

        While a flushed window's effects drain, pure ``Delivery`` runs
        for records this window executed spread over the shard's
        execution lanes (keyed by connection, so per-connection FIFO
        holds); anything else — Acks, grants, conflicted or foreign
        records — stays on the home lane.  The floor couples a fan-out
        charge to its record's modeled execution completion.
        """
        host = self._host
        if not self._spreading or self._exec_lanes < 1:
            return host._lane, host._exec_floor
        floor = 0.0
        home = False
        saw_delivery = False
        for message in messages:
            record = getattr(message, "update", None)
            if record is None:
                home = True
                continue
            saw_delivery = True
            key = (message.group, record.seqno)
            floor = max(floor, self._exec_done.get(key, 0.0))
            if key in self._conflicted or key not in self._exec_done:
                home = True
        if home or not saw_delivery:
            return self.lane, floor
        lane = self._exec_base + stable_lane(f"conn:{conn}", self._exec_lanes)
        return lane, floor

    # -- EffectBackend: sends (straight to the host's outboxes) ----------

    def deliver(self, conn: int, message: Any) -> bool:
        return self.deliver_batch(conn, [message])

    def deliver_batch(self, conn: int, messages: list[Any]) -> bool:
        # the host's send charges land where the model says this shard
        # would have done the work
        host = self._host
        prev = host._lane, host._exec_floor
        host._lane, host._exec_floor = self._placement(conn, messages)
        try:
            return super().deliver_batch(conn, messages)
        finally:
            host._lane, host._exec_floor = prev

    def deliver_fanout(self, conns: Sequence[int], message: Any) -> int:
        # recipient by recipient, not the base worker's one host call:
        # each one's charge lands on the lane its connection maps to
        return EffectBackend.deliver_fanout(self, conns, message)

    def migration_event_delay(self, method: str, args: tuple) -> float:
        # streaming the frozen group's state dominates the handoff;
        # charging it as one bulk send in virtual time makes freeze
        # windows (and the mid-migration interleavings the chaos tests
        # crash into) non-degenerate instead of instantaneous
        if method == "migration_snapshot":
            return self._host.profile.send_cost(args[2].size_bytes())
        return 0.0

    def adopt_group_storage(self, snap: Any) -> None:
        # the WAL segment handoff costs one bulk write on the shared disk
        host = self._host
        host._occupy_cpu(host.profile.log_overhead)
        host.disk.write(snap.size_bytes())
        super().adopt_group_storage(snap)

    # -- EffectBackend: timers --------------------------------------------

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        return self._host.kernel.schedule(delay, fn, *args)

    def _fire_timer(self, key: str) -> None:
        self._timers.pop(key, None)
        if self.closed or not self._host.alive:
            return
        with self._on_lane():
            self._host._occupy_cpu(self._host.profile.timer_overhead)
            self.interpreter.execute(self.core.on_timer(key))

    # -- lifecycle ----------------------------------------------------------

    def stop(self) -> None:
        self.closed = True
        self._cancel_timers()
        if self.store is not None:
            self.store.close()
        # the crash drops whatever CPU work the lanes had queued
        host = self._host
        host._lanes.set_free(self.lane, host.kernel.now())
        for k in range(self._exec_lanes):
            host._lanes.set_free(self._exec_base + k, host.kernel.now())


class ShardedSimHost(ShardFront, SimHost):
    """One simulated machine with a front lane and N shard lanes."""

    #: Every lane runs on the kernel's one thread, so harness and tests
    #: may look inside a worker; the narrowed type tells deepcheck so.
    worker_class = _SimShardWorker
    workers: list[_SimShardWorker]

    def __init__(
        self,
        kernel: SimKernel,
        network: SimNetwork,
        host_id: str,
        segment: str,
        profile: HostProfile,
        config: ServerConfig,
        shards: int,
        store_root: str | Path | None = None,
        sync_logging: bool = False,
        middlewares: Iterable[Middleware] = (),
        core_clock: Clock | None = None,
        race_recorder: Any = None,
        flow: Any = None,
    ) -> None:
        ShardFront.__init__(
            self, config, shards,
            core_clock if core_clock is not None else kernel,
            store_root, race_recorder,
        )
        SimHost.__init__(
            self,
            kernel,
            network,
            host_id,
            segment,
            profile,
            store=None,  # storage is per shard, not host-wide
            sync_logging=sync_logging,
            middlewares=front_middlewares(middlewares, race_recorder),
            flow=flow,
        )
        # lane 0 = front, lanes 1..shards = worker home lanes, then
        # exec_lanes modeled execution lanes per shard for the
        # optimistic intra-group scheduler
        exec_lanes = max(0, config.exec_lanes)
        self._lanes = CpuLanes(1 + shards + shards * exec_lanes)
        # the sessions core runs on lane 0
        self.set_core(self.sessions)
        self.start_workers()

    # -- failure ----------------------------------------------------------

    def crash(self) -> None:
        if not self.alive:
            return
        for worker in self.workers:
            worker.stop()
        super().crash()
