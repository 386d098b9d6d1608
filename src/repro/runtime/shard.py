"""Group-sharded parallel service: the asyncio/thread driver.

The sharding design itself — router, front sessions core, worker item
protocol, migration, restart, the control loop — is backend-free and
lives in :mod:`repro.runtime.sharding`.  This module only supplies the
event loops:

* :class:`ShardedHost` is the front: an
  :class:`~repro.runtime.host.AsyncioHost` that owns the listening
  socket and runs the :class:`~repro.runtime.sharding.ShardSessions`
  core; worker relays reach it through ``call_soon_threadsafe``.
* Each shard is a :class:`_ShardWorker`: a daemon thread with its own
  asyncio event loop, fed through a bounded FIFO mailbox, and a
  :class:`~repro.core.scheduler.ThreadPoolEngine` when the optimistic
  scheduler is on.

The simulator's driver for the same design is :mod:`repro.sim.shard`.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.clock import Clock, MonotonicClock
from repro.core.interpreter import Middleware
from repro.core.scheduler import ThreadPoolEngine
from repro.core.server import ServerConfig
from repro.net.transport import Transport
from repro.runtime.host import AsyncioHost
from repro.runtime.sharding import (
    ShardFront,
    ShardRouter,
    ShardSessions,
    ShardWorkerBase,
    aggregate_stats,
    front_middlewares,
    shard_config,
)
from repro.storage.store import GroupStore, RecoveredGroup

__all__ = [
    "ShardFront",
    "ShardRouter",
    "ShardSessions",
    "ShardWorkerBase",
    "ShardedHost",
    "aggregate_stats",
    "shard_config",
]

logger = logging.getLogger("repro.runtime.shard")

#: Items a shard mailbox holds before a post suspends (backpressure).
MAILBOX_SIZE = 1024

_STOP = object()  # mailbox sentinel: drain FIFO, then exit the worker loop


class _ShardWorker(ShardWorkerBase):
    """One shard: a daemon thread running its own asyncio event loop,
    fed through a bounded FIFO mailbox."""

    def __init__(
        self,
        host: "ShardedHost",
        index: int,
        config: ServerConfig,
        clock: Clock,
        recovered: dict[str, RecoveredGroup] | None,
        store: GroupStore | None,
        race_recorder: Any = None,
    ) -> None:
        super().__init__(host, index, config, clock, recovered, store, race_recorder)
        scheduler = self.core.scheduler
        if scheduler is not None:
            # execution runs on a real thread pool
            scheduler.engine = ThreadPoolEngine(
                config.exec_lanes, name=f"corona-exec-{index}"
            )
        self._mailbox: asyncio.Queue | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name=f"corona-shard-{index}", daemon=True
        )

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        self._thread.start()
        self._ready.wait()

    def stop(self) -> None:
        """Post the stop sentinel (FIFO: queued work drains first), join
        the thread, then flush and close this shard's own store."""
        if self._stopped:
            return
        self._stopped = True
        self.post(_STOP)
        self._thread.join(timeout=10)
        if self.store is not None:
            self.store.flush()
            self.store.close()

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._mailbox = asyncio.Queue(MAILBOX_SIZE)
        self._ready.set()
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._cancel_timers()
            if self.core.scheduler is not None:
                self.core.scheduler.engine.close()
            self._loop.close()

    async def _main(self) -> None:
        assert self._mailbox is not None
        # with a scheduler attached, drain the backlog greedily into one
        # speculation window per wakeup — that batch is what the
        # optimistic engine parallelizes; an idle shard (batch of one)
        # never opens a window and stays on the serial fast path
        window = (
            self.core.config.exec_window
            if self.core.scheduler is not None
            else 1
        )
        while True:
            batch = [await self._mailbox.get()]
            while len(batch) < window:
                try:
                    batch.append(self._mailbox.get_nowait())
                except asyncio.QueueEmpty:
                    break
            opened = False
            if len(batch) > 1:
                self.core.begin_batch()
                opened = True
            stopping = False
            for item in batch:
                if item is _STOP:
                    # the sentinel is posted last (FIFO) — commit any
                    # open window below, then exit
                    stopping = True
                    break
                try:
                    self.process_item(self._unwrap(item))
                except Exception:
                    logger.exception(
                        "shard %d failed processing %r", self.index, item
                    )
            if opened:
                try:
                    self.interpreter.execute(self.core.end_batch())
                except Exception:
                    logger.exception(
                        "shard %d failed committing a batch", self.index
                    )
            if stopping:
                return

    def post(self, item: Any) -> None:
        """Enqueue *item* from any thread.  The put suspends inside the
        worker loop when the mailbox is full (backpressure)."""
        assert self._loop is not None and self._mailbox is not None
        asyncio.run_coroutine_threadsafe(self._mailbox.put(item), self._loop)

    def queue_depth(self) -> int:
        """Approximate mailbox backlog, readable from the front thread
        (a single int read; staleness only skews control decisions)."""
        mailbox = self._mailbox
        return 0 if mailbox is None else mailbox.qsize()

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        # timers run on the shard's own loop
        assert self._loop is not None
        return self._loop.call_later(delay, fn, *args)


class ShardedHost(ShardFront, AsyncioHost):
    """The sharded asyncio service: front router + N shard workers.

    An :class:`AsyncioHost` running the sessions core (``listen`` /
    ``stop`` / ``on_notify`` / ``dispatch_stats`` as
    :class:`CoronaServer` expects), with group work executing on
    per-shard event loops in parallel.
    """

    worker_class = _ShardWorker

    def __init__(
        self,
        config: ServerConfig,
        transport: Transport,
        shards: int,
        store_root: str | Path | None = None,
        clock: Clock | None = None,
        core_clock: Clock | None = None,
        middlewares: Iterable[Middleware] = (),
        race_recorder: Any = None,
        flow: Any = None,
    ) -> None:
        clock = clock or MonotonicClock()
        ShardFront.__init__(
            self, config, shards, core_clock or clock, store_root, race_recorder
        )
        AsyncioHost.__init__(
            self, self.sessions, transport, clock=clock,
            middlewares=front_middlewares(middlewares, race_recorder), flow=flow,
        )
        self.alive = True
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -------------------------------------------------------

    async def listen(self, address: Any) -> Any:
        self._loop = asyncio.get_running_loop()
        self.start_workers()
        return await super().listen(address)

    async def stop(self) -> None:
        if not self.alive:
            return
        self.alive = False
        self.stop_controller()
        await super().stop()
        # each worker flushes and closes its own store inside stop():
        # storage handles never leave their shard
        for worker in self.workers:
            worker.stop()

    # -- ShardFront hooks --------------------------------------------------

    def call_front(self, fn: Callable[[], None], token: int = 0) -> None:
        """Callable from any shard thread: hops onto the front loop."""
        if not self.alive or self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self.run_front, fn, token)
        except RuntimeError:
            pass  # front loop already closed during shutdown
