"""Group-sharded service: the asyncio driver.

The sharding design itself — router, front sessions core, worker item
protocol, migration, restart — is backend-free and lives in
:mod:`repro.runtime.sharding`.  This module only puts it on the
running asyncio loop, ONE loop for the front and every shard:

* :class:`ShardedHost` is the front: an
  :class:`~repro.runtime.host.AsyncioHost` that owns the listening
  socket and runs the :class:`~repro.runtime.sharding.ShardSessions`
  core.
* Each shard is a :class:`_ShardWorker`: a FIFO mailbox drained by one
  callback per loop tick, with its own core, interpreter and store.

Sharding partitions state, WAL directories and the units of failure and
migration; it adds no CPU parallelism (one loop, one GIL).  So a worker
drains its mailbox serially, one item at a time: its core's optimistic
scheduler (``exec_lanes``) never opens a window here, as on the flat
:class:`~repro.runtime.host.AsyncioHost`.  A
process-per-shard driver, the way to real cores, would be a third thin
driver behind the same seam; the simulator's is :mod:`repro.sim.shard`.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.clock import Clock, MonotonicClock
from repro.core.interpreter import Middleware
from repro.core.server import ServerConfig
from repro.net.transport import Transport
from repro.runtime.host import FLUSH_INTERVAL, AsyncioHost
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


class _ShardWorker(ShardWorkerBase):
    """One shard: a FIFO mailbox on the front's loop, drained once per
    loop tick."""

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
        self._mailbox: deque = deque()
        self._drain_scheduled = False
        self._stopped = False
        self._flush_timer: asyncio.TimerHandle | None = None  # needs a store

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        if self.store is not None:
            self._flush_timer = self.call_later(FLUSH_INTERVAL, self._flush_tick)

    def stop(self) -> None:
        """Process what is queued, in order, then flush and close this
        shard's own store.  Later posts are ignored."""
        if self._stopped:
            return
        self._drain()
        self._stopped = True
        self._cancel_timers()
        if self._flush_timer is not None:
            self._flush_timer.cancel()
        if self.store is not None:
            self.store.flush()
            self.store.close()

    def _flush_tick(self) -> None:
        # bounds the WAL loss window exactly as the flat host's flush
        # loop does; flush() may fsync, so it runs off-loop
        asyncio.get_running_loop().run_in_executor(None, self.store.flush)
        self._flush_timer = self.call_later(FLUSH_INTERVAL, self._flush_tick)

    # -- mailbox ---------------------------------------------------------

    def post(self, item: Any) -> None:
        """Enqueue *item*; the first post of a loop tick schedules the
        one drain that processes everything the tick queues."""
        if self._stopped:
            return
        self._mailbox.append(item)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            asyncio.get_running_loop().call_soon(self._drain)

    def _drain(self) -> None:
        """Process everything queued, FIFO."""
        self._drain_scheduled = False
        mailbox = self._mailbox
        while mailbox:
            item = mailbox.popleft()
            try:
                self.process_item(self._unwrap(item))
            except Exception:
                logger.exception("shard %d failed processing %r", self.index, item)

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        return asyncio.get_running_loop().call_later(delay, fn, *args)


class ShardedHost(ShardFront, AsyncioHost):
    """The sharded asyncio service: front router + N shard workers.

    An :class:`AsyncioHost` running the sessions core (``listen`` /
    ``stop`` / ``on_notify`` / ``dispatch_stats`` as
    :class:`CoronaServer` expects), with group work executing in
    per-shard mailboxes on the same loop.
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

    # -- lifecycle -------------------------------------------------------

    async def listen(self, address: Any) -> Any:
        self.start_workers()
        return await super().listen(address)

    async def stop(self) -> None:
        if not self.alive:
            return
        self.alive = False
        await super().stop()
        # each worker flushes and closes its own store inside stop():
        # storage handles never leave their shard
        for worker in self.workers:
            worker.stop()
