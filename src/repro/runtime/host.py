"""Asyncio host: runs a sans-io protocol core over real transports.

The production counterpart of :class:`repro.sim.host.SimHost`: it feeds
connection/timer events into a core and hands the effects the core
returns to the shared :class:`~repro.core.interpreter.EffectInterpreter`.
This class is only the asyncio half of the
:class:`~repro.core.interpreter.EffectBackend` — sockets, tasks and
``call_later``; storage effects, the timer table, notify and the outbox
registry are inherited from :class:`~repro.runtime.backend.HostBackend`,
and dispatch semantics (drop counting, batching, the TruncateWal
contract) live in the interpreter, identical under simulation.
Ordering guarantees:

* effects from one input event are executed in emission order;
* messages to one connection are written by a dedicated writer task fed
  from a bounded two-lane outbox (:class:`repro.net.flowcontrol.BoundedOutbox`),
  preserving per-connection per-lane FIFO order even though socket writes
  await; control frames may overtake queued bulk ``Delivery`` frames, a
  slow consumer's stale ``STATE`` frames coalesce, and an incorrigibly
  slow consumer is lag-kicked (``docs/flow-control.md``).

Storage effects go to an optional :class:`~repro.storage.GroupStore`; a
background flush task bounds the WAL loss window, mirroring the paper's
"logging in parallel with delivery" design.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Callable, Iterable

from repro.core.clock import Clock, MonotonicClock
from repro.core.events import Effect, ProtocolCore
from repro.core.interpreter import Middleware
from repro.net.flowcontrol import FlowControlConfig
from repro.net.transport import Connection, Listener, Transport
from repro.runtime.backend import HostBackend
from repro.storage.store import GroupStore

__all__ = ["AsyncioHost"]

logger = logging.getLogger("repro.runtime")

#: Seconds between background WAL flushes: the bound on the loss window
#: of the paper's "logging in parallel with delivery".
FLUSH_INTERVAL = 0.2


class AsyncioHost(HostBackend):
    """Drives one protocol core on the running asyncio event loop."""

    def __init__(
        self,
        core: ProtocolCore,
        transport: Transport,
        clock: Clock | None = None,
        store: GroupStore | None = None,
        middlewares: Iterable[Middleware] = (),
        flow: FlowControlConfig | None = None,
    ) -> None:
        super().__init__(store, middlewares, flow)
        self.set_core(core)
        self.transport = transport
        self.clock = clock or MonotonicClock()
        self._conns: dict[int, Connection] = {}
        self._wakeups: dict[int, asyncio.Event] = {}
        self._tasks: set[asyncio.Task] = set()
        self._next_conn = 0
        self._listener: Listener | None = None
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def listen(self, address: Any) -> Any:
        """Accept inbound connections at *address*; returns the bound
        address (with the real port when an ephemeral one was asked)."""
        self._listener = await self.transport.listen(address)
        self._spawn(self._accept_loop(self._listener))
        if self.store is not None:
            self._spawn(self._flush_loop())
        return self._listener.address

    async def stop(self) -> None:
        """Close the listener, every connection, and all timers/tasks."""
        self._stopped.set()
        if self._listener is not None:
            await self._listener.close()
        self._cancel_timers()
        for conn in list(self._conns.values()):
            await conn.close()
        # a ShutDown effect runs stop() as a tracked task: it must not
        # cancel (and then await) itself
        self._tasks.discard(asyncio.current_task())
        for task in list(self._tasks):
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.store is not None:
            self.store.flush()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # driving the core
    # ------------------------------------------------------------------

    def invoke(self, action: Callable[[], Any]) -> Any:
        """Run a request method on the core and execute its effects."""
        result = action()
        self.dispatch(self.core.drain())
        return result

    def dispatch(self, effects: list[Effect]) -> None:
        self.interpreter.execute(effects)

    # ------------------------------------------------------------------
    # EffectBackend: sends
    # ------------------------------------------------------------------

    def deliver(self, conn: int, message: Any) -> bool:
        outbox = self._outboxes.get(conn)
        if outbox is None:
            return False
        accepted = outbox.push(message)
        wakeup = self._wakeups.get(conn)
        if wakeup is not None:
            wakeup.set()
        return accepted

    # deliver_batch: the base per-message loop is already optimal here —
    # the writer task coalesces everything queued behind one connection
    # into a single send_many flush, and per-push accept/refuse results
    # match the simulator's push sequence counter-for-counter.

    # TCP has no multicast, so deliver_multicast degrades to the base
    # unicast loop (the paper's "point-to-point whenever IP-multicast is
    # not available").

    # ------------------------------------------------------------------
    # EffectBackend: timers
    # ------------------------------------------------------------------

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> asyncio.TimerHandle:
        return asyncio.get_running_loop().call_later(delay, fn, *args)

    # ------------------------------------------------------------------
    # EffectBackend: connections
    # ------------------------------------------------------------------

    def open_connection(self, address: Any, key: str) -> None:
        self._spawn(self._dial(address, key))

    def close_connection(self, conn: int) -> None:
        connection = self._conns.get(conn)
        if connection is None:
            return
        outbox = self._outboxes.get(conn)
        if outbox is not None and not outbox.empty:
            # flush queued frames (e.g. an ErrorReply) before closing;
            # the writer performs the close once the outbox drains
            outbox.close_requested = True
            wakeup = self._wakeups.get(conn)
            if wakeup is not None:
                wakeup.set()
            return
        self._spawn(connection.close())

    # ------------------------------------------------------------------
    # EffectBackend: lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, reason: str) -> None:
        self._spawn(self.stop())

    # ------------------------------------------------------------------
    # connections (transport side)
    # ------------------------------------------------------------------

    def adopt_connection(self, conn: Connection, key: str = "") -> int:
        """Register an externally created connection with the core."""
        return self._register(conn, key)

    def _register(self, conn: Connection, key: str) -> int:
        conn_id = self._next_conn
        self._next_conn += 1
        self._conns[conn_id] = conn
        self._open_outbox(conn_id)
        self._wakeups[conn_id] = asyncio.Event()
        self._spawn(self._writer_loop(conn_id, conn))
        self._spawn(self._reader_loop(conn_id, conn))
        self.dispatch(self.core.on_connected(conn_id, peer=conn.peer, key=key))
        return conn_id

    async def _accept_loop(self, listener: Listener) -> None:
        while True:
            try:
                conn = await listener.accept()
            except asyncio.CancelledError:
                return
            except Exception:
                logger.exception("accept failed")
                return
            self._register(conn, key="")

    async def _dial(self, address: Any, key: str) -> None:
        try:
            conn = await self.transport.dial(address)
        except (OSError, ConnectionError) as exc:
            logger.debug("dial %r failed: %s", address, exc)
            # surface as an immediately closed connection (same
            # convention as the simulator)
            conn_id = self._next_conn
            self._next_conn += 1
            self.dispatch(self.core.on_connected(conn_id, peer=str(address), key=key))
            self.dispatch(self.core.on_closed(conn_id))
            return
        self._register(conn, key)

    async def _reader_loop(self, conn_id: int, conn: Connection) -> None:
        try:
            while True:
                message = await conn.receive()
                if message is None:
                    break
                self.dispatch(self.core.on_message(conn_id, message))
        except asyncio.CancelledError:
            return
        except Exception:
            logger.exception("reader for conn %d failed", conn_id)
        self._drop_connection(conn_id)

    async def _writer_loop(self, conn_id: int, conn: Connection) -> None:
        outbox = self._outboxes[conn_id]
        wakeup = self._wakeups[conn_id]
        try:
            while True:
                await wakeup.wait()
                wakeup.clear()
                while True:
                    # Drain control-first: everything queued behind this
                    # connection goes out in one send_many flush (frames
                    # accumulate while the previous drain awaits, and
                    # batching amortizes the per-write wakeup cost).
                    batch = outbox.pop_all()
                    if not batch:
                        break
                    if len(batch) == 1:
                        await conn.send(batch[0])
                    else:
                        await conn.send_many(batch)
                if outbox.kicked or outbox.close_requested:
                    # lag-kick (the Disconnect notice just flushed) or a
                    # core-requested close waiting on the drain; the
                    # reader loop observes the close and delivers
                    # on_closed exactly once
                    await conn.close()
                    return
        except asyncio.CancelledError:
            return
        except Exception:
            # write failure: the reader loop will observe the close and
            # deliver on_closed exactly once
            await conn.close()

    def _drop_connection(self, conn_id: int) -> None:
        if self._conns.pop(conn_id, None) is None:
            return
        self._retire_outbox(conn_id)
        self._wakeups.pop(conn_id, None)
        self.dispatch(self.core.on_closed(conn_id))

    # ------------------------------------------------------------------
    # background work
    # ------------------------------------------------------------------

    async def _flush_loop(self) -> None:
        assert self.store is not None
        loop = asyncio.get_running_loop()
        try:
            while True:
                await asyncio.sleep(FLUSH_INTERVAL)
                # flush() fsyncs; run it off-loop so a slow disk never
                # stalls connection reads (deepcheck BLOCK002)
                await loop.run_in_executor(None, self.store.flush)
        except asyncio.CancelledError:
            return

    def _spawn(self, coro: Any) -> None:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
