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
* there is one write path for every connection class: a send queues the
  frame in the connection's bounded two-lane outbox
  (:class:`repro.net.flowcontrol.BoundedOutbox`) and marks the connection
  dirty; the first mark in a loop tick schedules one ``call_soon``
  :meth:`AsyncioHost._flush`, which drains every dirty outbox with one
  ``pop_all()`` into one synchronous ``Connection.write_many`` — so
  everything queued for a connection during a tick leaves in one socket
  write, control lane first, each lane FIFO;
* a connection whose transport reports congestion is *parked*: nothing
  more is written to it, its frames keep waiting in the outbox (where a
  slow consumer's stale ``STATE`` frames coalesce and an incorrigibly
  slow one is lag-kicked — ``docs/flow-control.md``) until the transport
  is writable again; one slow peer never delays the others' flush;
* a lag-kicked or close-requested connection is closed after the flush
  that empties its outbox (the ``Disconnect`` / ``ErrorReply`` goes out
  first), and the core sees exactly one ``on_closed`` per connection;
* inbound, a connection that can push (``attach``; accepted TCP sockets)
  hands every decoded chunk straight to :meth:`AsyncioHost._on_messages`;
  any other is polled by one ``receive()`` task.

Storage effects go to an optional :class:`~repro.storage.GroupStore`; a
background flush task bounds the WAL loss window, mirroring the paper's
"logging in parallel with delivery" design.
"""

from __future__ import annotations

import asyncio
import logging
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.core.clock import Clock, MonotonicClock
from repro.core.events import Effect, ProtocolCore
from repro.core.interpreter import Middleware
from repro.net.flowcontrol import FlowControlConfig, bulk_class
from repro.net.transport import Connection, Listener, Transport
from repro.runtime.backend import HostBackend
from repro.storage.store import GroupStore
from repro.wire import frames

__all__ = ["AsyncioHost"]

logger = logging.getLogger("repro.runtime")

#: Seconds between background WAL flushes: the bound on the loss window
#: of the paper's "logging in parallel with delivery".
FLUSH_INTERVAL = 0.2

#: Seconds a lag-kicked connection gets to take its ``Disconnect`` notice
#: and close in an orderly way.  One still open after that belongs to a
#: peer that stopped reading for good: it is aborted, unflushed bytes
#: and all, so its membership, locks and memory are reclaimed.
KICK_GRACE = 5.0


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
        #: Connections with frames (or a close) waiting for the next
        #: flush; insertion-ordered, so a flush writes in first-marked order.
        self._dirty: dict[int, None] = {}
        self._flush_scheduled = False
        #: Congested connections: not flushed until ``drained()`` returns.
        self._parked: set[int] = set()
        #: Lag-kicked connections and the timer that aborts each one if
        #: it outlives :data:`KICK_GRACE`.
        self._kick_timers: dict[int, asyncio.TimerHandle] = {}
        #: I/O gauges.  Like ``outbox_peak_depth`` they depend on how the
        #: loop interleaves reads and flushes, so they are per-backend
        #: observability, deliberately not in the parity-checked
        #: ``DispatchStats``.  ``frames_written / socket_writes`` is the
        #: batching factor; ``socket_writes / flush_ticks`` the fan-out
        #: one tick served.
        self.flush_ticks = 0
        self.socket_writes = 0
        self.frames_written = 0
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
        while self._kick_timers:
            self._kick_timers.popitem()[1].cancel()
        # forget them first: a close observed from here on is ours, not
        # an event for the core
        conns, self._conns = self._conns, {}
        for conn in conns.values():
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
        if conn not in self._dirty:
            self._mark_dirty(conn)
        if not accepted and conn not in self._kick_timers:
            self._arm_kick_timer(conn)
        return accepted

    # deliver_batch: the base per-message loop is already optimal here —
    # the flush writes everything queued behind one connection in a
    # single write_many, and per-push accept/refuse results match the
    # simulator's push sequence counter-for-counter.

    def deliver_fanout(self, conns: Sequence[int], message: Any) -> int:
        """:meth:`deliver` to each of *conns*, with everything that is
        the same for every recipient — the frame's size and its
        flow-control class — worked out once."""
        size = frames.frame_size(message)
        is_state = bulk_class(message)
        outboxes, dirty = self._outboxes, self._dirty
        delivered = 0
        for conn in conns:
            outbox = outboxes.get(conn)
            if outbox is None:
                continue
            if outbox.push(message, size, is_state):
                delivered += 1
            elif conn not in self._kick_timers:
                self._arm_kick_timer(conn)
            if conn not in dirty:
                self._mark_dirty(conn)
        return delivered

    def _arm_kick_timer(self, conn: int) -> None:
        self._kick_timers[conn] = self.call_later(
            KICK_GRACE, self._abort_kicked, conn
        )

    def _abort_kicked(self, conn_id: int) -> None:
        """:data:`KICK_GRACE` ran out with the kicked connection still
        open (parked behind a peer that never reads, or closing behind a
        write buffer that never drains): drop it now.  The read side
        observes the abort and delivers the one ``on_closed``."""
        # still registered: _drop_connection cancels the timer of a
        # connection that closed in time
        del self._kick_timers[conn_id]
        conn = self._conns[conn_id]
        logger.warning("aborting lag-kicked conn %d: still open after %.1fs",
                       conn_id, KICK_GRACE)
        # optional like attach(): a connection whose close() cannot
        # block on unflushed writes needs no abort()
        if hasattr(conn, "abort"):
            conn.abort()
        else:
            self._spawn(conn.close())

    def _mark_dirty(self, conn: int) -> None:
        if conn in self._parked:
            return  # re-marked when its transport has drained
        self._dirty[conn] = None
        if not self._flush_scheduled:
            self._flush_scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """Write what this loop tick queued: one ``write_many`` per dirty
        connection, then the closes that were waiting on those frames."""
        self._flush_scheduled = False
        dirty, self._dirty = self._dirty, {}
        self.flush_ticks += 1
        for conn_id in dirty:
            conn = self._conns.get(conn_id)
            if conn is None:
                continue  # gone since it was marked
            outbox = self._outboxes[conn_id]
            batch = outbox.pop_all()
            if batch:
                try:
                    congested = conn.write_many(batch)
                except Exception as exc:
                    # closed under us, or an oversized frame: close; the
                    # read side observes it and delivers on_closed once
                    logger.debug("write to conn %d failed: %r", conn_id, exc)
                    self._spawn(conn.close())
                    continue
                self.socket_writes += 1
                self.frames_written += len(batch)
                if congested:
                    self._parked.add(conn_id)
                    self._spawn(self._unpark(conn_id, conn))
                    continue
            if outbox.kicked or outbox.close_requested:
                # lag-kick (the Disconnect notice just went out) or a
                # core-requested close that was waiting on the drain
                self._spawn(conn.close())

    async def _unpark(self, conn_id: int, conn: Connection) -> None:
        """Wait a congested transport out, then let the flush have the
        connection (and whatever its outbox collected meanwhile) back."""
        try:
            await conn.drained()
        except (ConnectionError, OSError):
            await conn.close()  # the read side delivers on_closed
            return
        self._parked.discard(conn_id)
        self._mark_dirty(conn_id)

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
        outbox = self._outboxes.get(conn)
        if outbox is not None:
            # queued frames (e.g. an ErrorReply) go out first: the flush
            # closes the connection once its outbox has drained
            outbox.close_requested = True
            self._mark_dirty(conn)

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
        self.dispatch(self.core.on_connected(conn_id, peer=conn.peer, key=key))
        # last: attach() hands over whatever arrived before it at once
        # to a PushConnection (asked with hasattr: an isinstance against
        # the runtime protocol costs 30 µs per connection)
        if hasattr(conn, "attach"):
            conn.attach(
                partial(self._on_messages, conn_id),
                partial(self._drop_connection, conn_id),
            )
        else:
            self._spawn(self._pull_loop(conn_id, conn))
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

    def _on_messages(self, conn_id: int, messages: list[Any]) -> None:
        """Sink of a push connection: one decoded chunk."""
        for message in messages:
            self.dispatch(self.core.on_message(conn_id, message))

    async def _pull_loop(self, conn_id: int, conn: Connection) -> None:
        """The adapter for connections that cannot push."""
        try:
            while True:
                message = await conn.receive()
                if message is None:
                    break
                self.dispatch(self.core.on_message(conn_id, message))
        except Exception:
            logger.exception("reader for conn %d failed", conn_id)
        self._drop_connection(conn_id)
        # a failed read leaves the socket open: never forget a connection
        # without closing it
        await conn.close()

    def _drop_connection(self, conn_id: int) -> None:
        if self._conns.pop(conn_id, None) is None:
            return
        self._retire_outbox(conn_id)
        self._dirty.pop(conn_id, None)
        self._parked.discard(conn_id)
        kick_timer = self._kick_timers.pop(conn_id, None)
        if kick_timer is not None:
            kick_timer.cancel()
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
