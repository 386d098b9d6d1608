"""Simulated host: runs one sans-io protocol core under the cost model.

A :class:`SimHost` owns a protocol core and plays the same role the asyncio
runtime plays in production: it feeds network/timer events into the core
and hands the effects the core returns to the shared
:class:`~repro.core.interpreter.EffectInterpreter`.  This class is only
the simulated half of the :class:`~repro.core.interpreter.EffectBackend`
— virtual CPU, network channels, the simulated disk; storage effects,
the timer table, notify and the outbox registry are inherited from
:class:`~repro.runtime.backend.HostBackend` (wrapped here only to charge
their modeled cost), and dispatch semantics (drop counting, batching,
the TruncateWal contract) live in the interpreter, identical under the
asyncio runtime.  On top of that it charges virtual
CPU time for every message handled and sent, so server saturation — the
phenomenon behind the paper's linear delay curves — emerges naturally.

CPU model: a single FIFO server.  Handling an arrived message occupies the
CPU for ``recv_cost(size)``; the core's handler then runs (its logic cost
is folded into the fixed overhead) and each ``SendMessage`` effect occupies
the CPU for ``send_cost(size)`` *sequentially* before the bytes enter the
network — this serialized fan-out is exactly how the evaluated Corona
implementation multicast "via multiple point-to-point messages" (§5.1).
A group fan-out arrives as ONE ``SendFanout`` effect and is billed
recipient by recipient all the same: this host keeps the interpreter's
default ``deliver_fanout``, a ``deliver`` per connection in tuple order,
so every recipient costs its own ``send_cost(size)``.
Consecutive ``SendMessage`` effects to the *same* connection coalesce into
one batch charged ``send_cost(total bytes)`` — one flush, mirroring the
asyncio writer's batching — while sends to distinct connections keep their
per-connection charge, preserving the linear fan-out the paper measures.
A fan-out is its own effect and never joins such a run: the ``Ack`` that
follows a broadcast is a flush of its own even when the sender was the
fan-out's last recipient.  Message sizes
come from the frame cache (:mod:`repro.wire.frames`), so sizing a message
the transport also encodes costs exactly one serialization.

Flow control: every accepted send passes through the same
:class:`~repro.net.flowcontrol.BoundedOutbox` policy the asyncio host
uses — identical accept / coalesce / kick decisions, counter-for-counter
(``docs/flow-control.md``).  Timing stays byte-identical to the
pre-flow-control model on the uncongested path: each accepted frame gets
one pump event at its CPU completion time, and the pump pops exactly one
frame per event, so frames still enter the network at their individual
``send_cost`` completion times.  Only when the link's committed backlog
exceeds ``link_window`` do frames wait in the outbox (the sim analog of
a full kernel socket buffer), where stale ``STATE`` deliveries become
coalescible.  CPU was already charged at accept time, so coalescing
saves link bytes, not CPU.  Lane priority applies at the serializer: a
queued control frame takes the next available send slot ahead of bulk.

Disk model: ``AppendWal`` effects go to the simulated disk.  Under
asynchronous logging (the paper's configuration) they cost no CPU-path
time; under synchronous logging the CPU stalls until the write completes,
which the logging ablation benchmark uses to show the disk-bound ceiling.

Optionally a real :class:`~repro.storage.GroupStore` can back the host, so
simulated crashes exercise genuine recovery code against genuine files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.core.events import Effect, ProtocolCore
from repro.core.interpreter import Middleware
from repro.net.flowcontrol import FlowControlConfig
from repro.runtime.backend import HostBackend
from repro.sim.disk import SimDisk
from repro.sim.kernel import CpuLanes, EventHandle, SimKernel
from repro.sim.network import Channel, SimNetwork
from repro.sim.profiles import HostProfile
from repro.storage.store import GroupStore
from repro.wire import frames

__all__ = ["SimHost", "HostStats"]


@dataclass
class HostStats:
    """Counters a benchmark reads after a run."""

    messages_received: int = 0
    messages_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    cpu_busy: float = 0.0


class SimCosts(HostBackend):
    """Cost-model wrappers around the store-backed storage effects.

    Each charges the simulated CPU lane and disk of :attr:`_machine` and
    then does the real work through ``super()``.
    """

    @property
    def _machine(self) -> "SimHost":
        """The host whose resources the effects burn: this one, unless a
        shard worker names the host whose lane it runs on."""
        return self

    def create_group_storage(self, group: str, meta: bytes) -> None:
        self._machine.disk.write(len(meta))
        super().create_group_storage(group, meta)

    def append_wal(self, group: str, seqno: int, record: bytes) -> None:
        self._machine._charge_log(len(record) + 8)
        super().append_wal(group, seqno, record)

    def append_wal_many(self, group: str, records: list[tuple[int, bytes]]) -> None:
        """Group-commit cost model: one CPU handoff and one coalesced
        disk write for the whole sequenced batch."""
        self._machine._charge_log(
            sum(len(record) + 8 for _seqno, record in records)
        )
        super().append_wal_many(group, records)

    def write_checkpoint(self, group: str, seqno: int, snapshot: bytes) -> None:
        self._machine.disk.write(len(snapshot))
        super().write_checkpoint(group, seqno, snapshot)


class SimHost(SimCosts):
    """One simulated machine running one protocol core."""

    def __init__(
        self,
        kernel: SimKernel,
        network: SimNetwork,
        host_id: str,
        segment: str,
        profile: HostProfile,
        store: GroupStore | None = None,
        sync_logging: bool = False,
        middlewares: Iterable[Middleware] = (),
        flow: FlowControlConfig | None = None,
    ) -> None:
        super().__init__(store, middlewares, flow)
        self.kernel = kernel
        self.network = network
        self.host_id = host_id
        self.segment = segment
        self.profile = profile
        self.sync_logging = sync_logging
        self.disk = SimDisk(kernel, profile.disk)
        self.stats = HostStats()
        self.alive = True
        # One FIFO lane; the sharded subclass swaps in one lane per
        # worker shard and points ``_lane`` at whichever is executing.
        self._lanes = CpuLanes(1)
        self._lane = 0
        # Earliest-start floor for the active lane's next charge; the
        # sharded subclass raises it while modeling work that must wait
        # for an execution lane to finish (optimistic scheduler).
        self._exec_floor = 0.0
        self._channels: dict[int, Channel] = {}
        self._conn_ids: dict[int, int] = {}  # channel_id -> conn_id
        self._next_conn = 0
        network.attach(host_id, segment, self)

    # -- CPU accounting ------------------------------------------------------

    def _occupy_cpu(self, cost: float) -> float:
        """Reserve *cost* seconds on the active lane; return completion."""
        start = max(self.kernel.now(), self._exec_floor)
        done = self._lanes.occupy(self._lane, cost, start)
        self.stats.cpu_busy += cost
        return done

    @property
    def _cpu_free(self) -> float:
        """Free-at time of the active lane (kept as the historical name
        so the cost-model call sites read unchanged)."""
        return self._lanes.free_at(self._lane)

    @_cpu_free.setter
    def _cpu_free(self, time: float) -> None:
        self._lanes.set_free(self._lane, time)

    @property
    def cpu_free_at(self) -> float:
        return self._cpu_free

    def _charge_log(self, nbytes: int) -> None:
        """Charge one WAL write of *nbytes* (a record or a whole batch)."""
        self._occupy_cpu(self.profile.log_overhead)
        # the write is issued when the CPU gets to it, which under load is
        # later than the current event time
        done = self.disk.write(nbytes, earliest=self._cpu_free)
        if self.sync_logging:
            # Synchronous durability: the CPU path stalls for the write.
            self._cpu_free = max(self._cpu_free, done)

    # -- injecting work (used by workload drivers) ------------------------------

    def invoke(self, action: Callable[[], list[Effect]], cost: float | None = None) -> None:
        """Run *action* on this host's CPU and execute its effects.

        Workload drivers use this to make a client core issue requests
        ("send a broadcast now") from inside the simulation.
        """
        if not self.alive:
            return
        done = self._occupy_cpu(self.profile.timer_overhead if cost is None else cost)
        self.kernel.schedule_at(done, self._run_action, action)

    def _run_action(self, action: Callable[[], list[Effect]]) -> None:
        if not self.alive:
            return
        effects = list(action() or [])
        if self.core is not None:
            effects.extend(self.core.drain())
        self.interpreter.execute(effects)

    # -- HostAdapter interface (called by the network) ----------------------------

    def network_connected(self, channel: Channel, inbound: bool, key: str) -> None:
        if not self.alive or self.core is None:
            return
        conn = self._next_conn
        self._next_conn += 1
        self._channels[conn] = channel
        self._conn_ids[channel.channel_id] = conn
        self._open_outbox(conn)
        peer = channel.peer_of(self.host_id)
        self.interpreter.execute(self.core.on_connected(conn, peer=peer, key=key))

    def network_connect_failed(self, peer: str, key: str) -> None:
        if not self.alive or self.core is None:
            return
        # Surface dial failure as an immediately-closed connection.
        conn = self._next_conn
        self._next_conn += 1
        self.interpreter.execute(self.core.on_connected(conn, peer=peer, key=key))
        self.interpreter.execute(self.core.on_closed(conn))

    def network_message(self, channel: Channel, message: Any, size: int) -> None:
        if not self.alive or self.core is None:
            return
        conn = self._conn_ids.get(channel.channel_id)
        if conn is None:
            return
        self.stats.messages_received += 1
        self.stats.bytes_received += size
        done = self._occupy_cpu(self.profile.recv_cost(size))
        self.kernel.schedule_at(done, self._handle_message, conn, message)

    def _handle_message(self, conn: int, message: Any) -> None:
        if self.alive and self.core is not None and conn in self._channels:
            self.interpreter.execute(self.core.on_message(conn, message))

    def network_closed(self, channel: Channel) -> None:
        if not self.alive or self.core is None:
            return
        conn = self._conn_ids.get(channel.channel_id)
        if conn is None:
            return
        # messages already received queue ahead of the EOF, exactly as
        # data buffered in a TCP socket is readable before the close
        self.kernel.schedule_at(
            max(self.kernel.now(), self._cpu_free),
            self._deliver_closed, channel.channel_id,
        )

    def _deliver_closed(self, channel_id: int) -> None:
        if not self.alive or self.core is None:
            return
        conn = self._conn_ids.pop(channel_id, None)
        if conn is None:
            return
        self._channels.pop(conn, None)
        self._retire_outbox(conn)
        self.interpreter.execute(self.core.on_closed(conn))

    # -- EffectBackend: sends ---------------------------------------------------

    def deliver(self, conn: int, message: Any) -> bool:
        # a batch of one: the same accept / charge / pump sequence
        return self.deliver_batch(conn, [message])

    def deliver_batch(self, conn: int, messages: list[Any]) -> bool:
        """One CPU occupancy for a run of sends to one connection.

        The batch costs ``send_cost(total accepted frame bytes)`` —
        batching saves the per-flush overhead, never the per-byte cost —
        and the frames still leave the outbox individually, in order.
        """
        channel = self._channels.get(conn)
        box = self._outboxes.get(conn)
        if channel is None or box is None:
            return False  # connection already gone; fail-stop semantics
        was_kicked = box.kicked
        accepted = 0
        total = 0
        ok = True
        for message in messages:
            if box.push(message):
                accepted += 1
                total += frames.frame_size(message)
            else:
                ok = False
        if accepted:
            done = self._occupy_cpu(self.profile.send_cost(total))
            self.stats.messages_sent += accepted
            self.stats.bytes_sent += total
            for _ in range(accepted):
                self.kernel.schedule_at(done, self._pump, conn)
        elif box.kicked and not was_kicked:
            # a push triggered the kick: flush the Disconnect notice
            # queued on the control lane, then close
            self.kernel.schedule_at(
                max(self.kernel.now(), self._cpu_free), self._pump, conn
            )
        return ok

    def _pump(self, conn: int) -> None:
        """Move one outbox frame onto the wire (control lane first).

        One pump event exists per accepted push (scheduled at that push's
        CPU completion), so on the uncongested path frames enter the
        network at exactly the times the pre-flow-control model used.
        When the link's committed backlog exceeds ``flow.link_window`` the
        event re-arms itself for when the backlog has decayed to the
        window — that wait, not an unbounded segment reservation, is what
        makes a slow consumer's frames pile up in its bounded outbox.
        """
        if not self.alive:
            return
        box = self._outboxes.get(conn)
        if box is None:
            return
        channel = self._channels.get(conn)
        if channel is None:
            self._retire_outbox(conn)
            return
        if not box.empty:
            backlog = self.network.link_backlog(channel, self.host_id)
            if backlog > self.flow.link_window:
                self.kernel.schedule(
                    max(backlog - self.flow.link_window, 1e-9), self._pump, conn
                )
                return
            message = box.pop_next()
            self.network.send(
                channel, self.host_id, message, frames.frame_size(message)
            )
        if box.empty and (box.kicked or box.close_requested):
            self._channels.pop(conn, None)
            self._conn_ids.pop(channel.channel_id, None)
            self._retire_outbox(conn)
            self.network.close(channel, self.host_id)
            if box.kicked and self.core is not None:
                # mirror the asyncio runtime: the reader observing the
                # kick-close delivers on_closed on the server side too
                self.interpreter.execute(self.core.on_closed(conn))

    def deliver_multicast(self, conns: Sequence[int], message: Any) -> int:
        size = frames.frame_size(message)
        fast: list[Channel] = []
        queued: list[int] = []
        for conn in conns:
            channel = self._channels.get(conn)
            box = self._outboxes.get(conn)
            if channel is None or box is None or box.kicked:
                continue
            if box.empty and (
                self.network.link_backlog(channel, self.host_id)
                <= self.flow.link_window
            ):
                fast.append(channel)
            else:
                queued.append(conn)
        if not fast and not queued:
            return 0
        # one serialization on the CPU, however many receivers
        done = self._occupy_cpu(self.profile.send_cost(size))
        self.stats.bytes_sent += size
        self.stats.messages_sent += len(fast)
        delivered = len(fast)
        if fast:
            self.kernel.schedule_at(
                done, self._enter_network_multicast, fast, message, size
            )
        for conn in queued:
            # congested receivers fall back to private unicast copies fed
            # through their bounded outboxes (the shared-medium multicast
            # already left without them)
            box = self._outboxes[conn]
            if box.push(message):
                delivered += 1
                self.stats.messages_sent += 1
                self.kernel.schedule_at(done, self._pump, conn)
        return delivered

    def _enter_network_multicast(self, channels: list, message: Any, size: int) -> None:
        if self.alive:
            self.network.multicast(self.host_id, channels, message, size)

    # -- EffectBackend: timers --------------------------------------------------

    def call_later(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        return self.kernel.schedule(delay, fn, *args)

    def _fire_timer(self, key: str) -> None:
        self._timers.pop(key, None)
        if not self.alive or self.core is None:
            return
        done = self._occupy_cpu(self.profile.timer_overhead)
        self.kernel.schedule_at(done, self._run_timer_handler, key)

    def _run_timer_handler(self, key: str) -> None:
        if self.alive and self.core is not None:
            self.interpreter.execute(self.core.on_timer(key))

    # -- EffectBackend: connections ---------------------------------------------

    def open_connection(self, address: Any, key: str) -> None:
        # Addresses are (host, port) in production; the simulator
        # routes purely by host id.
        target = address[0] if isinstance(address, tuple) else str(address)
        self.network.connect(self.host_id, target, key)

    def close_connection(self, conn: int) -> None:
        box = self._outboxes.get(conn)
        if box is not None and not box.empty:
            # flush queued frames first (TCP flushes buffered data before
            # FIN): the outstanding pump events drain the outbox, and the
            # last one performs the close
            box.close_requested = True
            return
        # close after already-queued writes have entered the
        # network (TCP flushes buffered data before FIN)
        self.kernel.schedule_at(
            max(self.kernel.now(), self._cpu_free), self._do_close, conn
        )

    def _do_close(self, conn: int) -> None:
        channel = self._channels.pop(conn, None)
        self._retire_outbox(conn)
        if channel is not None:
            self._conn_ids.pop(channel.channel_id, None)
            self.network.close(channel, self.host_id)

    # -- EffectBackend: lifecycle ---------------------------------------------------

    def shutdown(self, reason: str) -> None:
        self.crash()

    # -- failure injection ------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: lose in-memory state, keep the disk (GroupStore)."""
        if not self.alive:
            return
        self.alive = False
        self.core = None
        self._cancel_timers()
        self._channels.clear()
        self._conn_ids.clear()
        self._outboxes.clear()
        self.network.detach(self.host_id)
        if self.store is not None:
            self.store.close()

    def restart(self, core: ProtocolCore) -> None:
        """Bring the host back with a fresh core (which may recover from
        ``self.store``); the network sees a brand-new attachment."""
        if self.alive:
            raise RuntimeError(f"host {self.host_id} is already running")
        self.alive = True
        self._cpu_free = self.kernel.now()
        self.network.reattach(self.host_id, self.segment, self)
        self.core = core
