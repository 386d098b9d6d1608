"""The effect interpreter: one dispatch implementation for every host.

Historically each host hand-rolled an ``isinstance`` chain over
:class:`~repro.core.events.Effect` subclasses, and the two chains drifted
(the asyncio host silently discarded sends to unknown connections and
ignored ``TruncateWal``; the simulator had its own coalescing rules).
This module replaces both with a single registry-dispatched interpreter:

* :class:`EffectInterpreter` maps ``type(effect) -> handler``, resolved
  once at registration time (subclasses resolve through the MRO and are
  cached), with an optional middleware stack wrapped around every handler
  at registration — the hot path is one dict lookup and one call.
* :class:`EffectBackend` is the narrow surface a host must provide:
  sends, timers, connections, storage, notify, shutdown.  Its docstrings
  are the **normative semantics** shared by the asyncio runtime and the
  simulator (re-arm, cancel-missing, unknown-connection, TruncateWal).
* :func:`build_interpreter` wires the standard effect catalogue onto a
  backend and counts every outcome in a :class:`DispatchStats`.

Middleware contract
-------------------
A middleware is ``fn(effect, next)``: it may observe the effect, drop it
(by not calling ``next``), replace it (by calling ``next`` with another
effect of the same type), or raise.  Middlewares run in registration
order, outermost first.  They MUST NOT mutate the message object carried
by a send effect: messages may already sit in the wire frame cache
(:mod:`repro.wire.frames`), and a mutated message would desynchronize
from its cached encoding.  Fault injection therefore drops or replaces
whole effects, never edits payloads in place.  A group fan-out reaches
the chain as ONE ``SendFanout`` effect, not one send per member: a
middleware that wants per-recipient detail reads ``effect.conns``, and
dropping the effect drops the delivery for every recipient.

Batching
--------
A run of consecutive ``SendMessage`` effects to the *same* connection is
flushed through :meth:`EffectBackend.deliver_batch` in one call (the
asyncio writer coalesces them into one socket flush; the simulator
charges one CPU occupancy for the whole run).  Likewise a run of
consecutive ``AppendWal`` effects for the *same* group flows through
:meth:`EffectBackend.append_wal_many` — the WAL group-commit: one
buffered write and one flush for the whole sequenced batch.
Middlewares still see each effect of the run individually, so metrics
and fault injection stay per-message.  A ``SendFanout`` is one effect to
many connections and never part of a run.

Shared host semantics (normative)
---------------------------------
===================  =====================================================
``StartTimer``       re-arms: an armed timer with the same key is
                     cancelled first; exactly one firing per key is
                     pending at any time
``CancelTimer``      cancelling a missing/already-fired key is a no-op
``SendMessage``      a send to an unknown, closed, or lag-kicked
                     connection is dropped, logged at WARNING level, and
                     counted in ``DispatchStats.send_drops`` (fail-stop:
                     the peer is gone, or flow control gave up on it —
                     see ``docs/flow-control.md``); accepted sends queue
                     through the connection's bounded two-lane outbox,
                     where superseded ``STATE`` deliveries may later be
                     coalesced (``outbox_coalesced``) or the consumer
                     kicked (``outbox_kicks``)
``SendFanout``       one ``SendMessage`` per recipient, in tuple order,
                     as far as the counters go: ``sends`` +
                     ``send_drops`` grow by exactly ``len(conns)``;
                     dropped recipients are logged in ONE warning per
                     fan-out carrying their count, and delivery to the
                     others proceeds.  A middleware sees (and a
                     ``FaultInjector`` drops) the whole fan-out
``SendMulticast``    unknown or kicked connections in the fan-out are
                     skipped and counted in ``multicast_drops``; delivery
                     to the remaining connections proceeds
``TruncateWal``      counted in ``wal_truncates``; the default backend
                     implementation is an *explicit* no-op because
                     ``GroupStore.checkpoint`` already rotates WAL
                     segments and discards records at or below the
                     checkpoint seqno (the on-disk half of state-log
                     reduction) — a backend with storage that does not
                     rotate on checkpoint must override ``truncate_wal``
``ShutDown``         idempotent; the host releases timers, connections,
                     and storage handles
===================  =====================================================
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.core.events import (
    AppendWal,
    CancelTimer,
    CloseConnection,
    CreateGroupStorage,
    Effect,
    Notify,
    OpenConnection,
    PurgeGroupStorage,
    SendFanout,
    SendMessage,
    SendMulticast,
    ShutDown,
    StartTimer,
    TruncateWal,
    WriteCheckpoint,
)

__all__ = [
    "DispatchStats",
    "EffectBackend",
    "EffectInterpreter",
    "FaultInjector",
    "Middleware",
    "UnknownEffectError",
    "build_interpreter",
    "metrics_middleware",
    "trace_middleware",
]

logger = logging.getLogger("repro.core.interpreter")

#: ``fn(effect, next)`` — call ``next(effect)`` to pass the effect on.
Middleware = Callable[[Effect, Callable[[Effect], None]], None]


class UnknownEffectError(TypeError):
    """An effect reached the interpreter with no registered handler."""


@dataclass
class DispatchStats:
    """Counters every host exposes for its executed effects.

    The drop counters are the observable half of the fail-stop model:
    a send to a connection that no longer exists is not an error, but it
    must be *visible* (warning log + counter), never silent.
    """

    sends: int = 0
    send_drops: int = 0
    multicast_fanout: int = 0
    multicast_drops: int = 0
    timers_started: int = 0
    timers_cancelled: int = 0
    opens: int = 0
    closes: int = 0
    storage_creates: int = 0
    storage_purges: int = 0
    wal_appends: int = 0
    checkpoints: int = 0
    wal_truncates: int = 0
    notifications: int = 0
    shutdowns: int = 0
    #: Superseded ``STATE`` deliveries removed from bounded outboxes
    #: (``repro.net.flowcontrol``); deterministic given the push sequence,
    #: so it participates in host-parity checks like every other counter.
    outbox_coalesced: int = 0
    #: Connections lag-kicked after coalescing could not shrink their
    #: outbox below the configured bounds.
    outbox_kicks: int = 0
    #: Commands the optimistic intra-group scheduler executed inside a
    #: speculation window of size > 1 (:mod:`repro.core.scheduler`).
    commands_parallel: int = 0
    #: Commands whose observed dependency versions moved before commit.
    conflicts: int = 0
    #: Serial re-executions performed after a detected conflict.
    reexecutions: int = 0
    #: In-order commits that had to wait for their execution to finish.
    #: Real thread-pool waits on asyncio, modeled lane waits on the sim —
    #: backend-specific timing, so unlike the other counters this one is
    #: NOT expected to match across hosts in parity checks.
    commit_stalls: int = 0
    #: Group snapshots this worker streamed out during a live migration.
    migrations_out: int = 0
    #: Migrated groups this worker adopted (snapshot installed + WAL tail
    #: replayed into its own store segment).
    migrations_in: int = 0
    #: Migrations that aborted (destination crashed or was restarted
    #: mid-transfer) with ownership returned to the source.
    migration_aborts: int = 0
    #: Commands rejected because they carried a stale ownership epoch
    #: (the group migrated away while the command was in flight).
    stale_epoch_rejects: int = 0
    #: Joins answered with a chunked stream (``SNAP_CHUNKED`` marker +
    #: ``StateChunk`` frames) instead of one monolithic snapshot.
    chunked_transfers: int = 0
    #: Chunked transfers successfully resumed after a mid-transfer
    #: disconnect (``TransferResume`` accepted, no acked bytes re-sent).
    transfer_resumes: int = 0
    #: ``SINCE_SEQNO`` joins whose suffix was reduced away and that were
    #: answered with a delta snapshot (``SNAP_DELTA``) — only the objects
    #: touched after the client's seqno.
    delta_transfers: int = 0
    #: ``SINCE_SEQNO`` joins degraded all the way to FULL because the
    #: suffix was gone and the client did not allow a delta — previously
    #: a silent fallback, now flagged ``SNAP_FORCED_FULL`` and counted.
    forced_full_transfers: int = 0


class EffectBackend:
    """The operations a host supplies to the interpreter.

    Subclasses (the asyncio runtime, the simulator) implement the I/O;
    the interpreter owns dispatch, counting, and drop logging, so the
    semantics table in the module docstring holds for every backend.
    """

    # -- sends ----------------------------------------------------------

    def deliver(self, conn: int, message: Any) -> bool:
        """Queue *message* on *conn*; False when the connection is gone.

        Returning False (rather than raising) is the fail-stop contract:
        the interpreter counts and logs the drop.
        """
        raise NotImplementedError

    def deliver_batch(self, conn: int, messages: list[Any]) -> bool:
        """Deliver a coalesced run of messages to one connection.

        One flush per run: the asyncio host's flush performs a single
        ``write_many``; the simulator charges one CPU occupancy for the
        total frame bytes.  Default: per-message :meth:`deliver` calls
        (correct, just unbatched).  Returns False when the connection is
        gone, in which case the whole run counts as dropped.
        """
        ok = True
        for message in messages:
            ok = self.deliver(conn, message) and ok
        return ok

    def deliver_fanout(self, conns: Sequence[int], message: Any) -> int:
        """Queue one *message* on each of *conns*, in order; returns how
        many accepted it (gone and kicked connections are skipped).

        Default: per-recipient :meth:`deliver` calls.  A host overrides
        it to do once what does not depend on the recipient (sizing and
        classifying the frame, one call into the host)."""
        delivered = 0
        for conn in conns:
            if self.deliver(conn, message):
                delivered += 1
        return delivered

    def deliver_multicast(self, conns: Sequence[int], message: Any) -> int:
        """Deliver one message to many connections as one copy on the
        medium; returns how many connections actually received it
        (unknown ones are skipped).  Default: a host without multicast
        support degrades to the point-to-point fan-out."""
        return self.deliver_fanout(conns, message)

    # -- timers ---------------------------------------------------------

    def start_timer(self, key: str, delay: float) -> None:
        """Arm *key* to fire after *delay*; re-arms if already armed."""
        raise NotImplementedError

    def cancel_timer(self, key: str) -> None:
        """Disarm *key*; missing or already-fired keys are a no-op."""
        raise NotImplementedError

    # -- connections ----------------------------------------------------

    def open_connection(self, address: Any, key: str) -> None:
        """Dial *address*; the host later feeds ``on_connected`` (and, on
        failure, an immediately following ``on_closed``) into the core."""
        raise NotImplementedError

    def close_connection(self, conn: int) -> None:
        """Close *conn* after already-queued writes have been flushed."""
        raise NotImplementedError

    # -- storage --------------------------------------------------------

    def create_group_storage(self, group: str, meta: bytes) -> None:
        """Create on-disk structures for *group*; idempotent."""

    def purge_group_storage(self, group: str) -> None:
        """Remove *group* from stable storage; missing group is a no-op."""

    def append_wal(self, group: str, seqno: int, record: bytes) -> None:
        """Append one WAL record (asynchronously unless configured for
        synchronous durability — the paper's off-critical-path logging)."""

    def append_wal_many(self, group: str, records: list[tuple[int, bytes]]) -> None:
        """Group-commit a run of same-group WAL records in one batch.

        One buffered write and one flush for the whole run (see
        ``WriteAheadLog.append_many``).  Default: per-record
        :meth:`append_wal` calls (correct, just unbatched).
        """
        for seqno, record in records:
            self.append_wal(group, seqno, record)

    def write_checkpoint(self, group: str, seqno: int, snapshot: bytes) -> None:
        """Persist a checkpoint; implies WAL rotation (see GroupStore)."""

    def truncate_wal(self, group: str, seqno: int) -> None:
        """Discard WAL records at or below *seqno*.

        Explicitly a no-op for GroupStore-backed hosts: the
        ``GroupStore.checkpoint`` contract is that persisting checkpoint
        S rotates the active WAL segment and deletes segments entirely
        at or below S, so by the time a core emits ``TruncateWal`` after
        ``WriteCheckpoint`` the truncation has already happened on disk.
        Backends over storage without rotate-on-checkpoint must override.
        """

    # -- application events and lifecycle -------------------------------

    def notify(self, kind: str, payload: Any) -> None:
        """Hand an application-level event to registered handlers, in
        registration order."""
        raise NotImplementedError

    def shutdown(self, reason: str) -> None:
        """The core stopped: release timers, connections, storage."""
        raise NotImplementedError


class EffectInterpreter:
    """Registry dispatch: effect type -> (middleware-wrapped) handler.

    Handlers are wrapped in the middleware chain once, at registration;
    dispatching is a dict lookup plus a call.  Effect subclasses resolve
    through the MRO on first sight and are cached.
    """

    def __init__(self, middlewares: Iterable[Middleware] = ()) -> None:
        self.middlewares: tuple[Middleware, ...] = tuple(middlewares)
        self.stats = DispatchStats()
        self._chains: dict[type, Callable[[Effect], None]] = {}
        #: effect type -> (run key fn, flush fn, staging chain)
        self._batches: dict[type, tuple[Callable, Callable, Callable]] = {}
        self._staged: list[Effect] | None = None

    # -- registration ---------------------------------------------------

    def register(
        self, effect_type: type, handler: Callable[[Effect], None]
    ) -> None:
        """Map *effect_type* (an :class:`Effect` subclass) to *handler*."""
        if not (isinstance(effect_type, type) and issubclass(effect_type, Effect)):
            raise TypeError(f"{effect_type!r} is not an Effect subclass")
        self._chains[effect_type] = self._wrap(handler)

    def register_batch(
        self,
        effect_type: type,
        key: Callable[[Effect], Any],
        flush: Callable[[Any, list[Effect]], None],
    ) -> None:
        """Coalesce consecutive *effect_type* effects with equal *key*.

        During :meth:`execute`, a run of length > 1 stages each effect
        through the middleware chain individually (so drops and counters
        stay per-effect) and then calls ``flush(key, surviving_effects)``
        exactly once.
        """
        if effect_type not in self._chains:
            raise LookupError(
                f"register({effect_type.__name__}, ...) before register_batch"
            )
        stage_chain = self._wrap(self._stage)
        self._batches[effect_type] = (key, flush, stage_chain)

    def unregister_all(self) -> None:
        """Forget every handler.  Handlers close over their backend, so
        a host that is done with its interpreter drops them to leave no
        reference cycle behind."""
        self._chains.clear()
        self._batches.clear()

    def _wrap(self, handler: Callable[[Effect], None]) -> Callable[[Effect], None]:
        chain = handler
        for mw in reversed(self.middlewares):
            chain = (lambda m, nxt: lambda effect: m(effect, nxt))(mw, chain)
        return chain

    def _stage(self, effect: Effect) -> None:
        assert self._staged is not None
        self._staged.append(effect)

    # -- dispatch -------------------------------------------------------

    def handler_for(self, effect_type: type) -> Callable[[Effect], None]:
        """The resolved chain for *effect_type* (MRO fallback, cached)."""
        chain = self._chains.get(effect_type)
        if chain is None:
            for base in effect_type.__mro__[1:]:
                chain = self._chains.get(base)
                if chain is not None:
                    self._chains[effect_type] = chain  # resolve once
                    break
            else:
                raise UnknownEffectError(
                    f"no handler registered for effect {effect_type.__name__}"
                )
        return chain

    def dispatch(self, effect: Effect) -> None:
        """Run one effect through its middleware chain and handler."""
        self.handler_for(type(effect))(effect)

    def execute(self, effects: Sequence[Effect]) -> None:
        """Run a core's effect list in emission order, coalescing runs
        of batchable effects (consecutive sends to one connection)."""
        i = 0
        n = len(effects)
        while i < n:
            effect = effects[i]
            spec = self._batches.get(type(effect))
            if spec is None:
                self.dispatch(effect)
                i += 1
                continue
            key_fn, flush, stage_chain = spec
            run_key = key_fn(effect)
            j = i + 1
            while (
                j < n
                and type(effects[j]) is type(effect)
                and key_fn(effects[j]) == run_key
            ):
                j += 1
            if j - i == 1:
                self.dispatch(effect)
            else:
                self._staged = []
                try:
                    for staged_effect in effects[i:j]:
                        stage_chain(staged_effect)
                    survivors = self._staged
                finally:
                    self._staged = None
                if survivors:
                    flush(run_key, survivors)
            i = j


# --------------------------------------------------------------------------
# built-in middlewares
# --------------------------------------------------------------------------

def trace_middleware(sink: Callable[[Effect], None]) -> Middleware:
    """Emit every effect to *sink* before execution (trace recording for
    :mod:`repro.analysis.tracecheck` and debugging)."""

    def middleware(effect: Effect, nxt: Callable[[Effect], None]) -> None:
        sink(effect)
        nxt(effect)

    return middleware


def metrics_middleware(counters: dict[str, int]) -> Middleware:
    """Count dispatches per effect-type name into *counters*."""

    def middleware(effect: Effect, nxt: Callable[[Effect], None]) -> None:
        name = type(effect).__name__
        counters[name] = counters.get(name, 0) + 1
        nxt(effect)

    return middleware


@dataclass
class _FaultRule:
    effect_type: type
    predicate: Callable[[Effect], bool] | None
    times: int | None
    exc: Exception | None


class FaultInjector:
    """Fault-injection middleware: drop or fail selected effects.

    >>> faults = FaultInjector()
    >>> faults.drop(SendMessage, lambda e: e.conn == 3, times=1)
    >>> host = SimHost(..., middlewares=[faults])

    Dropping is the only mutation faults perform — effects are never
    edited in place (see the middleware contract in the module docs).
    """

    def __init__(self) -> None:
        self._rules: list[_FaultRule] = []
        self.dropped: list[Effect] = []

    def drop(
        self,
        effect_type: type,
        predicate: Callable[[Effect], bool] | None = None,
        times: int | None = None,
    ) -> None:
        """Swallow matching effects (*times* limits how many)."""
        self._rules.append(_FaultRule(effect_type, predicate, times, None))

    def fail(
        self,
        effect_type: type,
        exc: Exception,
        predicate: Callable[[Effect], bool] | None = None,
        times: int | None = None,
    ) -> None:
        """Raise *exc* when a matching effect is dispatched."""
        self._rules.append(_FaultRule(effect_type, predicate, times, exc))

    def __call__(self, effect: Effect, nxt: Callable[[Effect], None]) -> None:
        for rule in self._rules:
            if rule.times == 0:
                continue
            if not isinstance(effect, rule.effect_type):
                continue
            if rule.predicate is not None and not rule.predicate(effect):
                continue
            if rule.times is not None:
                rule.times -= 1
            if rule.exc is not None:
                raise rule.exc
            self.dropped.append(effect)
            return  # swallowed
        nxt(effect)


# --------------------------------------------------------------------------
# the standard wiring
# --------------------------------------------------------------------------

def build_interpreter(
    backend: EffectBackend, middlewares: Iterable[Middleware] = ()
) -> EffectInterpreter:
    """Wire the full effect catalogue onto *backend*.

    Every host uses this one mapping, so adding an effect type means
    adding a backend method here — there is no second dispatch chain to
    keep in sync.
    """
    interp = EffectInterpreter(middlewares=middlewares)
    stats = interp.stats

    def send(effect: SendMessage) -> None:
        if backend.deliver(effect.conn, effect.message):
            stats.sends += 1
        else:
            stats.send_drops += 1
            logger.warning(
                "dropping SendMessage to unknown or kicked connection %r", effect.conn
            )

    def send_batch(conn: int, run: list[SendMessage]) -> None:
        if backend.deliver_batch(conn, [e.message for e in run]):
            stats.sends += len(run)
        else:
            stats.send_drops += len(run)
            logger.warning(
                "dropping batch of %d messages to unknown or kicked connection %r",
                len(run), conn,
            )

    def send_fanout(effect: SendFanout) -> None:
        delivered = backend.deliver_fanout(effect.conns, effect.message)
        stats.sends += delivered
        dropped = len(effect.conns) - delivered
        if dropped:
            stats.send_drops += dropped
            logger.warning(
                "fan-out dropped %d unknown or kicked connection(s) of %d",
                dropped, len(effect.conns),
            )

    def send_multicast(effect: SendMulticast) -> None:
        delivered = backend.deliver_multicast(effect.conns, effect.message)
        stats.multicast_fanout += delivered
        dropped = len(effect.conns) - delivered
        if dropped:
            stats.multicast_drops += dropped
            logger.warning(
                "multicast skipped %d unknown or kicked connection(s) of %d",
                dropped, len(effect.conns),
            )

    def start_timer(effect: StartTimer) -> None:
        stats.timers_started += 1
        backend.start_timer(effect.key, effect.delay)

    def cancel_timer(effect: CancelTimer) -> None:
        stats.timers_cancelled += 1
        backend.cancel_timer(effect.key)

    def open_connection(effect: OpenConnection) -> None:
        stats.opens += 1
        backend.open_connection(effect.address, effect.key)

    def close_connection(effect: CloseConnection) -> None:
        stats.closes += 1
        backend.close_connection(effect.conn)

    def create_storage(effect: CreateGroupStorage) -> None:
        stats.storage_creates += 1
        backend.create_group_storage(effect.group, effect.meta)

    def purge_storage(effect: PurgeGroupStorage) -> None:
        stats.storage_purges += 1
        backend.purge_group_storage(effect.group)

    def append_wal(effect: AppendWal) -> None:
        stats.wal_appends += 1
        backend.append_wal(effect.group, effect.seqno, effect.record)

    def append_wal_batch(group: str, run: list[AppendWal]) -> None:
        stats.wal_appends += len(run)
        backend.append_wal_many(group, [(e.seqno, e.record) for e in run])

    def write_checkpoint(effect: WriteCheckpoint) -> None:
        stats.checkpoints += 1
        backend.write_checkpoint(effect.group, effect.seqno, effect.snapshot)

    def truncate_wal(effect: TruncateWal) -> None:
        stats.wal_truncates += 1
        backend.truncate_wal(effect.group, effect.seqno)

    def notify(effect: Notify) -> None:
        stats.notifications += 1
        backend.notify(effect.kind, effect.payload)

    def shutdown(effect: ShutDown) -> None:
        stats.shutdowns += 1
        backend.shutdown(effect.reason)

    interp.register(SendMessage, send)
    interp.register_batch(SendMessage, key=lambda e: e.conn, flush=send_batch)
    interp.register(SendFanout, send_fanout)
    interp.register(SendMulticast, send_multicast)
    interp.register(StartTimer, start_timer)
    interp.register(CancelTimer, cancel_timer)
    interp.register(OpenConnection, open_connection)
    interp.register(CloseConnection, close_connection)
    interp.register(CreateGroupStorage, create_storage)
    interp.register(PurgeGroupStorage, purge_storage)
    interp.register(AppendWal, append_wal)
    interp.register_batch(AppendWal, key=lambda e: e.group, flush=append_wal_batch)
    interp.register(WriteCheckpoint, write_checkpoint)
    interp.register(TruncateWal, truncate_wal)
    interp.register(Notify, notify)
    interp.register(ShutDown, shutdown)
    return interp
