"""The backend-independent half of every host.

:class:`~repro.core.interpreter.EffectBackend` is the interface the
effect interpreter drives; :class:`HostBackend` is the part of its
implementation that does not depend on where the host runs.  The asyncio
host, the simulated host and both kinds of shard worker inherit it, so
each of these has exactly one definition:

* the interpreter and the core's stats binding (:meth:`set_core`,
  :attr:`dispatch_stats`);
* the storage effects, against an optional
  :class:`~repro.storage.store.GroupStore` (the simulator wraps them
  with cost-model charges and calls ``super()``);
* the timer table — arm/re-arm/cancel bookkeeping over whatever
  :meth:`call_later` returns (an asyncio ``TimerHandle`` or a kernel
  ``EventHandle``; both cancel the same way);
* ``Notify`` handler registration and fan-out;
* the per-connection :class:`~repro.net.flowcontrol.BoundedOutbox`
  registry with its high-water gauge.

A subclass supplies the event loop: :meth:`call_later`, the send path
(``deliver*``), connections, and ``shutdown``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.events import ProtocolCore
from repro.core.interpreter import (
    DispatchStats,
    EffectBackend,
    Middleware,
    build_interpreter,
)
from repro.net.flowcontrol import DEFAULT_FLOW, BoundedOutbox, FlowControlConfig
from repro.storage.store import GroupStore

__all__ = ["HostBackend"]


class HostBackend(EffectBackend):
    """Interpreter, storage, timers, notify and outboxes of one host."""

    def __init__(
        self,
        store: GroupStore | None = None,
        middlewares: Iterable[Middleware] = (),
        flow: FlowControlConfig | None = None,
    ) -> None:
        self.core: ProtocolCore | None = None
        self.store = store
        self.flow = flow if flow is not None else DEFAULT_FLOW
        self.interpreter = build_interpreter(self, middlewares)
        self._timers: dict[str, Any] = {}
        self._notify_handlers: list[Callable[[str, Any], None]] = []
        self._outboxes: dict[int, BoundedOutbox] = {}
        self._retired_peak_depth = 0

    def set_core(self, core: ProtocolCore) -> None:
        """Install the protocol core this host runs."""
        self.core = core
        if hasattr(core, "stats"):
            # server cores count transfer events on their own stats
            # object; point it at the interpreter's so every backend
            # reports one unified set of counters (host parity)
            core.stats = self.interpreter.stats

    @property
    def dispatch_stats(self) -> DispatchStats:
        """Effect counters (sends, drops, timers, WAL ops, ...)."""
        return self.interpreter.stats

    def release(self) -> None:
        """Drop what ties a stopped host into reference cycles — its
        core, its notify handlers and its interpreter's handlers — so it
        is freed without the cycle collector.  Nothing runs on the host
        afterwards."""
        self.core = None
        self._notify_handlers.clear()
        self.interpreter.unregister_all()

    # -- EffectBackend: timers --------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Any:
        """Run ``fn(*args)`` on this host's loop after *delay* seconds;
        returns a handle with ``cancel()``."""
        raise NotImplementedError

    def start_timer(self, key: str, delay: float) -> None:
        self.cancel_timer(key)
        self._timers[key] = self.call_later(delay, self._fire_timer, key)

    def cancel_timer(self, key: str) -> None:
        handle = self._timers.pop(key, None)
        if handle is not None:
            handle.cancel()

    def _fire_timer(self, key: str) -> None:
        self._timers.pop(key, None)
        self.interpreter.execute(self.core.on_timer(key))

    def _cancel_timers(self) -> None:
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()

    # -- EffectBackend: storage -------------------------------------------

    def create_group_storage(self, group: str, meta: bytes) -> None:
        if self.store is not None and not self.store.has_group(group):
            self.store.create_group(group, meta)

    def purge_group_storage(self, group: str) -> None:
        if self.store is not None:
            self.store.delete_group(group)

    def append_wal(self, group: str, seqno: int, record: bytes) -> None:
        if self.store is not None:
            self.store.append(group, seqno, record)

    def append_wal_many(self, group: str, records: list[tuple[int, bytes]]) -> None:
        if self.store is not None:
            self.store.append_many(group, records)

    def write_checkpoint(self, group: str, seqno: int, snapshot: bytes) -> None:
        if self.store is not None:
            self.store.checkpoint(group, seqno, snapshot)

    # truncate_wal: inherited no-op — GroupStore.checkpoint already
    # rotates segments (see the EffectBackend contract).

    # -- EffectBackend: notify --------------------------------------------

    def on_notify(self, handler: Callable[[str, Any], None]) -> None:
        """Register an application callback for ``Notify`` effects
        (multiple handlers are all invoked, in registration order)."""
        self._notify_handlers.append(handler)

    def notify(self, kind: str, payload: Any) -> None:
        for handler in self._notify_handlers:
            handler(kind, payload)

    # -- outbox registry ----------------------------------------------------

    def _open_outbox(self, conn: int) -> None:
        self._outboxes[conn] = BoundedOutbox(self.flow, self.interpreter.stats)

    def _retire_outbox(self, conn: int) -> None:
        box = self._outboxes.pop(conn, None)
        if box is not None and box.peak_depth > self._retired_peak_depth:
            self._retired_peak_depth = box.peak_depth

    @property
    def outbox_peak_depth(self) -> int:
        """High-water mark of queued frames over all outboxes, ever.

        A host-level gauge rather than a ``DispatchStats`` counter: peak
        depth depends on writer/pump scheduling, so it is measured per
        backend, not parity-checked (``docs/flow-control.md``).
        """
        live = max((box.peak_depth for box in self._outboxes.values()), default=0)
        return max(live, self._retired_peak_depth)
