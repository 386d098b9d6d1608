"""Sans-io driver for unit-testing protocol cores without any host."""

from __future__ import annotations

import itertools
from typing import Any, Iterator

from repro.core.events import (
    AppendWal,
    CancelTimer,
    CloseConnection,
    Effect,
    Notify,
    SendFanout,
    SendMessage,
    StartTimer,
    WriteCheckpoint,
)
from repro.wire.messages import Delivery


def sends_in(effects: list[Effect]) -> Iterator[tuple[int, Any]]:
    """Every ``(conn, message)`` *effects* write, in wire order.  The one
    place in the tests that knows a group fan-out is a single
    ``SendFanout`` effect: it expands to one send per recipient."""
    for effect in effects:
        if isinstance(effect, SendMessage):
            yield effect.conn, effect.message
        elif isinstance(effect, SendFanout):
            for conn in effect.conns:
                yield conn, effect.message


class CoreDriver:
    """Feeds events into one core and indexes the resulting effects."""

    def __init__(self, core: Any) -> None:
        self.core = core
        self._conn_ids = itertools.count(100)
        self.effects: list[Effect] = []

    # -- driving -----------------------------------------------------------

    def connect(self, peer: str = "peer", key: str = "") -> int:
        conn = next(self._conn_ids)
        self.effects.extend(self.core.on_connected(conn, peer=peer, key=key))
        return conn

    def deliver(self, conn: int, message: Any) -> list[Effect]:
        effects = self.core.on_message(conn, message)
        self.effects.extend(effects)
        return effects

    def close(self, conn: int) -> list[Effect]:
        effects = self.core.on_closed(conn)
        self.effects.extend(effects)
        return effects

    def fire_timer(self, key: str) -> list[Effect]:
        effects = self.core.on_timer(key)
        self.effects.extend(effects)
        return effects

    def invoke(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Call a request method on the core and collect emitted effects."""
        result = getattr(self.core, method)(*args, **kwargs)
        self.effects.extend(self.core.drain())
        return result

    # -- inspection -----------------------------------------------------------

    def sent_to(self, conn: int, effects: list[Effect] | None = None) -> list[Any]:
        """Messages sent to *conn* (within *effects* or everything so far)."""
        pool = self.effects if effects is None else effects
        return [message for to, message in sends_in(pool) if to == conn]

    def deliveries_to(self, conn: int, effects: list[Effect] | None = None) -> list[Delivery]:
        """The sequenced deliveries among :meth:`sent_to`."""
        return [m for m in self.sent_to(conn, effects) if isinstance(m, Delivery)]

    def all_sends(self, effects: list[Effect] | None = None) -> list[SendMessage]:
        """One ``SendMessage`` per recipient, fan-outs expanded."""
        pool = self.effects if effects is None else effects
        return [SendMessage(to, message) for to, message in sends_in(pool)]

    def of_type(self, effect_type: type, effects: list[Effect] | None = None) -> list[Effect]:
        pool = self.effects if effects is None else effects
        return [e for e in pool if isinstance(e, effect_type)]

    def notifications(self, kind: str | None = None) -> list[Notify]:
        out = [e for e in self.effects if isinstance(e, Notify)]
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        return out

    def wal_appends(self) -> list[AppendWal]:
        return [e for e in self.effects if isinstance(e, AppendWal)]

    def checkpoints(self) -> list[WriteCheckpoint]:
        return [e for e in self.effects if isinstance(e, WriteCheckpoint)]

    def timers_started(self) -> list[StartTimer]:
        return [e for e in self.effects if isinstance(e, StartTimer)]

    def timers_cancelled(self) -> list[CancelTimer]:
        return [e for e in self.effects if isinstance(e, CancelTimer)]

    def closes(self) -> list[CloseConnection]:
        return [e for e in self.effects if isinstance(e, CloseConnection)]

    def clear(self) -> None:
        self.effects.clear()
