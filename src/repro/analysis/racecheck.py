"""Happens-before race checking over instrumented sharded-host traces.

The static lease rule (deepcheck's SHARD004) proves that only code
running a shard worker's item protocol *reaches* a group's runtime; this
module is the dynamic counterpart.  The sharded hosts optionally carry a :class:`RaceRecorder`
that logs four event kinds while a workload runs:

* ``send`` / ``recv`` — a mailbox hop (front → shard post, shard →
  front ``call_front`` / ``run_front``), matched by a unique token;
* ``read`` / ``write`` — an access to a shared object: WAL appends and
  checkpoint writes (``wal:<group>``), and wire frame-cache hits and
  fills (``frame:<id>``), observed through interpreter middleware.

:func:`check_race_trace` then replays the trace with vector clocks: each
lane (front loop, every shard loop) advances its own component, a recv
joins the matching send's clock, and two accesses to one object conflict
when neither happens-before the other and at least one is a write — the
classic data-race condition, reported as ``RACE001``.

The recorder is thread-safe and cheap; hosts built without one pay a
single ``is None`` check per hop.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterable

from repro.analysis.findings import Finding, Severity
from repro.wire import frames

__all__ = [
    "RACE_RULE_DOCS",
    "RaceEvent",
    "RaceRecorder",
    "check_race_trace",
    "events_to_jsonl",
    "events_from_jsonl",
    "inject_race",
    "seeded_sharded_trace",
    "strip_migration_edges",
]

RACE_RULE_DOCS: dict[str, tuple[Severity, str, str]] = {
    "RACE001": (
        Severity.ERROR,
        "two lanes touched one shared object without a happens-before "
        "edge between the accesses (at least one a write)",
        "route the access through the owning lane's mailbox or call_front",
    ),
}


@dataclass(frozen=True)
class RaceEvent:
    """One instrumented step of a sharded run.

    ``lane`` is the executing loop ("front", "shard0", ...); ``obj`` is
    the mailbox name for send/recv and the shared-object key for
    read/write; ``token`` pairs a recv with its send.
    """

    lane: str
    kind: str  # "send" | "recv" | "read" | "write"
    obj: str
    token: int = 0
    loc: str = ""


class RaceRecorder:
    """Thread-safe trace sink the hosts call into.

    Appends are serialized by a lock, and a send always returns its
    token before the matching item is posted — so the recorded order is
    a valid linearization (each lane's events in program order, every
    send before its recv), which is all the checker needs.
    """

    def __init__(self) -> None:
        self._events: list[RaceEvent] = []
        self._lock = threading.Lock()
        self._tokens = itertools.count(1)
        #: id(message) -> (key, message), held so no other message (on
        #: another lane: a phantom race) can reuse the id
        self._frame_keys: dict[int, tuple[int, Any]] = {}

    def send(self, lane: str, mailbox: str, loc: str = "") -> int:
        """Record a mailbox post from *lane*; returns the hop token."""
        token = next(self._tokens)
        self._append(RaceEvent(lane, "send", mailbox, token, loc))
        return token

    def recv(self, lane: str, mailbox: str, token: int, loc: str = "") -> None:
        """Record the matching delivery on the receiving *lane*."""
        self._append(RaceEvent(lane, "recv", mailbox, token, loc))

    def read(self, lane: str, obj: str, loc: str = "") -> None:
        self._append(RaceEvent(lane, "read", obj, 0, loc))

    def write(self, lane: str, obj: str, loc: str = "") -> None:
        self._append(RaceEvent(lane, "write", obj, 0, loc))

    def _append(self, event: RaceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def wire_access(self, lane: str, message: Any, loc: str = "") -> None:
        """Record one frame-cache touch of *message* on *lane*: the fill
        (first encode) is a write, a reuse of the cached frame a read.

        The optimistic scheduler's execution lanes warm delivery frames
        outside any interpreter middleware; this is their hook into the
        same frame-object model the :meth:`middleware` uses, so
        the happens-before replay sees the lane's fill ordered (via the
        commit join edge) before its shard's cached-frame reads."""
        obj = self._frame_key(message)
        if frames.cached_frame(message) is not None:
            self.read(lane, obj, loc)
        else:
            self.write(lane, obj, loc)

    def _frame_key(self, message: Any) -> str:
        # intern object identity into first-seen order so recorded traces
        # are deterministic across processes (id() is not)
        with self._lock:
            keys = self._frame_keys
            key = keys.setdefault(id(message), (len(keys) + 1, message))[0]
        return f"frame:{key}"

    def events(self) -> list[RaceEvent]:
        with self._lock:
            return list(self._events)

    def middleware(self, lane: str) -> Callable[[Any, Callable[[Any], None]], None]:
        """Interpreter middleware recording shared-object accesses on
        *lane*: WAL/checkpoint writes, and frame cache fills (first encode
        of a message = write) vs. reuses (= read) — every lane of a
        sharded host sends straight into the host's outboxes."""
        # dispatch by type name, not isinstance chains: this observer is
        # not an effect interpreter (and must stay EFF001-clean)
        def middleware(effect: Any, nxt: Callable[[Any], None]) -> None:
            kind = type(effect).__name__
            if kind in ("AppendWal", "WriteCheckpoint"):
                self.write(lane, f"wal:{effect.group}", loc=kind)
            elif kind in ("SendMessage", "SendFanout", "SendMulticast"):
                self.wire_access(lane, effect.message, loc=kind)
            nxt(effect)

        return middleware


# --------------------------------------------------------------------------
# vector-clock replay
# --------------------------------------------------------------------------

def _hb(before: dict[str, int], after: dict[str, int]) -> bool:
    """True when clock *before* happens-before (or equals) *after*."""
    return all(after.get(lane, 0) >= tick for lane, tick in before.items())


def check_race_trace(events: Iterable[RaceEvent], name: str = "race-trace") -> list[Finding]:
    """Replay *events* under vector clocks; report unordered conflicts.

    One finding per (object, lane pair, access kinds) — a racy hot loop
    does not flood the report.
    """
    clocks: dict[str, dict[str, int]] = {}
    sends: dict[int, dict[str, int]] = {}
    #: obj -> last write (lane, clock, loc)
    last_write: dict[str, tuple[str, dict[str, int], str]] = {}
    #: obj -> reads since the last write: lane -> (clock, loc)
    reads: dict[str, dict[str, tuple[dict[str, int], str]]] = {}
    findings: list[Finding] = []
    reported: set[tuple] = set()

    def report(obj: str, kind_a: str, a: tuple, kind_b: str, b: tuple) -> None:
        lane_a, _, loc_a = a
        lane_b, _, loc_b = b
        # direction-insensitive: a racy hot loop flip-flopping which lane
        # got there first is still ONE race per (object, lane pair)
        key = (obj,) + tuple(sorted([(kind_a, lane_a), (kind_b, lane_b)]))
        if key in reported:
            return
        reported.add(key)
        findings.append(Finding(
            rule_id="RACE001",
            severity=Severity.ERROR,
            path=name,
            line=0,
            col=0,
            message=(
                f"unordered {kind_a}/{kind_b} of {obj}: "
                f"{lane_a} ({loc_a or kind_a}) vs {lane_b} ({loc_b or kind_b})"
            ),
            hint=RACE_RULE_DOCS["RACE001"][2],
        ))

    for event in events:
        clock = clocks.setdefault(event.lane, {})
        clock[event.lane] = clock.get(event.lane, 0) + 1
        if event.kind == "send":
            sends[event.token] = dict(clock)
            continue
        if event.kind == "recv":
            sent = sends.pop(event.token, None)
            if sent is not None:
                for lane, tick in sent.items():
                    if clock.get(lane, 0) < tick:
                        clock[lane] = tick
            continue
        snapshot = (event.lane, dict(clock), event.loc)
        write = last_write.get(event.obj)
        if event.kind == "read":
            if write is not None and write[0] != event.lane and not _hb(write[1], clock):
                report(event.obj, "write", write, "read", snapshot)
            reads.setdefault(event.obj, {})[event.lane] = (dict(clock), event.loc)
        elif event.kind == "write":
            if write is not None and write[0] != event.lane and not _hb(write[1], clock):
                report(event.obj, "write", write, "write", snapshot)
            for lane, (read_clock, read_loc) in sorted(reads.get(event.obj, {}).items()):
                if lane != event.lane and not _hb(read_clock, clock):
                    report(event.obj, "read", (lane, read_clock, read_loc),
                           "write", snapshot)
            last_write[event.obj] = snapshot
            reads.pop(event.obj, None)
    return findings


# --------------------------------------------------------------------------
# serialization (CI artifact / offline checking)
# --------------------------------------------------------------------------

def events_to_jsonl(events: Iterable[RaceEvent]) -> str:
    return "\n".join(json.dumps(asdict(event)) for event in events)


def events_from_jsonl(text: str) -> list[RaceEvent]:
    return [
        RaceEvent(**json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


# --------------------------------------------------------------------------
# fixtures: a seeded workload and a deliberate race
# --------------------------------------------------------------------------

def inject_race(events: list[RaceEvent]) -> list[RaceEvent]:
    """Append a deliberate unordered write/write conflict to *events*.

    Appended last, each write's clock dominates everything its own lane
    ever learned — and nothing communicated afterwards — so the pair can
    never be ordered and :func:`check_race_trace` must flag it.
    """
    lanes = sorted({e.lane for e in events if e.lane != "front"})
    lane_a = lanes[0] if lanes else "shard0"
    lane_b = lanes[-1] if len(lanes) > 1 else "shard-injected"
    return list(events) + [
        RaceEvent(lane_a, "write", "injected:frame", 0, "inject-a"),
        RaceEvent(lane_b, "write", "injected:frame", 0, "inject-b"),
    ]


def strip_migration_edges(events: list[RaceEvent]) -> list[RaceEvent]:
    """Remove the migration handoff hops (the ``mig:*`` channels) from a
    trace, keeping everything else.

    The sharded hosts label the migration protocol's relays — the
    ``migrate_*`` mailbox items and the worker→front lifecycle events —
    with ``mig:`` instead of ``mbox:``.  Those hops are the
    happens-before chain that orders the source's snapshot read of
    ``wal:<group>`` before the destination's install write.  Stripping
    them must therefore make a trace containing a live migration racy
    (RACE001 on ``wal:<group>``): the edges are load-bearing, not
    decorative.  Tests assert both directions (intact trace clean,
    stripped trace flagged).
    """
    mig_tokens = {
        e.token for e in events
        if e.kind == "send" and e.obj.startswith("mig:")
    }
    return [
        e for e in events
        if not (e.kind == "send" and e.obj.startswith("mig:"))
        and not (e.kind == "recv" and e.token in mig_tokens)
    ]


#: The deterministic workload replayed under instrumentation: exercises
#: create/join routing, cross-shard broadcast fan-out (WAL + frame cache
#: traffic on every lane), scatter-gathered ListGroups, and teardown.
SCRIPT: tuple[tuple[str, str, tuple], ...] = (
    ("alice", "create_group", ("race-g0", True)),
    ("alice", "create_group", ("race-g1", True)),
    ("alice", "create_group", ("race-g2", True)),
    ("alice", "join_group", ("race-g0",)),
    ("alice", "join_group", ("race-g1",)),
    ("alice", "join_group", ("race-g2",)),
    ("bob", "join_group", ("race-g0",)),
    ("bob", "join_group", ("race-g2",)),
    ("alice", "bcast_state", ("race-g0", "doc", b"base")),
    ("alice", "bcast_update", ("race-g0", "doc", b"+1")),
    ("bob", "bcast_update", ("race-g2", "doc", b"hello")),
    ("alice", "list_groups", ()),
    ("bob", "leave_group", ("race-g0",)),
)


def seeded_sharded_trace(
    store_root: Any = None, shards: int = 3
) -> list[RaceEvent]:
    """Run the seeded script on an instrumented sharded sim world and
    return the recorded race trace (deterministic per seed/script)."""
    from repro.core.server import ServerConfig
    from repro.sim.harness import CoronaWorld

    recorder = RaceRecorder()
    world = CoronaWorld()
    world.add_sharded_server(
        config=ServerConfig(server_id="server"),
        shards=shards,
        store_root=store_root,
        race_recorder=recorder,
    )
    clients = {name: world.add_client(client_id=name) for name in ("alice", "bob")}
    world.run()
    for name, method, args in SCRIPT:
        call = clients[name].call(method, *args)
        world.run()
        if not call.ok:  # pragma: no cover - the script is known-good
            raise RuntimeError(f"{method}{args} failed: {call.error}")
    return recorder.events()
