"""The four workloads and the seeded traffic they share.

A workload is a *deployment* (how the server is started) plus a
*traffic spec* (who is in which group and what they send).  The three
``rooms_*`` workloads share one traffic spec object, so for one seed
they put byte-identical request streams on the wire and differ only in
the layer they add: nothing, ``runtime.shard``, or ``storage``.

The request stream is a pure function of ``(spec, seed)``: global op
``g`` goes to sender ``g % senders``, room ``room_order[g % rooms]``,
and follows the pattern "15 ``bcast_update`` then 1 ``bcast_state`` per
live object, 8 live objects", which keeps every object's state bounded.
The first 8 payload bytes are ``g`` itself: the probe member maps a
delivery back to the instant its request was due, and the verifier maps
it back to the bytes the generator sent.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.wire.framing import frame_message
from repro.wire.messages import (
    BcastStateRequest,
    BcastUpdateRequest,
    ObjectState,
    UpdateKind,
)

__all__ = [
    "BALLAST_OBJECTS",
    "BALLAST_OBJECT_BYTES",
    "LIVE_OBJECTS",
    "UPDATES_PER_STATE",
    "TrafficSpec",
    "Traffic",
    "Workload",
    "WORKLOADS",
    "workload_named",
]

BALLAST_OBJECTS = 32
BALLAST_OBJECT_BYTES = 8 * 1024
LIVE_OBJECTS = 8
UPDATES_PER_STATE = 15

_STAMP_BYTES = 8
_NOISE_BYTES = 1 << 20


@dataclass(frozen=True)
class TrafficSpec:
    """Who is in which group and what one op looks like."""

    rooms: int
    senders: int
    #: Passive raw members; like the senders, each joins every room.
    sinks: int
    payload_bytes: int


@dataclass(frozen=True)
class Op:
    """One broadcast request, as the verifier folds it."""

    room: int
    object_id: str
    kind: UpdateKind
    data: bytes


class Traffic:
    """The request stream of one ``(spec, seed)`` pair."""

    def __init__(self, spec: TrafficSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        rng = random.Random(seed)
        self._noise = rng.randbytes(_NOISE_BYTES)
        order = list(range(spec.rooms))
        rng.shuffle(order)
        #: Position in the round-robin -> room index.  Room 0 is always
        #: the ballast room; only *when* it is visited depends on the seed.
        self.room_order = tuple(order)
        self.ballast = tuple(
            ObjectState(f"ballast-{i:02d}", rng.randbytes(BALLAST_OBJECT_BYTES))
            for i in range(BALLAST_OBJECTS)
        )
        #: Seeded offsets added to each joiner's arrival, as a share of the
        #: gap between two joiners.
        self.join_jitter = tuple(rng.uniform(-0.2, 0.2) for _ in range(64))

    @staticmethod
    def room_name(room: int) -> str:
        return f"room-{room:02d}"

    def op(self, g: int) -> Op:
        """Global op number *g* (the same on every deployment)."""
        spec = self.spec
        room = self.room_order[g % spec.rooms]
        visit = g // spec.rooms  # how often this room was visited before
        pass_no = visit // LIVE_OBJECTS
        kind = (
            UpdateKind.STATE
            if pass_no % (UPDATES_PER_STATE + 1) == UPDATES_PER_STATE
            else UpdateKind.UPDATE
        )
        size = spec.payload_bytes - _STAMP_BYTES
        offset = (g * 61) % (_NOISE_BYTES - size)
        data = g.to_bytes(_STAMP_BYTES, "big") + self._noise[offset:offset + size]
        return Op(room, f"obj-{visit % LIVE_OBJECTS}", kind, data)

    def frames(self, sender: int, first: int, count: int) -> list[bytes]:
        """Wire frames of ops ``first .. first+count-1`` of one sender.

        Sender-local op ``k`` is global op ``k * senders + sender`` and
        carries request id ``k + 1`` (0 is the connection-level id).
        """
        senders = self.spec.senders
        out = []
        for k in range(first, first + count):
            op = self.op(k * senders + sender)
            cls = (
                BcastStateRequest if op.kind is UpdateKind.STATE
                else BcastUpdateRequest
            )
            out.append(frame_message(
                cls(k + 1, self.room_name(op.room), op.object_id, op.data)
            ))
        return out

    def stream_digest(self, ops_per_sender: int) -> str:
        """SHA-256 over the first frames of every sender, in order."""
        digest = hashlib.sha256()
        for sender in range(self.spec.senders):
            for frame in self.frames(sender, 0, ops_per_sender):
                digest.update(frame)
        return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    """One deployment driven by one traffic spec."""

    name: str
    why: str
    traffic: TrafficSpec
    shards: int
    durable: bool
    #: Open-loop rate of the paced phase, all senders together (ops/s).
    paced_rate: int
    #: Closed-loop window of the saturated phase, per sender.
    sat_window: int
    #: Fixed op count of one saturated round (about 0.35 s on the sizing host).
    sat_round_ops: int
    #: Broadcasts sent during set-up so every live object exists (and, on
    #: the durable deployment, so recovery has a log to replay).
    preload_ops: int


_FANOUT = TrafficSpec(rooms=1, senders=1, sinks=14, payload_bytes=256)
_ROOMS = TrafficSpec(rooms=32, senders=2, sinks=1, payload_bytes=64)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="fanout_hot",
        why="one 16-member group, 256 B payloads: net fan-out and the "
            "encode-once frame cache do the work, per-request fixed cost "
            "matters little (paper Fig. 3 shape)",
        traffic=_FANOUT, shards=1, durable=False,
        paced_rate=300, sat_window=64, sat_round_ops=3600, preload_ops=512,
    ),
    Workload(
        name="rooms_single",
        why="32 rooms with fan-out 3, 64 B payloads, one loop: decode, "
            "sequence and ack fixed cost dominates; the single-node "
            "baseline for the two workloads below",
        traffic=_ROOMS, shards=1, durable=False,
        paced_rate=500, sat_window=64, sat_round_ops=7500, preload_ops=512,
    ),
    Workload(
        name="rooms_sharded",
        why="byte-identical traffic to rooms_single on shards=4: adds only "
            "runtime.shard (front sessions, router, mailbox hop, relay "
            "back)",
        traffic=_ROOMS, shards=4, durable=False,
        paced_rate=500, sat_window=64, sat_round_ops=3200, preload_ops=512,
    ),
    Workload(
        name="rooms_durable",
        why="byte-identical traffic to rooms_single on persistent groups: "
            "adds only storage (WAL append, flush, reduction checkpoints); "
            "set-up kills and recovers the server",
        traffic=_ROOMS, shards=1, durable=True,
        paced_rate=500, sat_window=64, sat_round_ops=6000, preload_ops=8000,
    ),
)


def workload_named(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r} (known: {known})")
