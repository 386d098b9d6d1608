"""Autoscaling control loop over the sharded topology.

A :class:`TopologyController` watches per-shard load samples (mailbox
backlog, throughput, commit stalls, group placement) and decides
rebalancing actions:

* **split** a hot shard by migrating one of its groups to the least
  loaded shard,
* **merge** an idle topology by consolidating a nearly-empty shard's
  groups onto the busiest sibling (fewer warm caches, fewer wakeups),
* **restart** a wedged worker — backlog piling up while throughput sits
  still for several consecutive samples is the wedged-worker signature.

The controller is deliberately pure decision logic: ``observe(samples)
-> actions``.  The host owns the sampling cadence and the execution
(:meth:`repro.runtime.sharding.ShardFront.start_controller` ticks it
through the driver's ``call_later`` — the front asyncio loop, or the
simulation kernel, deterministically), so the same thresholds are
testable tick by tick without any clock.

Hysteresis: every action starts a cooldown of ``cooldown_samples``
observations during which the controller stays quiet — migrations take
a few ticks to land and double-firing on the same signal would bounce
groups back and forth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "MigrateGroup",
    "RestartShard",
    "ShardSample",
    "TopologyConfig",
    "TopologyController",
    "sample_workers",
    "topology_report",
]


@dataclass(frozen=True)
class ShardSample:
    """One shard's load at a sampling instant."""

    shard: int
    #: Mailbox backlog (items queued, not yet processed).
    queue_depth: int
    #: Cumulative deliveries sent by this worker (monotone; the
    #: controller differences consecutive samples for throughput).
    accepted: int
    #: Cumulative scheduler commit stalls (monotone).
    commit_stalls: int
    #: Names of the groups the shard currently serves.
    groups: tuple[str, ...]


@dataclass(frozen=True)
class MigrateGroup:
    """Move *group* from shard *src* to shard *dst* (live migration)."""

    group: str
    src: int
    dst: int


@dataclass(frozen=True)
class RestartShard:
    """Crash-restart a wedged worker (recover from its own store)."""

    shard: int


@dataclass
class TopologyConfig:
    """Thresholds and cadence of the control loop."""

    #: Seconds between samples (host drivers own the timer).
    sample_interval: float = 0.25
    #: Backlog at/above which a shard counts as hot.
    hot_queue_depth: int = 32
    #: Backlog at/below which a shard counts as idle.
    idle_queue_depth: int = 2
    #: A hot shard must serve at least this many groups before a split
    #: makes sense (one giant group cannot be split by migration).
    min_groups_to_split: int = 2
    #: An idle shard with at most this many groups is a merge candidate.
    merge_max_groups: int = 2
    #: Consecutive samples of (hot backlog, flat throughput) before a
    #: worker is declared wedged and restarted.
    wedged_samples: int = 3
    #: Observations to stay quiet after firing any action.
    cooldown_samples: int = 4
    #: Cap on migrations decided in one observation.
    max_migrations_per_cycle: int = 1


class TopologyController:
    """Pure decision logic: feed samples in, get actions out."""

    def __init__(self, config: TopologyConfig | None = None) -> None:
        self.config = config or TopologyConfig()
        #: shard -> consecutive samples it has looked wedged.
        self._wedged_for: dict[int, int] = {}
        #: shard -> accepted counter at the previous observation.
        self._last_accepted: dict[int, int] = {}
        self._cooldown = 0
        #: Every action ever decided, oldest first (introspection).
        self.decisions: list[object] = []

    def observe(self, samples: list[ShardSample]) -> list[object]:
        """Digest one round of samples and decide actions (maybe none)."""
        cfg = self.config
        # wedge detection must keep counting through cooldowns, or a
        # worker that dies right after an action hides until the next one
        for s in samples:
            flat = self._last_accepted.get(s.shard) == s.accepted
            self._last_accepted[s.shard] = s.accepted
            if s.queue_depth >= cfg.hot_queue_depth and flat:
                self._wedged_for[s.shard] = self._wedged_for.get(s.shard, 0) + 1
            else:
                self._wedged_for.pop(s.shard, None)
        if self._cooldown > 0:
            self._cooldown -= 1
            return []
        actions = (
            self._restart_wedged(samples)
            or self._split_hot(samples)
            or self._merge_idle(samples)
        )
        if actions:
            self._cooldown = cfg.cooldown_samples
            self.decisions.extend(actions)
        return actions

    # -- the three rules --------------------------------------------------

    def _restart_wedged(self, samples: list[ShardSample]) -> list[object]:
        for s in samples:
            if self._wedged_for.get(s.shard, 0) >= self.config.wedged_samples:
                self._wedged_for.pop(s.shard, None)
                return [RestartShard(s.shard)]
        return []

    def _split_hot(self, samples: list[ShardSample]) -> list[object]:
        cfg = self.config
        hot = [
            s for s in samples
            if s.queue_depth >= cfg.hot_queue_depth
            and len(s.groups) >= cfg.min_groups_to_split
        ]
        if not hot or len(samples) < 2:
            return []
        hottest = max(hot, key=lambda s: (s.queue_depth, -s.shard))
        coldest = min(
            (s for s in samples if s.shard != hottest.shard),
            key=lambda s: (s.queue_depth, len(s.groups), s.shard),
        )
        actions: list[object] = []
        # peel the first (deterministic) groups off the hot shard
        for group in sorted(hottest.groups)[: cfg.max_migrations_per_cycle]:
            actions.append(MigrateGroup(group, hottest.shard, coldest.shard))
        return actions

    def _merge_idle(self, samples: list[ShardSample]) -> list[object]:
        cfg = self.config
        if any(s.queue_depth > cfg.idle_queue_depth for s in samples):
            return []
        occupied = [s for s in samples if s.groups]
        if len(occupied) < 2:
            return []
        smallest = min(occupied, key=lambda s: (len(s.groups), s.shard))
        if len(smallest.groups) > cfg.merge_max_groups:
            return []
        target = max(occupied, key=lambda s: (len(s.groups), -s.shard))
        if target.shard == smallest.shard:
            return []
        return [
            MigrateGroup(group, smallest.shard, target.shard)
            for group in sorted(smallest.groups)[: cfg.max_migrations_per_cycle]
        ]


def sample_workers(workers) -> list[ShardSample]:
    """Build one round of samples from live shard workers.

    Works on both backends: asyncio workers expose ``queue_depth()``,
    sim workers a ``queued`` counter; both publish ``owned_groups`` as
    an immutable tuple swapped atomically from the worker side, so the
    front-side sampler never reaches into a live core.
    """
    samples = []
    for worker in workers:
        gauge = getattr(worker, "queue_depth", None)
        depth = gauge() if callable(gauge) else getattr(worker, "queued", 0)
        stats = worker.interpreter.stats
        samples.append(
            ShardSample(
                shard=worker.index,
                queue_depth=depth,
                accepted=stats.sends,
                commit_stalls=stats.commit_stalls,
                groups=worker.owned_groups,
            )
        )
    return samples


def topology_report(host) -> dict:
    """Snapshot of the elastic topology for ``repro topology``.

    *host* is any :class:`~repro.runtime.sharding.ShardFront` (``router``,
    ``workers``, ``sessions``, ``dispatch_stats``)."""
    import dataclasses

    router = host.router
    shards = {}
    for worker in host.workers:
        stats = worker.interpreter.stats
        shards[worker.index] = {
            "groups": list(worker.owned_groups),
            "group_count": len(worker.owned_groups),
            "stats": dataclasses.asdict(stats),
        }
    migrations = [
        {
            "group": r.group,
            "src": r.src,
            "dst": r.dst,
            "epoch": r.epoch,
            "outcome": r.outcome,
            "freeze_window": r.freeze_window,
            "buffered": r.buffered,
            "bytes": r.bytes,
        }
        for r in host.sessions.migration_log
    ]
    return {
        "shards": router.shards,
        "leases": dict(sorted(router.pins().items())),
        "epochs": dict(sorted(router.epochs().items())),
        "drained": sorted(router.drained()),
        "in_flight": host.sessions.migrations(),
        "per_shard": shards,
        "migrations": migrations,
        "total": dataclasses.asdict(host.dispatch_stats),
    }
