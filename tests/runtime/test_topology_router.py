"""Property tests for the lease-aware router and unit tests for the
autoscaling controller.

The router property the elastic layer leans on: once a group holds a
lease, ``route()`` answers that lease no matter what other churn the
router sees — creations, drains, undrains, unpins of *other* groups,
or further migrations of this one (the latest lease wins, epoch up by
one each time).  Hypothesis drives arbitrary operation sequences; the
oracle is a dict.  ``TestRouterMemo`` checks that the bounded memo of
ring owners ``route()`` reads answers exactly what hashing the name
does, under the same churn and past the bound.

The controller tests feed synthetic :class:`ShardSample` rounds and
check the three rules (restart wedged > split hot > merge idle), the
cooldown hysteresis, and that wedge detection keeps counting *through*
a cooldown.  ``TestControllerDrive`` then runs the loop for real through
``ShardFront.start_controller`` / ``apply_topology_actions`` on both
drivers.
"""

import asyncio
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.server import ServerConfig
from repro.net.tcp import TcpTransport
from repro.runtime.client import CoronaClient
from repro.runtime import sharding
from repro.runtime.shard import ShardedHost, ShardRouter
from repro.sim.harness import CoronaWorld
from repro.runtime.topology import (
    MigrateGroup,
    RestartShard,
    ShardSample,
    TopologyConfig,
    TopologyController,
)

SHARDS = 4

GROUPS = [f"g{i}" for i in range(8)]

#: One router mutation: (op, group-index-or-shard).
_ops = st.one_of(
    st.tuples(st.just("assign"), st.integers(0, len(GROUPS) - 1)),
    st.tuples(st.just("migrate"), st.integers(0, len(GROUPS) - 1),
              st.integers(0, SHARDS - 1)),
    st.tuples(st.just("unpin"), st.integers(0, len(GROUPS) - 1)),
    st.tuples(st.just("drain"), st.integers(0, SHARDS - 1)),
    st.tuples(st.just("undrain"), st.integers(0, SHARDS - 1)),
)


class TestRouterLeaseProperty:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_route_follows_the_latest_lease(self, ops):
        router = ShardRouter(SHARDS)
        leases = {}          # the oracle: group -> last lease, if any
        epochs = {}
        for op in ops:
            if op[0] == "assign":
                group = GROUPS[op[1]]
                shard = router.assign(group)
                # assign may create or drop a lease; mirror the router's
                # published table rather than re-deriving its ring logic
                leases = dict(router.pins())
                assert router.route(group) == shard
            elif op[0] == "migrate":
                group, dst = GROUPS[op[1]], op[2]
                new_epoch = router.migrate(group, dst)
                leases[group] = dst
                epochs[group] = epochs.get(group, 0) + 1
                assert new_epoch == epochs[group]
            elif op[0] == "unpin":
                leases.pop(GROUPS[op[1]], None)
                router.unpin(GROUPS[op[1]])
            elif op[0] == "drain":
                router.drain(op[1])
            else:
                router.undrain(op[1])
            # the invariant: every leased group routes to its lease,
            # drains notwithstanding; epochs never regress
            for group, shard in leases.items():
                assert router.route(group) == shard
            for group, epoch in epochs.items():
                assert router.epoch(group) == epoch

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_ops, max_size=40))
    def test_unleased_routing_is_pure(self, ops):
        """Groups nobody leased always route to the ring owner — church
        of consistent hashing: independent routers agree forever."""
        router = ShardRouter(SHARDS)
        reference = ShardRouter(SHARDS)
        for op in ops:
            if op[0] == "assign":
                router.assign(GROUPS[op[1]])
            elif op[0] == "migrate":
                router.migrate(GROUPS[op[1]], op[2])
            elif op[0] == "unpin":
                router.unpin(GROUPS[op[1]])
            elif op[0] == "drain":
                router.drain(op[1])
            else:
                router.undrain(op[1])
        for name in ("other-0", "other-1", "other-2"):
            assert router.route(name) == reference.route(name)


#: One step of the memo property: a name lookup, or lease/drain churn.
_names = st.text(max_size=12)
_name_ops = st.one_of(
    st.tuples(st.sampled_from(["route", "assign", "unpin"]), _names),
    st.tuples(st.sampled_from(["pin", "migrate"]), _names,
              st.integers(0, SHARDS - 1)),
    st.tuples(st.just("drain"), st.integers(0, SHARDS - 1)),
)


class TestRouterMemo:
    #: Small enough that Hypothesis overflows it in most examples.
    BOUND = 5

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_name_ops, max_size=50))
    def test_memoized_owner_is_the_ring_owner(self, ops):
        with mock.patch.object(sharding, "NATURAL_MEMO", self.BOUND):
            router = ShardRouter(SHARDS)
            leases = {}
            seen = []
            for op in ops:
                kind, arg = op[0], op[1]
                if kind == "drain":
                    router.drain(arg)
                    continue
                seen.append(arg)
                if kind == "route":
                    router.route(arg)
                elif kind == "assign":
                    router.assign(arg)
                    leases = router.pins()
                elif kind == "unpin":
                    router.unpin(arg)
                    leases.pop(arg, None)
                elif kind == "pin":
                    router.pin(arg, op[2])
                    leases[arg] = op[2]
                else:
                    router.migrate(arg, op[2])
                    leases[arg] = op[2]
                for name in seen:
                    ring = router._ring_owner(name, frozenset())
                    assert router.natural(name) == ring
                    assert router.route(name) == leases.get(name, ring)
                assert len(router._natural) <= self.BOUND

    def test_cycling_names_cannot_grow_the_memo(self):
        router = ShardRouter(SHARDS)
        for i in range(3 * sharding.NATURAL_MEMO):
            name = f"room-{i}"
            assert router.route(name) == router._ring_owner(name, frozenset())
            assert len(router._natural) <= sharding.NATURAL_MEMO


def _sample(shard, depth, accepted, groups=("a", "b")):
    return ShardSample(
        shard=shard, queue_depth=depth, accepted=accepted,
        commit_stalls=0, groups=tuple(groups),
    )


def _quiet(n, accepted=0):
    return [_sample(s, 0, accepted, groups=("x%d" % s,)) for s in range(n)]


class TestControllerRules:
    def test_split_hot_peels_group_to_coldest(self):
        ctrl = TopologyController(TopologyConfig(hot_queue_depth=10))
        actions = ctrl.observe([
            _sample(0, 50, 100, groups=("gb", "ga", "gc")),
            _sample(1, 3, 10, groups=("gd",)),
            _sample(2, 1, 5, groups=()),
        ])
        assert actions == [MigrateGroup("ga", 0, 2)]

    def test_one_giant_group_cannot_be_split(self):
        ctrl = TopologyController(TopologyConfig(hot_queue_depth=10))
        actions = ctrl.observe([
            _sample(0, 50, 100, groups=("only",)),
            _sample(1, 0, 0, groups=()),
        ])
        assert actions == []

    def test_merge_idle_consolidates_smallest_onto_busiest(self):
        ctrl = TopologyController(TopologyConfig(idle_queue_depth=2))
        actions = ctrl.observe([
            _sample(0, 0, 10, groups=("a", "b", "c")),
            _sample(1, 1, 10, groups=("z",)),
        ])
        assert actions == [MigrateGroup("z", 1, 0)]

    def test_no_merge_while_anyone_is_busy(self):
        # depth 5: neither hot (default 32) nor idle (2) — nothing fires
        ctrl = TopologyController(TopologyConfig(idle_queue_depth=2))
        actions = ctrl.observe([
            _sample(0, 5, 10, groups=("a", "b")),
            _sample(1, 0, 10, groups=("z",)),
        ])
        assert actions == []

    def test_wedged_worker_restarts_after_n_flat_samples(self):
        cfg = TopologyConfig(hot_queue_depth=10, wedged_samples=3)
        ctrl = TopologyController(cfg)
        wedged = [_sample(0, 99, accepted=7, groups=("a",)),
                  _sample(1, 0, accepted=1, groups=("b", "c"))]
        assert ctrl.observe(wedged) == []          # first sight: no delta yet
        assert ctrl.observe(wedged) == []          # flat x1
        assert ctrl.observe(wedged) == []          # flat x2
        assert ctrl.observe(wedged) == [RestartShard(0)]
        # restart outranks the (also matching) split rule
        assert all(not isinstance(a, MigrateGroup) for a in ctrl.decisions)

    def test_cooldown_suppresses_actions(self):
        cfg = TopologyConfig(hot_queue_depth=10, cooldown_samples=2)
        ctrl = TopologyController(cfg)

        def hot(tick):
            # accepted keeps rising: hot but NOT wedged
            return [_sample(0, 50, 100 + 10 * tick, groups=("a", "b")),
                    _sample(1, 0, 10 + tick, groups=("c",))]

        assert ctrl.observe(hot(0)) == [MigrateGroup("a", 0, 1)]
        assert ctrl.observe(hot(1)) == []          # cooling
        assert ctrl.observe(hot(2)) == []          # cooling
        assert ctrl.observe(hot(3)) == [MigrateGroup("a", 0, 1)]

    def test_wedge_counting_continues_through_cooldown(self):
        cfg = TopologyConfig(
            hot_queue_depth=10, wedged_samples=3, cooldown_samples=3
        )
        ctrl = TopologyController(cfg)
        # fire a split to enter cooldown...
        hot = [_sample(0, 50, 100, groups=("a", "b")),
               _sample(1, 0, 10, groups=("c",))]
        assert ctrl.observe(hot)
        # ...while shard 1 wedges during the quiet period
        wedged = [_sample(0, 0, 200, groups=("b",)),
                  _sample(1, 99, accepted=10, groups=("c", "d"))]
        assert ctrl.observe(wedged) == []          # cooldown (flat seen x0)
        assert ctrl.observe(wedged) == []          # cooldown (flat x1)
        assert ctrl.observe(wedged) == []          # cooldown (flat x2)
        # cooldown over and the wedge counter is already ripe
        assert ctrl.observe(wedged) == [RestartShard(1)]

    def test_quiet_topology_decides_nothing(self):
        ctrl = TopologyController()
        for _ in range(10):
            assert ctrl.observe(_quiet(3)) == []
        assert ctrl.decisions == []


# ---------------------------------------------------------------------------
# the control loop, driven for real: ShardFront.start_controller on both
# drivers (one implementation; the driver only supplies call_later)
# ---------------------------------------------------------------------------

DRIVE_GROUPS = [f"drive-{i}" for i in range(6)]


def _occupied(host):
    return {host.router.route(group) for group in DRIVE_GROUPS}


class TestControllerDrive:
    def test_sim_ticks_are_bounded_and_actions_are_applied(self):
        world = CoronaWorld()
        server = world.add_sharded_server(shards=2)
        alice = world.add_client(client_id="alice")
        world.run()
        for group in DRIVE_GROUPS:
            alice.call("create_group", group, False)
            world.run()
        host = server.host
        assert _occupied(host) == {0, 1}, "need groups on both shards"
        before = {group: host.router.route(group) for group in DRIVE_GROUPS}
        controller = host.start_controller(
            TopologyConfig(sample_interval=0.5, merge_max_groups=len(DRIVE_GROUPS)),
            ticks=3,
        )
        world.run()  # drains: the tick count bounds the repeating event
        # an idle two-shard topology merges: one migration decided on the
        # first tick, then the cooldown holds for the remaining two
        assert len(controller.decisions) == 1
        (action,) = controller.decisions
        assert isinstance(action, MigrateGroup)
        record = host.sessions.migration_log[-1]
        assert (record.group, record.outcome) == (action.group, "committed")
        assert host.router.route(action.group) == action.dst != before[action.group]

    def test_sim_restart_action_replaces_the_worker(self):
        world = CoronaWorld()
        host = world.add_sharded_server(shards=2).host
        old = host.workers[1]
        home = host.router.route("ghost")
        host.apply_topology_actions(
            [RestartShard(1), MigrateGroup("ghost", home, home)]
        )
        world.run()
        assert host.workers[1] is not old and old.closed
        # the rejected migration (the group already lives there) is
        # swallowed, not raised: the controller retries next cycle
        assert host.sessions.migration_log == []

    def test_asyncio_controller_runs_until_stop(self, tmp_path):
        async def main():
            host = ShardedHost(
                ServerConfig(server_id="server"),
                TcpTransport(), shards=2, store_root=tmp_path,
            )
            address = await host.listen(("127.0.0.1", 0))
            alice = await CoronaClient.connect(address, "alice")
            for group in DRIVE_GROUPS:
                await alice.create_group(group, persistent=False)
            assert _occupied(host) == {0, 1}
            controller = host.start_controller(
                TopologyConfig(
                    sample_interval=0.02, merge_max_groups=len(DRIVE_GROUPS)
                )
            )
            deadline = asyncio.get_running_loop().time() + 5.0
            while not host.sessions.migration_log:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            record = host.sessions.migration_log[0]
            assert record.outcome == "committed"
            assert controller.decisions[0].group == record.group
            old = host.workers[0]
            closed = []
            close_store = old.store.close
            old.store.close = lambda: (closed.append(True), close_store())
            host.apply_topology_actions([RestartShard(0)])
            assert host.workers[0] is not old and closed == [True]
            old.post(("list", 0, 0))
            assert old.queue_depth() == 0, "a retired worker ignores posts"
            await alice.close()
            await host.stop()
            assert host._controller_timer is None
            ticks = len(controller.decisions)
            await asyncio.sleep(0.1)
            assert len(controller.decisions) == ticks, "ticked after stop"

        asyncio.run(main())
