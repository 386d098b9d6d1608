"""Property tests for the lease-aware router.

The router property the elastic layer leans on: once a group holds a
lease, ``route()`` answers that lease no matter what other churn the
router sees — creations, drains, undrains, unpins of *other* groups,
or further migrations of this one (the latest lease wins, epoch up by
one each time).  Hypothesis drives arbitrary operation sequences; the
oracle is a dict.  ``TestRouterMemo`` checks that the bounded memo of
ring owners ``route()`` reads answers exactly what hashing the name
does, under the same churn and past the bound.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import sharding
from repro.runtime.shard import ShardRouter

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

