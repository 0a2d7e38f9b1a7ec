"""Consistent-hash placement properties: balance, minimal movement,
route stability across serialization (the shard map's wire format)."""

import collections

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster import ShardMap, ShardRouter
from repro.errors import ClusterConfigError

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

shard_sets = st.lists(
    st.integers(0, 63), min_size=2, max_size=12, unique=True
)


class TestBalance:
    @given(shards=shard_sets)
    @SETTINGS
    def test_no_shard_hogs_the_circle(self, shards):
        """With enough virtual nodes, the hottest shard stays within a
        small constant factor of the mean (the paper-standard consistent
        hashing balance bound for vnode rings)."""
        router = ShardRouter(shards, vnodes=64)
        counts = collections.Counter(
            router.shard_for(k) for k in range(4096)
        )
        mean = 4096 / len(shards)
        assert max(counts.values()) <= 2.5 * mean
        # every shard owns *some* keys at this vnode count
        assert set(counts) == set(shards)

    def test_single_shard_owns_everything(self):
        router = ShardRouter([7])
        assert all(router.shard_for(k) == 7 for k in range(100))


class TestMinimalMovement:
    @given(shards=shard_sets, new=st.integers(64, 80))
    @SETTINGS
    def test_adding_a_shard_only_moves_keys_to_it(self, shards, new):
        """Consistent hashing's defining property: growing the ring
        never moves a key between two pre-existing shards."""
        before = ShardRouter(shards, vnodes=64)
        after = ShardRouter(shards + [new], vnodes=64)
        for k in range(2048):
            old, cur = before.shard_for(k), after.shard_for(k)
            if cur != old:
                assert cur == new

    @given(shards=shard_sets)
    @SETTINGS
    def test_removing_a_shard_only_moves_its_keys(self, shards):
        victim = min(shards)
        before = ShardRouter(shards, vnodes=64)
        after = ShardRouter([s for s in shards if s != victim], vnodes=64)
        for k in range(2048):
            old, cur = before.shard_for(k), after.shard_for(k)
            if old != victim:
                assert cur == old

    @given(shards=shard_sets)
    @SETTINGS
    def test_movement_fraction_is_small(self, shards):
        """Adding one shard should move roughly 1/(n+1) of the keys —
        assert a generous multiple, not the exact expectation."""
        before = ShardRouter(shards, vnodes=64)
        after = ShardRouter(shards + [99], vnodes=64)
        moved = sum(
            1 for k in range(4096)
            if before.shard_for(k) != after.shard_for(k)
        )
        assert moved <= 4096 * 3.0 / (len(shards) + 1)


class TestRouteStability:
    @given(shards=shard_sets, version=st.integers(1, 100))
    @SETTINGS
    def test_shard_map_dict_round_trip_preserves_routing(self, shards, version):
        """A shard map shipped to a client as a dict and rebuilt must
        route every key identically — otherwise a cache refresh would
        silently re-home keys."""
        assignment = {s: i % 2 for i, s in enumerate(sorted(shards))}
        original = ShardMap(assignment, version=version)
        rebuilt = ShardMap.from_dict(original.to_dict())
        assert rebuilt == original
        assert rebuilt.version == version
        for k in range(1024):
            assert rebuilt.shard_for(k) == original.shard_for(k)
            assert rebuilt.group_for(k) == original.group_for(k)

    @given(shards=shard_sets)
    @SETTINGS
    def test_router_round_trip(self, shards):
        router = ShardRouter(shards, vnodes=32)
        rebuilt = ShardRouter.from_dict(router.to_dict())
        assert rebuilt == router
        assert all(
            rebuilt.shard_for(k) == router.shard_for(k) for k in range(512)
        )


class TestValidation:
    def test_empty_shard_set_rejected(self):
        with pytest.raises(ClusterConfigError):
            ShardRouter([])

    def test_map_router_shards_must_match_assignment(self):
        with pytest.raises(ClusterConfigError):
            ShardMap({0: 0, 1: 1}, router=ShardRouter([0, 1, 2]))

    def test_moved_bumps_version_and_keeps_routing(self):
        m1 = ShardMap({0: 0, 1: 0, 2: 1})
        m2 = m1.moved(1, 1)
        assert m2.version == m1.version + 1
        assert m2.assignment[1] == 1
        for k in range(512):
            assert m2.shard_for(k) == m1.shard_for(k)
