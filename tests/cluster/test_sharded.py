"""ShardedCluster: routing, the ChainCluster-compatible surface,
single-group bit-identity, and the stale-map redirect."""

import pytest

from repro.cluster import ShardedCluster
from repro.errors import ClusterConfigError, StaleShardMapError
from repro.replication import ChainCluster, run_clients
from repro.workloads import Op, READ, UPDATE


def ops_for(keys, tag=0):
    return [Op(UPDATE, k, bytes([(k + tag) % 255 + 1]) * 32) for k in keys]


class TestSingleGroupIdentity:
    """A groups=1 cluster must behave bit-for-bit like a bare chain:
    same committed state, same counters, same latencies — the refactor's
    regression guarantee."""

    N = 40

    def _drive(self, cluster):
        streams = [
            ops_for(range(0, self.N, 2), tag=1),
            ops_for(range(1, self.N, 2), tag=2)
            + [Op(READ, k, None) for k in range(0, self.N, 4)],
        ]
        run_clients(cluster, streams)
        return cluster

    def test_bit_identical_to_bare_chain(self):
        bare = self._drive(ChainCluster(f=2, heap_mb=2, value_size=64))
        sharded = self._drive(
            ShardedCluster(groups=1, shards_per_group=2, f=2,
                           heap_mb=2, value_size=64)
        )
        group = sharded.groups[0]
        assert group.kv_states() == bare.kv_states()
        assert sharded.committed == bare.committed
        assert sharded.write_latencies_ns == bare.write_latencies_ns
        assert sharded.read_latencies_ns == bare.read_latencies_ns
        assert sharded.retransmissions == bare.retransmissions
        assert sharded.merged_tail_state() == bare.kv_states()[-1]


class TestRouting:
    def test_every_key_routes_to_its_shard_owner(self):
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=1,
                                 heap_mb=2, value_size=64)
        for k in range(200):
            shard = cluster.map.shard_for(k)
            assert cluster.route(k) is cluster.groups[cluster.map.assignment[shard]]

    def test_route_counts_shard_load(self):
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=1,
                                 heap_mb=2, value_size=64)
        for k in range(64):
            cluster.route(k)
        assert sum(cluster.shard_load.values()) == 64
        assert cluster.hottest_shard() in cluster.map.assignment

    def test_writes_land_only_on_the_owning_group(self):
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=1,
                                 heap_mb=2, value_size=64)
        run_clients(cluster, [ops_for(range(60))])
        cluster.assert_replicas_consistent()
        cluster.assert_placement_respected()
        merged = cluster.merged_tail_state()
        assert sorted(merged) == list(range(60))

    def test_needs_at_least_one_group(self):
        with pytest.raises(ClusterConfigError):
            ShardedCluster(groups=0)


class TestStaleMapRedirect:
    def test_route_with_old_version_raises_typed_redirect(self):
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=1,
                                 heap_mb=2, value_size=64)
        cluster.route(0, map_version=1)  # current: fine
        cluster.placement.install(cluster.map.moved(0, 1))
        with pytest.raises(StaleShardMapError) as exc:
            cluster.route(0, map_version=1)
        assert exc.value.current_version == 2

    def test_clients_refresh_and_complete_across_a_flip(self):
        """Closed-loop clients running through a mid-run migration must
        finish every op, refreshing their cached map on the redirect."""
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=2,
                                 heap_mb=2, value_size=64)
        run_clients(cluster, [ops_for(range(40))])
        cluster.sim.schedule(50_000.0, cluster.migrate_shard, 0, 1)
        clients = run_clients(
            cluster, [ops_for(range(0, 40, 2), tag=3),
                      ops_for(range(1, 40, 2), tag=4)]
        )
        cluster.drain()
        assert all(c.done for c in clients)
        assert cluster.map_version == 2
        assert not cluster.active_migrations
        cluster.assert_placement_respected()
