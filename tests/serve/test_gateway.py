"""ClusterGateway: per-request drain, retries, unknown ids, stale maps."""

import pytest

from repro import ShardedCluster
from repro.errors import ReplicationError, RequestTimeoutError
from repro.replication import KAMINO, ChainClient, ChainCluster, RetryPolicy
from repro.serve import ClusterGateway
from repro.workloads.ycsb import UPDATE, Op

_US = 1_000.0


def small_cluster(**kw):
    kw.setdefault("f", 1)
    kw.setdefault("mode", KAMINO)
    kw.setdefault("heap_mb", 2)
    kw.setdefault("value_size", 64)
    return ChainCluster(**kw)


class TestBasics:
    def test_write_then_read_round_trip(self):
        gw = ClusterGateway(small_cluster())
        gw.call_write("put", (1, b"hello"), (1,), "c0", 0)
        value = gw.call_read("get", (1,))
        assert bytes(value).rstrip(b"\x00") == b"hello"
        assert gw.stats()["writes"] == 1
        assert gw.stats()["reads"] == 1

    def test_works_over_sharded_cluster(self):
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=1,
                                 heap_mb=2, value_size=64, seed=0)
        gw = ClusterGateway(cluster)
        for i, key in enumerate(range(0, 8000, 1000)):
            gw.call_write("put", (key, b"v%d" % i), (key,), "c0", i)
        for i, key in enumerate(range(0, 8000, 1000)):
            got = bytes(gw.call_read("get", (key,))).rstrip(b"\x00")
            assert got == b"v%d" % i


class TestDegradedWrites:
    def test_same_id_retry_rides_out_the_cooldown(self):
        # the head does not record the refusal, so the ladder's backed-off
        # retry under the same id executes once the cooldown has passed
        cluster = small_cluster()
        gw = ClusterGateway(cluster)
        cluster.trip_breaker(cooldown_ns=200 * _US)
        gw.call_write("put", (1, b"x"), (1,), "c0", 0)
        assert gw.internal_retries >= 1
        assert cluster.degraded_rejections >= 1
        assert cluster.duplicate_requests == 0
        assert cluster.committed == 1
        assert bytes(gw.call_read("get", (1,))).rstrip(b"\x00") == b"x"


class TestUnknownRids:
    def test_timeout_records_the_request_id(self):
        # head -> r1 severed and never healed: the ladder exhausts, the
        # outcome is unknown, and the id must be on the unknown list
        cluster = small_cluster(retry=RetryPolicy(max_retries=2))
        gw = ClusterGateway(cluster)
        head_id = cluster.chain[0].node_id
        next_id = cluster.chain[1].node_id
        cluster.net.cut_link(head_id, next_id)
        with pytest.raises(ReplicationError):
            gw.call_write("put", (1, b"lost?"), (1,), "c0", 7)
        assert ("c0", 7) in gw.unknown_rids
        assert gw.stats()["unknown_rids"] == 1
        assert gw.timed_out >= 1

    def test_timeouts_count_even_with_retries_disabled(self):
        cluster = small_cluster(retry=RetryPolicy.disabled())
        gw = ClusterGateway(cluster)
        head_id = cluster.chain[0].node_id
        next_id = cluster.chain[1].node_id
        cluster.net.cut_link(head_id, next_id)
        with pytest.raises(RequestTimeoutError):
            gw.call_write("put", (1, b"gone"), (1,), "c0", 0)
        assert ("c0", 0) in gw.unknown_rids


class TestStaleMap:
    def test_migration_refreshes_the_cached_map(self):
        cluster = ShardedCluster(groups=2, shards_per_group=2, f=1,
                                 heap_mb=2, value_size=64, seed=0)
        gw = ClusterGateway(cluster)
        for i, key in enumerate(range(0, 4000, 1000)):
            gw.call_write("put", (key, b"seed"), (key,), "c0", i)
        stale = gw.map_version
        cluster.migrate_shard()
        cluster.drain()
        assert cluster.map_version > stale
        # the gateway still holds the stale version: the typed redirect
        # refreshes it mid-request instead of failing the write
        for i, key in enumerate(range(0, 4000, 1000)):
            gw.call_write("put", (key, b"after"), (key,), "c1", i)
        assert gw.map_refreshes >= 1
        assert gw.map_version == cluster.map_version
        for key in range(0, 4000, 1000):
            got = bytes(gw.call_read("get", (key,))).rstrip(b"\x00")
            assert got == b"after"


class TestOneLadder:
    """ChainClient and the gateway run the same request ladder."""

    #: the head's retransmission ladder: gives up ~6 ms after forwarding
    HEAD = RetryPolicy(max_retries=3)
    #: callers patient enough that the head's ladder answers first
    CALLER = RetryPolicy(max_retries=3, timeout_ns=8_000 * _US,
                         max_timeout_ns=64_000 * _US)

    def _faulted_cluster(self):
        """Head -> successor cut until after the head's RequestTimeoutError
        reply, then healed; records every submission's virtual time."""
        cluster = small_cluster(retry=self.HEAD)
        submitted = []
        submit_write = cluster.submit_write

        def recording(*args, **kwargs):
            submitted.append(cluster.sim.now)
            return submit_write(*args, **kwargs)

        cluster.submit_write = recording
        head, successor = cluster.chain[0].node_id, cluster.chain[1].node_id
        cluster.net.cut_link(head, successor)
        cluster.sim.schedule(7_000 * _US, cluster.net.heal_link, head, successor)
        return cluster, submitted

    def test_client_and_gateway_retry_identically(self):
        cluster, client_submits = self._faulted_cluster()
        client = ChainClient(cluster, "c0", [Op(UPDATE, 1, b"x")], retry=self.CALLER)
        client.start()
        cluster.drain()
        assert client.done and not client.failed

        cluster, gateway_submits = self._faulted_cluster()
        gw = ClusterGateway(cluster, retry=self.CALLER)
        gw.call_write("put", (1, b"x"), (1,), "c0", 0)

        # one head timeout, one backed-off resubmission (attempt 1 waits
        # timeout_for(1)), at the same virtual times on both
        assert len(client_submits) == 2
        assert gateway_submits == client_submits
        assert client.retries == gw.internal_retries == 1
        assert client.unknown_rids == {0}
        assert gw.unknown_rids == {("c0", 0)}

    def test_a_read_whose_reply_is_lost_retries(self):
        cluster = small_cluster()
        gw = ClusterGateway(cluster)
        gw.call_write("put", (1, b"v"), (1,), "c0", 0)
        submit_read = cluster.submit_read
        dropped = []

        def lossy(proc, args, callback=None):
            if not dropped:
                dropped.append(proc)
                callback = None  # this reply goes nowhere
            return submit_read(proc, args, callback)

        cluster.submit_read = lossy
        # the read's own timer resubmits instead of running the sim dry
        assert bytes(gw.call_read("get", (1,))).rstrip(b"\x00") == b"v"
        assert dropped == ["get"]
        assert gw.internal_retries == 1
