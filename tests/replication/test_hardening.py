"""Protocol hardening: timeouts, retransmission, dedup, degradation,
back-pressure, and automatic node replacement."""

import pytest

from repro.errors import ClientStuckError, ClusterDegraded, RequestTimeoutError
from repro.replication import (
    KAMINO,
    ChainCluster,
    RetryPolicy,
    replace_node,
    run_clients,
)
from repro.workloads import Op, UPDATE


def small_cluster(**kw):
    kw.setdefault("f", 1)
    kw.setdefault("mode", KAMINO)
    kw.setdefault("heap_mb", 2)
    kw.setdefault("value_size", 64)
    return ChainCluster(**kw)


class TestRetransmission:
    def test_dropped_forward_is_retransmitted_after_heal(self):
        cluster = small_cluster()
        results = []
        cluster.net.cut_link("r0", "r1")
        cluster.sim.at(1_000_000.0, cluster.net.heal_link, "r0", "r1")
        cluster.submit_write("put", (1, b"v"), [1], lambda r, lat: results.append(r))
        cluster.drain()
        assert cluster.committed == 1
        assert cluster.retransmissions >= 1
        assert len(results) == 1 and not isinstance(results[0], Exception)
        cluster.assert_replicas_consistent()

    def test_backoff_is_capped_exponential(self):
        retry = RetryPolicy(timeout_ns=100.0, backoff=2.0, max_timeout_ns=400.0)
        assert [retry.timeout_for(a) for a in range(5)] == [
            100.0, 200.0, 400.0, 400.0, 400.0
        ]

    def test_exhausted_retries_surface_timeout_exactly_once(self):
        cluster = small_cluster()
        results = []
        cluster.net.cut_link("r0", "r1")  # never healed
        cluster.submit_write("put", (1, b"v"), [1], lambda r, lat: results.append(r))
        cluster.drain()
        assert len(results) == 1
        assert isinstance(results[0], RequestTimeoutError)
        assert cluster.timed_out == 1
        assert cluster.committed == 0
        # keys were released: a later write to the same key admits
        cluster.net.heal_link("r0", "r1")
        cluster.submit_write("put", (1, b"w"), [1], lambda r, lat: results.append(r))
        cluster.drain()
        assert not isinstance(results[1], Exception)
        assert cluster.committed == 1


class TestDeduplication:
    def test_inflight_duplicate_absorbed(self):
        cluster = small_cluster()
        results = []
        cb = lambda r, lat: results.append(r)  # noqa: E731
        cluster.submit_write("put", (1, b"v"), [1], cb,
                             client_id="c0", request_id=0)
        cluster.submit_write("put", (1, b"v"), [1], cb,
                             client_id="c0", request_id=0)
        cluster.drain()
        assert cluster.committed == 1
        assert cluster.duplicate_requests == 1
        assert len(results) == 1  # the duplicate is silently absorbed

    def test_completed_duplicate_replayed_from_dedup_table(self):
        cluster = small_cluster()
        results = []
        cb = lambda r, lat: results.append(r)  # noqa: E731
        cluster.submit_write("put", (1, b"v"), [1], cb,
                             client_id="c0", request_id=0)
        cluster.drain()
        committed_before = cluster.committed
        cluster.submit_write("put", (1, b"v"), [1], cb,
                             client_id="c0", request_id=0)
        cluster.drain()
        assert cluster.committed == committed_before  # not re-executed
        assert cluster.duplicate_requests == 1
        assert len(results) == 2  # but the reply was replayed


class TestDegradation:
    def test_below_quorum_rejects_with_typed_error(self):
        cluster = small_cluster(write_quorum=5)  # 3 replicas < 5
        results = []
        cluster.submit_write("put", (1, b"v"), [1],
                             lambda r, lat: results.append(r))
        cluster.drain()
        assert len(results) == 1
        assert isinstance(results[0], ClusterDegraded)
        assert cluster.degraded_rejections == 1
        assert cluster.committed == 0

    def test_circuit_breaker_opens_after_repeated_failures(self):
        cluster = small_cluster(retry=RetryPolicy(max_retries=2),
                                degrade_after=1)
        results = []
        cluster.net.cut_link("r0", "r1")
        cluster.submit_write("put", (1, b"v"), [1],
                             lambda r, lat: results.append(r))
        cluster.drain()
        assert isinstance(results[0], RequestTimeoutError)
        assert cluster.degraded  # breaker open within the cooldown window
        cluster.submit_write("put", (2, b"w"), [2],
                             lambda r, lat: results.append(r))
        assert isinstance(results[1], ClusterDegraded)  # fast rejection
        assert cluster.degraded_rejections == 1

    def test_refusal_is_not_recorded_so_a_same_id_retry_commits(self):
        # the head answers a retried (client_id, request_id) from its
        # dedup table, so a refusal recorded there would be replayed to
        # every retry until the client's attempts ran out
        cluster = small_cluster()
        cluster.trip_breaker(cooldown_ns=300_000.0)
        (client,) = run_clients(cluster, [[Op(UPDATE, 1, b"v")]])
        assert client.failed == []
        assert client.retries == 1  # one backoff outlasts the cooldown
        assert cluster.degraded_rejections == 1
        assert cluster.duplicate_requests == 0
        assert cluster.committed == 1
        assert not any(isinstance(result, ClusterDegraded)
                       for _rid, result in cluster._completed_requests.values())

    def test_reads_degrade_to_deepest_live_replica(self):
        cluster = small_cluster()
        cluster.submit_write("put", (1, b"v"), [1])
        cluster.drain()
        cluster.net.fail_node(cluster.tail.node_id)
        got = []
        cluster.submit_read("get", (1,), lambda r, lat: got.append(r))
        cluster.drain()
        assert got and got[0] is not None and got[0].startswith(b"v")

    def test_reads_with_no_live_replica_reject(self):
        cluster = small_cluster()
        for node in cluster.chain:
            cluster.net.fail_node(node.node_id)
        got = []
        cluster.submit_read("get", (1,), lambda r, lat: got.append(r))
        cluster.drain()
        assert len(got) == 1
        assert isinstance(got[0], ClusterDegraded)


class TestBackPressure:
    def test_backup_lag_bound_stalls_admission(self):
        cluster = small_cluster(max_backup_lag=2)
        for k in range(10):
            cluster.submit_write("put", (k, bytes([k + 1]) * 8), [k])
        cluster.drain()
        assert cluster.backpressure_stalls > 0
        assert cluster.committed == 10
        cluster.assert_replicas_consistent()


class TestClientStuck:
    def test_unhardened_client_stuck_raises_typed_error(self):
        cluster = small_cluster(retry=RetryPolicy.disabled())
        cluster.net.cut_link("r0", "r1")
        with pytest.raises(ClientStuckError) as exc:
            run_clients(cluster, [[Op(UPDATE, 1, b"v")]])
        assert exc.value.client_ids == ("c0",)

    def test_raise_on_stuck_false_returns_clients(self):
        cluster = small_cluster(retry=RetryPolicy.disabled())
        cluster.net.cut_link("r0", "r1")
        clients = run_clients(cluster, [[Op(UPDATE, 1, b"v")]],
                              raise_on_stuck=False)
        assert not clients[0].done

    def test_hardened_clients_survive_transient_cut(self):
        cluster = small_cluster()
        cluster.net.cut_link("r0", "r1")
        cluster.sim.at(1_000_000.0, cluster.net.heal_link, "r0", "r1")
        clients = run_clients(
            cluster, [[Op(UPDATE, k, bytes([k + 1]) * 8) for k in range(4)]]
        )
        assert clients[0].done
        assert not clients[0].failed
        cluster.assert_replicas_consistent()


class TestUnknownOutcomes:
    def test_late_reply_after_timeout_is_not_double_applied(self):
        # a slow replica pushes the first op past the client timeout: the
        # rid lands in unknown_rids and is resubmitted under the same
        # identity, so when the original's reply finally arrives the head
        # must have absorbed the duplicate — one execution, not two
        cluster = small_cluster()
        cluster.net.set_node_delay("r1", 600_000.0)
        cluster.sim.at(3_000_000.0, cluster.net.clear_faults)
        clients = run_clients(
            cluster, [[Op(UPDATE, 1, b"a" * 8), Op(UPDATE, 1, b"b" * 8)]]
        )
        client = clients[0]
        assert client.done and not client.failed
        assert 0 in client.unknown_rids  # the timeout was recorded
        assert cluster.duplicate_requests >= 1  # the resubmit was absorbed
        assert cluster.committed == 2  # each op executed exactly once
        # the late rid-0 completion must not clobber the later write
        assert cluster.kv_states()[-1][1].startswith(b"b")
        cluster.assert_replicas_consistent()


class TestNodeReplacement:
    def test_replace_mid_replica_single_view_bump(self):
        cluster = ChainCluster(f=2, mode=KAMINO, heap_mb=2, value_size=64)
        for k in range(4):
            cluster.submit_write("put", (k, bytes([k + 1]) * 8), [k])
        cluster.drain()
        failed_id = cluster.chain[1].node_id
        spare = replace_node(cluster, 1)
        assert cluster.view_id == 2  # remove + splice in ONE bump
        assert failed_id not in [n.node_id for n in cluster.chain]
        assert cluster.chain[-1] is spare
        # the spare caught up via state transfer and serves new writes
        cluster.submit_write("put", (9, b"after"), [9])
        cluster.drain()
        cluster.assert_replicas_consistent()
        assert cluster.kv_states()[-1][9].startswith(b"after")

    def test_replace_keeps_f_target(self):
        cluster = ChainCluster(f=2, mode=KAMINO, heap_mb=2, value_size=64)
        n_before = len(cluster.chain)
        replace_node(cluster, 2)
        assert len(cluster.chain) == n_before
