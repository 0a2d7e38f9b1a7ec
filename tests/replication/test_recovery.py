"""Chain failures: quick reboots (Figure 9), fail-stop repair, joins."""

import pytest

from repro.nvm import CrashPolicy
from repro.replication import (
    KAMINO,
    TRADITIONAL,
    ChainCluster,
    fail_stop,
    join_new_replica,
    quick_reboot,
    replace_node,
    run_clients,
)
from repro.tx import IntentOnlyEngine
from repro.workloads import Op, UPDATE


def loaded_cluster(mode=KAMINO, f=2, nkeys=30):
    cluster = ChainCluster(f=f, mode=mode, heap_mb=4, value_size=128)
    ops = [Op(UPDATE, k, bytes([k + 1]) * 16) for k in range(nkeys)]
    run_clients(cluster, [ops])
    return cluster


def write_more(cluster, lo, hi):
    ops = [Op(UPDATE, k, bytes([(k + 7) % 256]) * 16) for k in range(lo, hi)]
    run_clients(cluster, [ops])


def assert_engines_follow_positions(cluster):
    """Kamino: the replica at index 0 keeps the only backup, every other
    replica updates in place behind an intent log."""
    assert cluster.chain[0].engine.backup is not None
    for node in cluster.chain[1:]:
        assert type(node.engine) is IntentOnlyEngine, node.node_id


class TestQuickReboot:
    @pytest.mark.parametrize("index", [1, 2, 3])
    @pytest.mark.parametrize("policy", [CrashPolicy.DROP_ALL, CrashPolicy.RANDOM])
    def test_non_head_reboot_rolls_forward(self, index, policy):
        cluster = loaded_cluster(KAMINO)
        quick_reboot(cluster, index, policy)
        cluster.assert_replicas_consistent()
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    @pytest.mark.parametrize("policy", [CrashPolicy.DROP_ALL, CrashPolicy.RANDOM])
    def test_head_reboot_rolls_back_from_local_backup(self, policy):
        cluster = loaded_cluster(KAMINO)
        quick_reboot(cluster, 0, policy)
        cluster.assert_replicas_consistent()
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_traditional_reboot_uses_undo_logs(self):
        cluster = loaded_cluster(TRADITIONAL)
        quick_reboot(cluster, 1, CrashPolicy.RANDOM)
        cluster.assert_replicas_consistent()

    def test_reboot_with_genuinely_torn_replica_state(self):
        """Crash a mid replica while a write is mid-flight down the
        chain; the reboot must repair the torn range from its
        predecessor."""
        cluster = loaded_cluster(KAMINO)
        # start writes but stop the simulator before they complete
        ops = [Op(UPDATE, k, bytes([99]) * 16) for k in range(5)]
        for op in ops:
            cluster.submit_write("put", (op.key, op.value), [op.key])
        cluster.sim.run(max_events=6)  # partially through the chain
        quick_reboot(cluster, 2, CrashPolicy.RANDOM)
        cluster.drain()
        cluster.assert_replicas_consistent()


class TestFailStop:
    def test_mid_failure_chain_shrinks_and_continues(self):
        cluster = loaded_cluster(KAMINO)
        fail_stop(cluster, 1)
        assert len(cluster.chain) == 3
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_tail_failure_promotes_predecessor(self):
        cluster = loaded_cluster(KAMINO)
        fail_stop(cluster, len(cluster.chain) - 1)
        assert_engines_follow_positions(cluster)
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_head_failure_promotes_successor_with_backup(self):
        cluster = loaded_cluster(KAMINO)
        fail_stop(cluster, 0)
        assert_engines_follow_positions(cluster)
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_traditional_head_failure(self):
        cluster = loaded_cluster(TRADITIONAL)
        fail_stop(cluster, 0)
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_promoted_head_repairs_a_rebooted_successor(self):
        """The promoted head executes on its own new engine: the write it
        forwards carries a non-empty repair write set, so a successor
        that quick-reboots with that write in flight rolls it forward."""
        cluster = ChainCluster(f=2, mode=KAMINO, heap_mb=4, value_size=64)
        run_clients(cluster, [[Op(UPDATE, k, bytes([k + 1]) * 16) for k in range(20)]])
        fail_stop(cluster, 0)
        cluster.submit_write("put", (5, b"N" * 16), (5,))
        head = cluster.head
        assert head.applied_ranges[max(head.applied_ranges)]
        quick_reboot(cluster, 1, CrashPolicy.DROP_ALL)
        cluster.sim.run()
        cluster.assert_replicas_consistent()

    @pytest.mark.parametrize("change", [
        lambda c: fail_stop(c, 1),
        lambda c: replace_node(c, 0),
        join_new_replica,
    ], ids=["fail-mid", "replace-head", "join"])
    def test_engines_follow_positions(self, change):
        cluster = loaded_cluster(KAMINO, nkeys=10)
        change(cluster)
        assert_engines_follow_positions(cluster)
        write_more(cluster, 0, 5)
        cluster.assert_replicas_consistent()

    def test_view_id_bumps_per_failure(self):
        cluster = loaded_cluster(KAMINO)
        v0 = cluster.view_id
        fail_stop(cluster, 1)
        assert cluster.view_id == v0 + 1

    def test_tolerates_f_failures_with_one_quick_reboot(self):
        """§5's sizing argument: with f+2 replicas, f fail-stops plus one
        quick reboot with an incomplete transaction is survivable."""
        cluster = loaded_cluster(KAMINO, f=2)  # 4 replicas
        fail_stop(cluster, 1)
        fail_stop(cluster, 1)
        assert len(cluster.chain) == 2
        quick_reboot(cluster, 1, CrashPolicy.RANDOM)
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()


def _join_lone_head(cluster):
    fail_stop(cluster, 1)  # the head is now the tail too
    return join_new_replica(cluster)


class TestSpliceAtTail:
    """A join and a replacement splice the new tail in through one path:
    it takes its donor's geometry and state whichever caller splices it."""

    @pytest.mark.parametrize("mode, f, splice", [
        (KAMINO, 2, join_new_replica),
        (KAMINO, 2, lambda c: replace_node(c, 1)),
        (TRADITIONAL, 1, _join_lone_head),
    ], ids=["join", "replace", "join-lone-head"])
    def test_new_tail_matches_its_donor(self, mode, f, splice):
        cluster = ChainCluster(f=f, mode=mode, heap_mb=2, value_size=64)
        write_more(cluster, 0, 20)
        node = splice(cluster)
        donor = cluster.chain[-2]  # the tail the new replica copied
        assert cluster.tail is node
        assert node.heap.region.size == donor.heap.region.size == 2 << 20
        assert node.kv.value_size == donor.kv.value_size == 64
        assert node.applied_seq == donor.applied_seq > 0
        assert {node.node_id, donor.node_id} <= set(cluster.net._handlers)
        write_more(cluster, 10, 30)
        cluster.assert_replicas_consistent()


class TestJoin:
    def test_new_replica_joins_at_tail_with_state(self):
        cluster = loaded_cluster(KAMINO)
        fail_stop(cluster, 1)
        node = join_new_replica(cluster)
        assert cluster.tail is node
        cluster.assert_replicas_consistent()
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_join_then_survive_more_failures(self):
        cluster = loaded_cluster(KAMINO)
        fail_stop(cluster, 2)
        join_new_replica(cluster)
        fail_stop(cluster, 1)
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()
