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
    run_clients,
)
from repro.replication.node import ROLE_HEAD, ROLE_TAIL
from repro.workloads import Op, UPDATE


def loaded_cluster(mode=KAMINO, f=2, nkeys=30):
    cluster = ChainCluster(f=f, mode=mode, heap_mb=4, value_size=128)
    ops = [Op(UPDATE, k, bytes([k + 1]) * 16) for k in range(nkeys)]
    run_clients(cluster, [ops])
    return cluster


def write_more(cluster, lo, hi):
    ops = [Op(UPDATE, k, bytes([(k + 7) % 256]) * 16) for k in range(lo, hi)]
    run_clients(cluster, [ops])


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
        assert cluster.tail.role == ROLE_TAIL
        write_more(cluster, 0, 10)
        cluster.assert_replicas_consistent()

    def test_head_failure_promotes_successor_with_backup(self):
        cluster = loaded_cluster(KAMINO)
        fail_stop(cluster, 0)
        assert cluster.head.role == ROLE_HEAD
        assert cluster.head.engine.backup is not None
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
