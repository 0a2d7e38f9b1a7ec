"""Chain protocol: commit flow, consistency, admission, aborts, storage."""

import statistics as st

import pytest

from repro.errors import ChainConfigError, TxAborted
from repro.replication import KAMINO, TRADITIONAL, ChainCluster, run_clients
from repro.workloads import Op, READ, UPDATE, YCSBWorkload


def make_cluster(mode=KAMINO, f=2, **kw):
    kw.setdefault("heap_mb", 4)
    kw.setdefault("value_size", 128)
    return ChainCluster(f=f, mode=mode, **kw)


def write_stream(n, key_space=20, vb=16):
    return [Op(UPDATE, k % key_space, bytes([k % 256]) * vb) for k in range(n)]


class TestConfiguration:
    def test_kamino_uses_f_plus_2(self):
        assert len(make_cluster(KAMINO, f=2).chain) == 4

    def test_traditional_uses_f_plus_1(self):
        assert len(make_cluster(TRADITIONAL, f=2).chain) == 3

    def test_invalid_f(self):
        with pytest.raises(ChainConfigError):
            ChainCluster(f=0)

    def test_invalid_mode(self):
        with pytest.raises(ChainConfigError):
            ChainCluster(mode="raft")

    def test_kamino_only_head_has_backup(self):
        cluster = make_cluster(KAMINO)
        assert hasattr(cluster.head.engine, "backup")
        for node in cluster.chain[1:]:
            assert not hasattr(node.engine, "backup")

    def test_storage_requirement_ordering(self):
        # kamino: (f+2+α)·D  <  2(f+1)·D (naive per-replica mirror) and
        # > (f+1)·D (traditional)
        kamino = make_cluster(KAMINO, f=2).total_storage_bytes
        trad = make_cluster(TRADITIONAL, f=2).total_storage_bytes
        data = make_cluster(TRADITIONAL, f=2).head.heap.region.size
        assert trad == pytest.approx(3 * data, rel=0.01)
        assert kamino == pytest.approx(5 * data, rel=0.01)  # 4 heaps + 1 backup
        assert kamino < 2 * 4 * data


@pytest.mark.parametrize("mode", [TRADITIONAL, KAMINO])
class TestCommitFlow:
    def test_write_reaches_every_replica(self, mode):
        cluster = make_cluster(mode)
        run_clients(cluster, [write_stream(30)])
        cluster.assert_replicas_consistent()
        assert cluster.committed == 30

    def test_read_at_tail_sees_committed_writes(self, mode):
        cluster = make_cluster(mode)
        run_clients(cluster, [write_stream(10, key_space=10)])
        results = []
        cluster.submit_read("get", (3,), lambda r, _l: results.append(r))
        cluster.drain()
        assert results and results[0] is not None

    def test_multiple_clients_all_complete(self, mode):
        cluster = make_cluster(mode)
        streams = [write_stream(25, key_space=100) for _ in range(4)]
        clients = run_clients(cluster, streams)
        assert all(c.done for c in clients)
        cluster.assert_replicas_consistent()

    def test_latencies_recorded(self, mode):
        cluster = make_cluster(mode)
        run_clients(cluster, [write_stream(20)])
        assert len(cluster.write_latencies_ns) == 20
        assert all(l > 0 for l in cluster.write_latencies_ns)

    def test_intent_logs_cleaned_up(self, mode):
        cluster = make_cluster(mode)
        run_clients(cluster, [write_stream(30)])
        for node in cluster.chain[1:]:
            backlog = getattr(node.engine, "cleanup_backlog", 0)
            assert backlog <= 1  # at most the final in-flight window


class TestAdmissionControl:
    def test_dependent_writes_queue_at_head(self):
        cluster = make_cluster(KAMINO)
        ops = [Op(UPDATE, 7, bytes([i]) * 16) for i in range(10)]  # same key
        run_clients(cluster, [ops, list(ops)])  # two clients, same key
        assert cluster.dependent_queued > 0
        cluster.assert_replicas_consistent()

    def test_independent_writes_pipeline(self):
        # distinct keys throughout: consecutive same-key writes would be
        # dependent on their *own* predecessor's backup sync
        cluster = make_cluster(KAMINO)
        a = [Op(UPDATE, 100 + i, b"a" * 16) for i in range(10)]
        b = [Op(UPDATE, 200 + i, b"b" * 16) for i in range(10)]
        run_clients(cluster, [a, b])
        assert cluster.dependent_queued == 0

    def test_same_key_back_to_back_is_dependent(self):
        """The §7.1 burst case: consecutive writes to one key wait for
        the predecessor's backup sync even from a single client."""
        cluster = make_cluster(KAMINO)
        ops = [Op(UPDATE, 1, bytes([i]) * 16) for i in range(5)]
        run_clients(cluster, [ops])
        assert cluster.dependent_queued > 0

    def test_dependent_transactions_serialize_correctly(self):
        cluster = make_cluster(KAMINO)
        ops = [Op(UPDATE, 5, bytes([i]) * 16) for i in range(20)]
        run_clients(cluster, [ops])
        got = []
        cluster.submit_read("get", (5,), lambda r, _l: got.append(r))
        cluster.drain()
        assert got[0][:16] == bytes([19]) * 16  # last write wins


class TestAborts:
    def test_abort_never_forwarded(self):
        cluster = make_cluster(KAMINO)

        def aborting_put(kv, key, value):
            with kv.heap.transaction():
                kv.put(key, value)
                raise TxAborted()

        for node in cluster.chain:
            node.register_proc("aborting_put", aborting_put)
        run_clients(cluster, [write_stream(5, key_space=5)])
        fwd_before = cluster.net.stats.sent
        done = []
        cluster.submit_write("aborting_put", (3, b"x" * 16), [3], lambda r, l: done.append(r))
        cluster.drain()
        assert cluster.aborted == 1
        assert done == [None]
        # no TxForward left the head for the aborted transaction
        assert cluster.net.stats.sent == fwd_before
        cluster.assert_replicas_consistent()

    def test_abort_rolls_back_head_locally(self):
        cluster = make_cluster(KAMINO)

        def aborting_put(kv, key, value):
            with kv.heap.transaction():
                kv.put(key, value)
                raise TxAborted()

        for node in cluster.chain:
            node.register_proc("aborting_put", aborting_put)
        run_clients(cluster, [[Op(UPDATE, 3, b"keep" + b"\0" * 12)]])
        cluster.submit_write("aborting_put", (3, b"bad" + b"\0" * 13), [3])
        cluster.drain()
        got = []
        cluster.submit_read("get", (3,), lambda r, _l: got.append(r))
        cluster.drain()
        assert got[0][:4] == b"keep"
        cluster.assert_replicas_consistent()


class TestPerformanceShape:
    def test_kamino_chain_writes_faster_than_traditional(self):
        """Figure 17's headline: no copies in the critical path at any
        replica makes write latency lower despite one extra hop."""
        lat = {}
        for mode in (TRADITIONAL, KAMINO):
            cluster = ChainCluster(f=2, mode=mode, heap_mb=16, value_size=1024)
            wl = YCSBWorkload("A", nrecords=100, value_size=1024, seed=3)
            load = [Op(UPDATE, k, bytes([k % 256]) * 64) for k in range(100)]
            run_clients(cluster, [load])
            streams = [list(wl.run_ops(80)) for _ in range(2)]
            run_clients(cluster, streams)
            lat[mode] = st.mean(cluster.write_latencies_ns)
            cluster.assert_replicas_consistent()
        assert lat[KAMINO] < lat[TRADITIONAL]
