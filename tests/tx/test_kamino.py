"""Kamino-Tx engine semantics: critical path, async sync, dependent txs."""

import pytest

from repro.errors import TxAborted
from repro.tx import kamino_simple, verify_backup_consistency
from repro.tx.intent_log import SlotState

from ..conftest import Pair, build_heap


@pytest.fixture
def setup():
    heap, engine, device = build_heap(kamino_simple)
    with heap.transaction():
        p = heap.alloc(Pair)
        p.key = 1
        p.value = "base"
        heap.set_root(p)
    heap.drain()
    return heap, engine, device, p


class TestCriticalPath:
    def test_no_copies_in_critical_path(self, setup):
        """The headline claim: commit moves no data (only log + flushes)."""
        heap, engine, device, p = setup
        before = device.stats.snapshot()
        with heap.transaction():
            p.tx_add()
            p.key = 2
        crit = device.stats.delta(before)
        assert crit.copy_bytes == 0  # nothing copied before commit returned
        before = device.stats.snapshot()
        heap.drain()
        post = device.stats.delta(before)
        assert post.copy_bytes > 0  # the copying happened afterwards

    def test_undo_copies_in_critical_path(self):
        """Contrast: the baseline copies during the transaction itself."""
        from repro.tx import UndoLogEngine

        heap, engine, device = build_heap(UndoLogEngine)
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 1
        before = device.stats.snapshot()
        with heap.transaction():
            p.tx_add()
            p.key = 2
        crit = device.stats.delta(before)
        assert crit.copy_bytes > 0

    def test_engine_flags(self, setup):
        _, engine, _, _ = setup
        assert engine.log_data_bytes == 0
        assert engine.name == "kamino-simple"


class TestAsyncSync:
    def test_commit_leaves_work_pending(self, setup):
        heap, engine, _, p = setup
        with heap.transaction():
            p.tx_add()
            p.key = 10
        assert engine.pending_count == 1
        assert engine.locks.is_pending(p.block_offset)

    def test_sync_pending_drains_and_releases(self, setup):
        heap, engine, _, p = setup
        with heap.transaction():
            p.tx_add()
            p.key = 10
        assert engine.sync_pending() == 1
        assert engine.pending_count == 0
        assert not engine.locks.is_locked(p.block_offset)
        verify_backup_consistency(heap)

    def test_sync_limit_respected(self, setup):
        heap, engine, _, p = setup
        for i in range(3):
            with heap.transaction():
                p.tx_add()
                p.key = i
            # distinct txs on the same object: resolver syncs between them
        # at least the last one is pending
        assert engine.pending_count >= 1
        assert engine.sync_pending(limit=1) <= 1

    def test_backup_converges_to_main(self, setup):
        heap, engine, _, p = setup
        for i in range(5):
            with heap.transaction():
                p.tx_add()
                p.key = i
                p.value = f"v{i}"
        heap.drain()
        verify_backup_consistency(heap)
        assert engine.backup.mirror_equals_main(p.block_offset, 64)

    def test_eager_sync_mode(self):
        heap, engine, device = build_heap(lambda: kamino_simple(eager_sync=True))
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 5
        assert engine.pending_count == 0
        verify_backup_consistency(heap)


class TestDependentTransactions:
    def test_dependent_write_triggers_on_demand_sync(self, setup):
        heap, engine, _, p = setup
        with heap.transaction():
            p.tx_add()
            p.key = 1
        base_syncs = engine.locks.stats.on_demand_syncs
        with heap.transaction():  # same object: dependent
            p.tx_add()
            p.key = 2
        assert engine.locks.stats.on_demand_syncs > base_syncs

    def test_dependent_read_also_waits(self, setup):
        heap, engine, _, p = setup
        with heap.transaction():
            p.tx_add()
            p.key = 1
        base = engine.locks.stats.dependent_waits
        with heap.transaction():
            _ = p.key  # transactional read of a pending object
        assert engine.locks.stats.dependent_waits > base

    def test_independent_transactions_do_not_wait(self, setup):
        heap, engine, _, p = setup
        with heap.transaction():
            q = heap.alloc(Pair)
        heap.drain()
        base = engine.locks.stats.dependent_waits
        with heap.transaction():
            p.tx_add()
            p.key = 1
        with heap.transaction():  # different object
            q.tx_add()
            q.key = 2
        # q's lock acquisition must not have waited on p's pending sync
        assert engine.locks.stats.dependent_waits == base


class TestAbort:
    def test_abort_restores_from_backup(self, setup):
        heap, engine, _, p = setup
        with pytest.raises(TxAborted):
            with heap.transaction():
                p.tx_add()
                p.key = 999
                p.value = "doomed"
                raise TxAborted()
        assert p.key == 1
        assert p.value == "base"
        verify_backup_consistency(heap)

    def test_abort_releases_locks_immediately(self, setup):
        heap, engine, _, p = setup
        with pytest.raises(TxAborted):
            with heap.transaction():
                p.tx_add()
                p.key = 999
                raise TxAborted()
        assert not engine.locks.is_locked(p.block_offset)
        assert engine.pending_count == 0

    def test_abort_of_pending_object_syncs_first(self, setup):
        heap, engine, _, p = setup
        with heap.transaction():
            p.tx_add()
            p.key = 50
        # p pending; a dependent tx that aborts must still see key == 50
        with pytest.raises(TxAborted):
            with heap.transaction():
                p.tx_add()
                p.key = 60
                raise TxAborted()
        assert p.key == 50
        heap.drain()
        verify_backup_consistency(heap)


class TestLogSlotLifecycle:
    def test_slot_released_only_after_sync(self, setup):
        heap, engine, _, p = setup
        free_before = engine.log.free_slots
        with heap.transaction():
            p.tx_add()
            p.key = 3
        assert engine.log.free_slots == free_before - 1
        heap.drain()
        assert engine.log.free_slots == free_before

    def test_commit_record_is_durable_before_sync(self, setup):
        heap, engine, device, p = setup
        with heap.transaction():
            p.tx_add()
            p.key = 3
        # before sync: durable slot state must be COMMITTED
        recs = engine.log.scan()
        assert any(r.state is SlotState.COMMITTED for r in recs)
        heap.drain()
