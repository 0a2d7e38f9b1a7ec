"""Transaction core API: states, nesting, helpers, run_transaction."""

import pytest

from repro.errors import TxAborted, TxError
from repro.tx import IntentKind, TxState, UndoLogEngine, run_transaction
from repro.tx.base import RecoveryReport, Transaction

from ..conftest import Pair, build_heap


@pytest.fixture
def heap_and_engine():
    heap, engine, _ = build_heap(UndoLogEngine)
    return heap, engine


class TestTransactionStates:
    def test_fresh_transaction_active(self, heap_and_engine):
        _, engine = heap_and_engine
        tx = engine.begin()
        assert tx.state is TxState.ACTIVE
        tx.commit()
        assert tx.state is TxState.COMMITTED

    def test_commit_after_commit_rejected(self, heap_and_engine):
        _, engine = heap_and_engine
        tx = engine.begin()
        tx.commit()
        with pytest.raises(TxError):
            tx.commit()

    def test_abort_after_commit_rejected(self, heap_and_engine):
        _, engine = heap_and_engine
        tx = engine.begin()
        tx.commit()
        with pytest.raises(TxError):
            tx.abort()

    def test_add_after_commit_rejected(self, heap_and_engine):
        _, engine = heap_and_engine
        tx = engine.begin()
        tx.commit()
        with pytest.raises(TxError):
            tx.add(0, 8)

    def test_txids_unique_and_increasing(self, heap_and_engine):
        _, engine = heap_and_engine
        a = engine.begin()
        b = engine.begin()
        assert b.txid > a.txid
        a.commit()
        b.commit()

    def test_zero_size_intent_rejected(self, heap_and_engine):
        _, engine = heap_and_engine
        tx = engine.begin()
        with pytest.raises(TxError):
            tx.add(100, 0)
        tx.abort()


class TestIntentTracking:
    def test_covers_write(self, heap_and_engine):
        heap, engine = heap_and_engine
        with heap.transaction() as tx:
            p = heap.alloc(Pair)
            blk = p.block_offset
            assert tx.covers_write(blk, 8)
            assert tx.covers_write(blk + 16, 32)
            assert not tx.covers_write(blk + 4096, 8)

    def test_has_intent_exact_start(self, heap_and_engine):
        heap, engine = heap_and_engine
        with heap.transaction() as tx:
            p = heap.alloc(Pair)
            assert tx.has_intent(p.block_offset)
            assert not tx.has_intent(p.block_offset + 8)

    def test_intent_kinds_recorded(self, heap_and_engine):
        heap, engine = heap_and_engine
        with heap.transaction() as tx:
            p = heap.alloc(Pair)
            kinds = {kind for _o, _s, kind in tx.intents}
            assert IntentKind.ALLOC in kinds
            assert IntentKind.WRITE in kinds  # allocator bitmap word


class TestCallbacks:
    def test_on_abort_runs_in_reverse_order(self, heap_and_engine):
        _, engine = heap_and_engine
        fired = []
        tx = engine.begin()
        tx.on_abort.append(lambda: fired.append(1))
        tx.on_abort.append(lambda: fired.append(2))
        tx.abort()
        assert fired == [2, 1]


class TestRunTransaction:
    def test_commits_on_success(self, heap_and_engine):
        _, engine = heap_and_engine
        tx = run_transaction(engine, lambda tx: None)
        assert tx.state is TxState.COMMITTED

    def test_swallows_intentional_abort(self, heap_and_engine):
        _, engine = heap_and_engine

        def body(tx):
            raise TxAborted()

        tx = run_transaction(engine, body)
        assert tx.state is TxState.ABORTED

    def test_propagates_other_errors_after_rollback(self, heap_and_engine):
        _, engine = heap_and_engine

        def body(tx):
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_transaction(engine, body)


class TestRecoveryReport:
    def test_repr(self):
        r = RecoveryReport()
        r.rolled_back = 2
        assert "back=2" in repr(r)
