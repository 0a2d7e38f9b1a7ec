"""Heap facade: transactions, write-intent discipline, root, deref."""

import pytest

from repro.errors import (
    InvalidPointerError,
    NoActiveTransactionError,
    TxAborted,
    WriteIntentError,
)
from repro.heap import PNULL, PersistentHeap
from repro.nvm import PmemPool
from repro.tx import TxState, UndoLogEngine

from ..conftest import Cell, Pair, build_heap


class TestTransactionLifecycle:
    def test_commit_on_clean_exit(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction() as tx:
            p = heap.alloc(Pair)
            p.key = 10
        assert tx.state is TxState.COMMITTED
        assert p.key == 10

    def test_abort_on_exception(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 3
        heap.drain()
        with pytest.raises(ValueError):
            with heap.transaction():
                p.tx_add()
                p.key = 77
                raise ValueError("nope")
        heap.drain()
        assert p.key == 3

    def test_explicit_abort_via_txaborted(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 1
        heap.drain()
        with pytest.raises(TxAborted):
            with heap.transaction():
                p.tx_add()
                p.key = 2
                raise TxAborted()
        assert p.key == 1

    def test_flat_nesting_commits_once(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction() as outer:
            with heap.transaction() as inner:
                assert inner is outer
                p = heap.alloc(Pair)
                p.key = 5
            # inner exit must not commit yet: still able to write
            p.value = "after-inner"
        assert p.key == 5
        assert p.value == "after-inner"

    def test_nested_exception_aborts_everything(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 9
        heap.drain()
        with pytest.raises(RuntimeError):
            with heap.transaction():
                p.tx_add()
                p.key = 10
                with heap.transaction():
                    raise RuntimeError("inner boom")
        assert p.key == 9

    def test_current_tx_cleared_after_commit(self, undo_heap):
        heap, _, _ = undo_heap
        with heap.transaction():
            pass
        assert heap.current_tx is None


class TestWriteIntentDiscipline:
    def test_write_without_tx_add_rejected(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
        heap.drain()
        with heap.transaction():
            with pytest.raises(WriteIntentError):
                p.key = 1
            raise_marker = True

    def test_write_outside_tx_rejected(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
        with pytest.raises(NoActiveTransactionError):
            p.key = 1

    def test_fresh_alloc_is_writable_without_explicit_add(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 42  # ALLOC intent covers the block

    def test_tx_add_enables_writes(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
        heap.drain()
        with heap.transaction():
            p.tx_add()
            p.key = 11
            p.value = "both fields"
        heap.drain()
        assert p.key == 11

    def test_reads_never_require_intent(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 2
        heap.drain()
        assert p.key == 2  # outside tx
        with heap.transaction():
            assert p.key == 2  # inside tx, read-only


class TestRootAndDeref:
    def test_root_roundtrip(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        assert heap.root() is None
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 123
            heap.set_root(p)
        r = heap.root(Pair)
        assert r.key == 123
        assert r == p

    def test_deref_null_is_none(self, undo_heap):
        heap, _, _ = undo_heap
        assert heap.deref(PNULL) is None

    def test_deref_wrong_type_rejected(self, undo_heap):
        heap, _, _ = undo_heap
        with heap.transaction():
            p = heap.alloc(Pair)
        with pytest.raises(InvalidPointerError):
            heap.deref(p.oid, Cell)

    def test_deref_by_registry(self, undo_heap):
        heap, _, _ = undo_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 9
        obj = heap.deref(p.oid)
        assert isinstance(obj, Pair)
        assert obj.key == 9

    def test_pointer_chase(self, any_engine_heap):
        heap, _, _ = any_engine_heap
        with heap.transaction():
            a = heap.alloc(Cell)
            b = heap.alloc(Cell)
            a.value = 1
            b.value = 2
            a.next = b.oid
            heap.set_root(a)
        heap.drain()
        a2 = heap.root(Cell)
        b2 = heap.deref(a2.next, Cell)
        assert b2.value == 2
        assert heap.deref(b2.next) is None


class TestObjectIdentity:
    def test_equality_by_oid(self, undo_heap):
        heap, _, _ = undo_heap
        with heap.transaction():
            p = heap.alloc(Pair)
        q = Pair(heap, p.oid)
        assert p == q
        assert hash(p) == hash(q)

    def test_fields_dict(self, undo_heap):
        heap, _, _ = undo_heap
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 4
            p.value = "x"
        assert p.fields_dict() == {"key": 4, "value": "x"}


class TestBlobBounds:
    def test_read_blob_size_stays_inside_the_blob(self, undo_heap):
        heap, _, _ = undo_heap
        with heap.transaction():
            first = heap.alloc_blob(16)
            heap.write_blob(first, b"a" * 16)
            second = heap.alloc_blob(16)
            heap.write_blob(second, b"b" * 16)
        assert heap.read_blob(first, 10) == b"a" * 10
        # past data_size lie the next block's bytes, which the read lock
        # on this blob does not cover
        for size in (17, second - first + 16, -1):
            with pytest.raises(ValueError, match="outside 16 bytes"):
                heap.read_blob(first, size)


class TestPersistenceAcrossReopen:
    def test_object_graph_survives_clean_reopen(self):
        heap, _, device = build_heap(UndoLogEngine)
        with heap.transaction():
            head = heap.alloc(Cell)
            head.value = 0
            prev = head
            for i in range(1, 20):
                c = heap.alloc(Cell)
                c.value = i
                prev.tx_add()
                prev.next = c.oid
                prev = c
            heap.set_root(head)
        device.persist_all()
        heap2 = PersistentHeap.open(PmemPool.open(device), UndoLogEngine())
        values = []
        node = heap2.root(Cell)
        while node is not None:
            values.append(node.value)
            node = heap2.deref(node.next)
        assert values == list(range(20))
