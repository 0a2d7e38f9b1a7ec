"""The intent-only engine cannot roll back locally.

A chain replica behind the head keeps no backup, so aborts are decided
at the head and never forwarded; ``IntentOnlyEngine.abort`` refuses with
the typed :class:`TxError` it documents.  Its in-place stores reach the
cache but are flushed only at commit, so a refused abort leaves the
heap's durable bytes as they were.

The refused transaction still ends: its locks are released, its slot
stays ``RUNNING`` for recovery to find, and its ranges are published as
unrepaired.  Until the chain repairs them, every later transaction on
the engine is refused with a typed error rather than left to hang on a
lock or read the abandoned stores.
"""

import threading

import pytest

from repro.errors import TxError
from repro.runtime import ExecutionContext
from repro.tx.base import TxState
from repro.tx.intent_log import SlotState


class _Rollback(Exception):
    """The body's own failure: not a ``TxError``, so only the engine's
    refusal can raise one."""


def test_abort_raises_tx_error_and_leaves_durable_heap_unchanged():
    ctx = ExecutionContext.create("intent-only", value_size=64, heap_mb=1)
    for key in range(4):
        ctx.kv.put(key, bytes([key + 1]) * 16)
    device, region = ctx.device, ctx.heap.region
    durable = device.durable_read(region.offset, region.size)
    assert device.read(region.offset, region.size) == durable
    with pytest.raises(TxError, match="cannot roll back locally") as raised:
        with ctx.heap.transaction():
            ctx.kv.put(2, b"z" * 16)
            raise _Rollback()
    assert type(raised.value) is TxError
    assert isinstance(raised.value.__context__, _Rollback)
    # the in-place store happened, and none of it is durable
    assert device.read(region.offset, region.size) != durable
    assert device.durable_read(region.offset, region.size) == durable


def _abort_put_2(ctx):
    """Put key 2 in a transaction whose body fails; returns the
    transaction and the durable heap image from before it."""
    device, region = ctx.device, ctx.heap.region
    durable = device.durable_read(region.offset, region.size)
    with pytest.raises(TxError, match="cannot roll back locally"):
        with ctx.heap.transaction() as tx:
            ctx.kv.put(2, b"z" * 16)
            raise _Rollback()
    return tx, durable


def _put_from_another_thread(ctx, key, value, join_s=3.0):
    """``ctx.kv.put(key, value)`` on a daemon thread; returns what it
    raised (None if it returned) or fails if it is still blocked."""
    outcome = []

    def put():
        try:
            ctx.kv.put(key, value)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=put, daemon=True)
    worker.start()
    worker.join(join_s)
    assert not worker.is_alive(), f"put({key}) still blocked after {join_s} s"
    return outcome[0]


def _ctx_with_four_keys():
    ctx = ExecutionContext.create("intent-only", value_size=64, heap_mb=1)
    for key in range(4):
        ctx.kv.put(key, bytes([key + 1]) * 16)
    return ctx


def test_refused_abort_ends_the_transaction_and_releases_its_locks():
    ctx = _ctx_with_four_keys()
    engine = ctx.engine
    tx, _durable = _abort_put_2(ctx)
    assert tx.state is TxState.ABORTED
    assert ctx.heap.current_tx is None
    assert len(engine.locks) == 0
    # the slot is left durably RUNNING, as a crash would leave it
    running = [rec for rec in engine.log.scan() if rec.state is SlotState.RUNNING]
    assert [rec.txid for rec in running] == [tx.txid]
    ranges = [(off, size) for off, size, _kind in tx.intents]
    assert ranges and engine.incomplete_ranges == ranges


def test_later_transactions_are_refused_until_repaired_never_blocked():
    ctx = _ctx_with_four_keys()
    engine = ctx.engine
    _tx, durable = _abort_put_2(ctx)
    ranges = list(engine.incomplete_ranges)
    raised = _put_from_another_thread(ctx, 2, b"w" * 16)
    assert type(raised) is TxError
    assert "unrepaired" in str(raised) and str(ranges[0][0]) in str(raised)
    with pytest.raises(TxError, match="unrepaired"):
        ctx.kv.get(1)
    # the chain's repair: the neighbour's bytes for each range (it never
    # saw the aborted transaction, so they are the durable bytes here)
    region = ctx.heap.region
    for off, size in ranges:
        region.write(off, durable[off:off + size])
        region.flush(off, size)
    ctx.device.fence()
    free_before = engine.log.free_slots
    engine.ack_repaired()
    assert engine.incomplete_ranges == []
    assert engine.log.free_slots == free_before + 1
    assert not [rec for rec in engine.log.scan() if rec.state is SlotState.RUNNING]
    assert _put_from_another_thread(ctx, 2, b"w" * 16) is None
    assert ctx.kv.get(2).rstrip(b"\0") == b"w" * 16
    assert [ctx.kv.get(k).rstrip(b"\0") for k in (0, 1, 3)] == [
        bytes([k + 1]) * 16 for k in (0, 1, 3)
    ]


def test_a_waiter_on_the_aborted_lock_is_refused_not_fed_its_stores():
    ctx = _ctx_with_four_keys()
    holding = threading.Event()
    outcome = []

    def get_2():
        holding.wait()
        try:
            outcome.append(ctx.kv.get(2))
        except TxError as exc:
            outcome.append(exc)

    reader = threading.Thread(target=get_2, daemon=True)
    reader.start()
    with pytest.raises(TxError, match="cannot roll back locally"):
        with ctx.heap.transaction():
            ctx.kv.put(2, b"z" * 16)
            holding.set()  # the reader began, and waits on key 2's locks
            reader.join(0.3)
            raise _Rollback()
    reader.join(3.0)
    assert not reader.is_alive(), "get(2) still blocked after the abort"
    assert type(outcome[0]) is TxError and "unrepaired" in str(outcome[0])


def test_recover_lists_the_aborted_ranges():
    ctx = _ctx_with_four_keys()
    engine = ctx.engine
    tx, _durable = _abort_put_2(ctx)
    ranges = list(engine.incomplete_ranges)
    report = engine.recover()
    assert report.incomplete == 1
    assert engine.incomplete_ranges == ranges
    assert len(ranges) == len(tx.intents)
