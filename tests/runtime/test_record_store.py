"""``ctx.records`` is a column store that reads back as a list of records.

:class:`~repro.runtime.records.TxRecords` keeps each record's fields in
typed columns; an element is the :class:`TxRecord` that ``run_tx``
returned, bit for bit, and a slice is a view that copies no column.
"""

import tracemalloc

import pytest

from repro.runtime import ExecutionContext
from repro.runtime.records import TxRecord, TxRecords


def _hex(record):
    return (record.kind, record.crit_ns.hex(), record.async_ns.hex(), *record[3:])


@pytest.fixture(scope="module")
def run():
    """A kamino-simple context after puts (deferred work) and gets."""
    ctx = ExecutionContext.create("kamino-simple", value_size=64, heap_mb=4)
    returned = [ctx.run_tx("put", ctx.kv.put, k, bytes([k + 1]) * 24)[0] for k in range(12)]
    returned += [ctx.run_tx("get", ctx.kv.get, k % 5)[0] for k in range(9)]
    returned += [ctx.run_tx("put", ctx.kv.put, 3, b"y" * 40)[0]]
    return ctx, returned


def test_each_element_is_the_record_run_tx_returned(run):
    ctx, returned = run
    assert len(ctx.records) == len(returned)
    assert any(rec.async_ns for rec in returned) and any(not rec.async_ns for rec in returned)
    for i, want in enumerate(returned):
        got = ctx.records[i]
        assert type(got) is TxRecord
        assert _hex(got) == _hex(want)
    assert [_hex(r) for r in ctx.records] == [_hex(r) for r in returned]


def test_negative_indices_and_slices_match_the_list(run):
    ctx, returned = run
    records = ctx.records
    assert records[-1] == returned[-1]
    assert records[-len(returned)] == returned[0]
    with pytest.raises(IndexError):
        records[len(returned)]
    for i, j in [(0, None), (3, 9), (-5, None), (None, -2), (7, 3), (0, 0)]:
        view = records[i:j]
        assert view == returned[i:j]
        assert len(view) == len(returned[i:j])
        assert list(view) == returned[i:j]
    assert records[::-3] == returned[::-3]
    assert records[2:][1:7:2] == returned[2:][1:7:2]
    assert records[4:][-1] == returned[4:][-1]


def test_a_slice_is_a_view(run):
    ctx, _returned = run
    records = ctx.records
    records[0:]  # warm any one-time allocation
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        view = records[0:]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(view) == len(records)
    assert held < 1024


def test_compares_like_a_list_and_reset_empties_it():
    ctx = ExecutionContext.create("undo", value_size=64, heap_mb=1)
    r1, _ = ctx.run_tx("put", ctx.kv.put, 1, b"a" * 16)
    r2, _ = ctx.run_tx("get", ctx.kv.get, 1)
    assert ctx.records == [r1, r2]
    assert [r1, r2] == ctx.records
    assert ctx.records == (r1, r2)
    assert ctx.records != [r1]
    assert ctx.records != [r2, r1]
    other = TxRecords()
    other.append(r1)
    other.append(r2)
    assert ctx.records == other
    assert ctx.records[1:] == [r2]
    ctx.reset()
    assert ctx.records == []
    assert len(ctx.records) == 0
    assert list(ctx.records) == []
