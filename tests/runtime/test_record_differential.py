"""Property: a mark-priced record is the snapshot-priced one, bit for bit.

Twin contexts of every registered engine run the same random
put/get/delete/scan/rmw sequence: one through
:meth:`ExecutionContext.run_tx` (three counter marks), the other through
:func:`snapshot_run_tx` (two full snapshots and their deltas).  Every
``TxRecord`` field must match, floats compared by ``float.hex``, and so
must the device's ``NVMStats`` and the lock table's ``LockStats``.  The
scheduler legs drive both twins through ``run_online`` at 1 and 4
clients and also compare the run's simulated duration and per-kind
latencies.
"""

from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import ExecutionContext, run_online
from repro.runtime.registry import registered_engines

from .snapshot_run_tx import snapshot_run_tx

KEYS = 24
VALUE_SIZE = 64

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

keys = st.integers(0, KEYS - 1)
values = st.binary(min_size=1, max_size=VALUE_SIZE)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("scan"), keys, st.integers(1, 6)),
        st.tuples(st.just("rmw"), keys, values),
    ),
    min_size=1,
    max_size=30,
)


def _apply(kv, op):
    verb = op[0]
    if verb == "put":
        kv.put(op[1], op[2])
    elif verb == "get":
        kv.get(op[1])
    elif verb == "delete":
        kv.delete(op[1])
    elif verb == "scan":
        kv.scan(op[1], op[2])
    else:
        kv.read_modify_write(op[1], lambda _old, new=op[2]: new)


def _twins(engine):
    """``(marked, snapshotted)``: identical loaded stacks; the second
    prices its records the snapshot way."""
    pair = []
    for _ in range(2):
        ctx = ExecutionContext.create(engine, value_size=VALUE_SIZE, heap_mb=1)
        for key in range(0, KEYS, 2):
            ctx.kv.put(key, bytes([key + 1]) * 16)
        ctx.kv.drain()
        ctx.reset()
        pair.append(ctx)
    marked, snapshotted = pair
    snapshotted.run_tx = lambda kind, fn, *args: snapshot_run_tx(snapshotted, kind, fn, *args)
    return marked, snapshotted


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    return value


def _assert_same_accounting(marked, snapshotted):
    assert len(marked.records) == len(snapshotted.records)
    for got, want in zip(marked.records, snapshotted.records):
        assert got._fields == want._fields
        assert [_exact(v) for v in got] == [_exact(v) for v in want]
    assert marked.stats.snapshot() == snapshotted.stats.snapshot()
    assert astuple(marked.engine.locks.stats) == astuple(snapshotted.engine.locks.stats)


ENGINES = sorted(registered_engines())


@pytest.mark.parametrize("engine", ENGINES)
@SETTINGS
@given(ops=operations)
def test_run_tx_records_match_snapshot_pricing(engine, ops):
    marked, snapshotted = _twins(engine)
    for op in ops:
        marked.run_tx(op[0], _apply, marked.kv, op)
        snapshotted.run_tx(op[0], _apply, snapshotted.kv, op)
    _assert_same_accounting(marked, snapshotted)


@pytest.mark.parametrize("clients", [1, 4])
@pytest.mark.parametrize("engine", ENGINES)
@SETTINGS
@given(ops=operations)
def test_online_runs_match_snapshot_pricing(engine, clients, ops):
    marked, snapshotted = _twins(engine)
    results = [
        run_online(ctx, ops, lambda op, kv=ctx.kv: _apply(kv, op), clients,
                   kind_of=lambda op: op[0])
        for ctx in (marked, snapshotted)
    ]
    _assert_same_accounting(marked, snapshotted)
    got, want = results
    assert got.ops == want.ops == len(ops)
    assert _exact(got.duration_ns) == _exact(want.duration_ns)
    assert _exact(got.latencies_by_kind) == _exact(want.latencies_by_kind)
    assert got.dependent_waits == want.dependent_waits
