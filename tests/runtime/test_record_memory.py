"""What a run retains per operation, by tracemalloc.

A record keeps what a transaction cost: seven fields appended to
``ctx.records``, which stores them unboxed in typed columns (about
50 B).  The transaction's write and read sets are its lock footprint,
needed only while it is live; the scheduler holds them until it
releases the locks, and then nothing does.  With the run's latency
lists a run retains about 100 B per operation on these stacks; a list
of record tuples retained about 220 B, and tuples that carried two
frozensets about 550-700 B.

The op stream a YCSB run is driven from holds one slotted ``Op`` per
operation, about 95 B with its key: a write's payload is one of the
workload's 256 shared ones.  With a per-instance ``__dict__`` an op was
140 B, and with a 97 B payload built per write YCSB-A's stream held
about 144 B per op.
"""

import gc
import tracemalloc

import pytest

from repro.runtime import ExecutionContext, run_online
from repro.workloads import YCSBWorkload

OPS = 4000
CLIENTS = 4
#: retained bytes per operation a run may keep after ``gc.collect()``
BOUND_B_PER_OP = 128
#: bytes per operation a listed YCSB op stream may hold
OP_STREAM_BOUND_B_PER_OP = 104


@pytest.mark.parametrize(
    "engine, mix, kwargs",
    [("kamino-dynamic", "B", {"alpha": 0.5}), ("kamino-simple", "A", {})],
    ids=["ycsb-b-dynamic", "ycsb-a-simple"],
)
def test_run_online_retains_costs_not_lock_sets(engine, mix, kwargs):
    ctx = ExecutionContext.create(engine, value_size=64, heap_mb=4, **kwargs)
    workload = YCSBWorkload(mix, 500, 64, seed=0)
    workload.load(ctx.kv)
    ctx.kv.drain()
    ctx.reset()
    ops = list(workload.run_ops(OPS))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_online(ctx, ops, lambda op: workload.execute(ctx.kv, op), CLIENTS)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result.ops == len(ctx.records) == OPS
    assert retained / OPS < BOUND_B_PER_OP


def test_ycsb_op_stream_is_slotted():
    """Read-mostly B and half-writes A hold the same per op: slotted
    ops, and no payload of their own."""
    nops = 20000
    for mix in ("B", "A"):
        workload = YCSBWorkload(mix, 4000, 64)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ops = list(workload.run_ops(nops))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(ops) == nops
        assert held / nops < OP_STREAM_BOUND_B_PER_OP, mix
        del ops


def test_ycsb_payloads_are_shared_and_unchanged():
    """Equal payloads are one object, and the stream is the one the
    per-write ``bytes([pattern]) * n`` built: same draws, same bytes."""
    ops = list(YCSBWorkload("A", 500, 1024, seed=3).run_ops(2000))
    values = [op.value for op in ops if op.value is not None]
    assert len({id(v) for v in values}) == len(set(values)) <= 256
    rng = YCSBWorkload("A", 500, 1024, seed=3)._rng
    keys = YCSBWorkload("A", 500, 1024, seed=3)._keys
    for op in ops:
        r = rng.random()
        key = keys.next()
        assert op.key == key
        if r < 0.5:
            assert op.value is None
        else:
            pattern = (key * 2654435761 + rng.randrange(256)) & 0xFF
            assert op.value == bytes([pattern]) * 64
