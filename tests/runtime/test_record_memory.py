"""What ``run_online`` retains per operation, by tracemalloc.

A record keeps what a transaction cost: seven fields appended to
``ctx.records``.  The transaction's write and read sets are its lock
footprint, needed only while it is live; the scheduler holds them until
it releases the locks, and then nothing does.  A record that carried
two frozensets retained about 550-700 B per operation on these stacks;
the cost fields, the record's list slot and the run's latency lists
come to about 220 B.
"""

import gc
import tracemalloc

import pytest

from repro.runtime import ExecutionContext, run_online
from repro.workloads import YCSBWorkload

OPS = 4000
CLIENTS = 4
#: retained bytes per operation a run may keep after ``gc.collect()``
BOUND_B_PER_OP = 256


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
