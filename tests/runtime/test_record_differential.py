"""Property: a mark-priced record is the snapshot-priced one, bit for bit.

Twin contexts of every registered engine run the same random
put/get/delete/scan/rmw sequence: one through
:meth:`ExecutionContext.run_tx` (three counter marks), the other through
:func:`snapshot_run_tx` (two full snapshots and their deltas).  Every
``TxRecord`` field must match, floats compared by ``float.hex``, and so
must each committed transaction's write and read sets, the device's
``NVMStats`` and the lock table's ``LockStats``.  The scheduler legs
drive both twins through ``run_online`` at 1 and 4 clients and also
compare the run's simulated duration and per-kind latencies.

The chain legs run one random op sequence through a replication chain
twice: once as is (every replica prices through its context), once with
``ReplicaNode``'s three pricing methods patched back to their private
marks (:mod:`legacy_replica_pricing`).  Every ``FIFOServer.request``
call, the read and write latencies, the final simulated time, and every
replica's ``NVMStats`` and heap bytes must match, floats by
``float.hex``.  The legs cover both chain modes, the dynamic backup,
a back-pressure drain of several transactions, a head fail-stop with
writes after it, and a quick reboot of a mid replica with a write in
flight.
"""

import hashlib
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nvm import CrashPolicy
from repro.replication import KAMINO, TRADITIONAL, ChainCluster, fail_stop, quick_reboot
from repro.replication.node import ReplicaNode
from repro.runtime import ExecutionContext, run_online
from repro.runtime.registry import registered_engines
from repro.sim.resources import FIFOServer

from ..conftest import spy_lock_sets
from . import legacy_replica_pricing
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
    prices its records the snapshot way.  Each twin's ``lock_sets``
    lists its records' committed ``(write_set, read_set)``."""
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
    for ctx in pair:
        ctx.lock_sets = spy_lock_sets(ctx)
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
    assert marked.lock_sets == snapshotted.lock_sets
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


chain_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("rmw_const"), keys, values),
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("scan"), keys, st.integers(1, 6)),
    ),
    min_size=1,
    max_size=20,
)

#: leg -> (mode, alpha, max_backup_lag, intervention between the halves)
CHAIN_LEGS = {
    "kamino": (KAMINO, 1.0, 64, None),
    "kamino-dynamic": (KAMINO, 0.5, 64, None),
    "traditional": (TRADITIONAL, 1.0, 64, None),
    "backpressure": (KAMINO, 1.0, 4, None),
    "head-fail-stop": (KAMINO, 1.0, 64, "fail_stop"),
    "mid-reboot": (KAMINO, 1.0, 64, "reboot"),
}


def _submit(cluster, op):
    verb, key = op[0], op[1]
    if verb in ("get", "scan"):
        cluster.submit_read(verb, op[1:])
    else:
        cluster.submit_write(verb, op[1:], [key])


def _chain_run(leg, ops, legacy):
    """Run ``ops`` through a fresh chain; returns everything the legs
    compare.  ``legacy`` prices the replicas the private way."""
    mode, alpha, max_backup_lag, intervention = CHAIN_LEGS[leg]
    requests = []
    request = FIFOServer.request

    def logged(server, arrival, service_ns):
        requests.append((server.name, _exact(arrival), _exact(service_ns)))
        return request(server, arrival, service_ns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FIFOServer, "request", logged)
        if legacy:
            for name, method in legacy_replica_pricing.METHODS.items():
                mp.setattr(ReplicaNode, name, method)
        cluster = ChainCluster(
            f=2, mode=mode, heap_mb=1, value_size=VALUE_SIZE, alpha=alpha,
            max_backup_lag=max_backup_lag,
        )
        for key in range(0, KEYS, 2):
            cluster.submit_write("put", (key, bytes([key + 1]) * 16), [key])
        cluster.drain()
        half = len(ops) // 2
        for op in ops[:half]:
            _submit(cluster, op)
        cluster.drain()
        if intervention == "fail_stop":
            fail_stop(cluster, 0)
        elif intervention == "reboot":
            cluster.submit_write("put", (1, b"R" * 16), [1])
            cluster.sim.run(max_events=6)
            quick_reboot(cluster, 2, CrashPolicy.RANDOM)
            cluster.drain()
        for op in ops[half:]:
            _submit(cluster, op)
        cluster.drain()
    return {
        "requests": requests,
        "writes": _exact(cluster.write_latencies_ns),
        "reads": _exact(cluster.read_latencies_ns),
        "now": _exact(cluster.sim.now),
        "stats": [node.device.stats.snapshot() for node in cluster.chain],
        "heaps": [hashlib.sha1(node.heap_image()).hexdigest() for node in cluster.chain],
        "replica_records": sum(len(node.ctx.records) for node in cluster.chain),
    }


@pytest.mark.parametrize("leg", sorted(CHAIN_LEGS))
@SETTINGS
@given(ops=chain_operations)
def test_chain_hops_match_private_replica_pricing(leg, ops):
    context_priced = _chain_run(leg, ops, legacy=False)
    privately_priced = _chain_run(leg, ops, legacy=True)
    assert context_priced["requests"]
    # a replica prices with execute/drain and never appends a record
    assert context_priced["replica_records"] == 0
    for field, want in privately_priced.items():
        assert context_priced[field] == want, field
