"""TPC-C under power failures: application-level invariants survive.

TPC-C's payment profile adds the same amount to the warehouse YTD and
the district YTD inside one transaction, so at any quiescent point:

    warehouse.ytd == sum(district.ytd over its districts)

A crash that tore a payment in half would break the equality — this test
crashes the device at arbitrary operations inside a TPC-C mix and checks
the invariant after recovery, for both the baseline and Kamino engines.
"""

import pytest

from repro.errors import DeviceCrashedError
from repro.kvstore import KVStore
from repro.nvm import CrashPolicy
from repro.tx import UndoLogEngine, kamino_simple, reopen_after_crash, verify_backup_consistency
from repro.workloads import TPCCLite
from repro.workloads.tpcc import _DISTRICT, _WAREHOUSE, _unpack, k_district, k_warehouse

from ..conftest import build_heap

ENGINES = {"undo": UndoLogEngine, "kamino-simple": kamino_simple}


def money_invariant(kv, tpcc):
    """warehouse YTD must equal the sum of its districts' YTD."""
    for w in range(tpcc.warehouses):
        (w_ytd,) = _unpack(_WAREHOUSE, kv.get(k_warehouse(w)))
        d_total = 0.0
        for d in range(tpcc.districts):
            _next_o, d_ytd = _unpack(_DISTRICT, kv.get(k_district(w, d)))
            d_total += d_ytd
        assert abs(w_ytd - d_total) < 1e-6, (
            f"warehouse {w}: ytd {w_ytd} != district sum {d_total}"
        )


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize("crash_after", [40, 150, 600])
def test_tpcc_money_conserved_across_crash(name, crash_after):
    factory = ENGINES[name]
    heap, engine, device = build_heap(factory, pool_size=64 << 20, heap_size=24 << 20)
    kv = KVStore.create(heap, value_size=64)
    tpcc = TPCCLite(warehouses=1, districts=3, customers=10, items=40, seed=9)
    tpcc.load(kv)

    # run payments (the invariant-bearing profile) with a fail-point armed
    device.schedule_crash(crash_after, CrashPolicy.RANDOM, survival_prob=0.5)
    try:
        for _ in range(25):
            tpcc.do_payment(kv)
        kv.drain()
    except DeviceCrashedError:
        pass
    device.cancel_scheduled_crash()
    if not device.crashed:
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)

    heap2, engine2, _report = reopen_after_crash(device, factory)
    kv2 = KVStore.open(heap2)
    money_invariant(kv2, tpcc)
    kv2.tree.check_invariants()
    if engine2.backup is not None:
        verify_backup_consistency(heap2)
    # the store remains fully usable
    tpcc2 = TPCCLite(warehouses=1, districts=3, customers=10, items=40, seed=10)
    for _ in range(5):
        tpcc2.do_payment(kv2)
    kv2.drain()
    money_invariant(kv2, tpcc2)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_tpcc_new_order_atomic_across_crash(name):
    """A torn new-order would leave order rows without their lines (or
    a bumped district counter without the order); recovery must leave
    every visible order complete."""
    from repro.workloads.tpcc import _ORDER, k_order, k_order_line

    factory = ENGINES[name]
    heap, engine, device = build_heap(factory, pool_size=64 << 20, heap_size=24 << 20)
    kv = KVStore.create(heap, value_size=64)
    tpcc = TPCCLite(warehouses=1, districts=2, customers=8, items=40, seed=4)
    tpcc.load(kv)
    device.schedule_crash(300, CrashPolicy.RANDOM, survival_prob=0.5)
    try:
        for _ in range(15):
            tpcc.do_new_order(kv)
        kv.drain()
    except DeviceCrashedError:
        pass
    device.cancel_scheduled_crash()
    if not device.crashed:
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
    heap2, _, _ = reopen_after_crash(device, factory)
    kv2 = KVStore.open(heap2)
    # every order row visible after recovery has all of its lines
    for w in range(1):
        for d in range(2):
            next_o, _ = _unpack(_DISTRICT, kv2.get(k_district(w, d)))
            for o in range(1, next_o):
                row = kv2.get(k_order(w, d, o))
                assert row is not None, f"district counter at {next_o} but order {o} missing"
                _c, ol_cnt, _carrier, _ad = _unpack(_ORDER, row)
                for ln in range(ol_cnt):
                    assert kv2.get(k_order_line(w, d, o, ln)) is not None, (
                        f"order ({d},{o}) missing line {ln}"
                    )
