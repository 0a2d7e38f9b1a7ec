"""Interval-coalesced backup sync must be invisible in simulated results.

The backup strategies drain adjacent pending ranges as single bulk
``device.copy`` calls and batch their flushes through ``flush_multi``.
The contract (docs/INTERNALS.md) is that every
:class:`~repro.nvm.stats.NVMStats` counter, every durable byte, and
hence the simulated time are *bit-identical* to the entry-at-a-time
loop (:mod:`.entrywise_sync`) — only wall-clock changes.  These tests
run the same workload both ways on same-seed devices and diff
everything.
"""

from contextlib import nullcontext

import pytest

from repro.nvm import NVMDevice, PmemPool
from repro.heap import PersistentHeap
from repro.tx import kamino_dynamic, kamino_simple, verify_backup_consistency
from repro.tx.base import IntentKind

from ..conftest import HEAP_SIZE, POOL_SIZE, Pair
from .entrywise_sync import entrywise_sync

FACTORIES = {
    "kamino-simple": kamino_simple,
    "kamino-dynamic": lambda: kamino_dynamic(alpha=0.5),
}

# crafted intent offsets live far above anything the workload allocates
CRAFT_BASE = 1 << 20


def _sync_leg(coalesce: bool):
    return nullcontext() if coalesce else entrywise_sync()


def _build(factory):
    device = NVMDevice(POOL_SIZE, seed=7)
    pool = PmemPool.create(device)
    engine = factory()
    heap = PersistentHeap.create(pool, engine, heap_size=HEAP_SIZE)
    return heap, engine, device


def _craft_tx(heap, engine, ranges):
    """One transaction whose intent entries are exactly ``ranges``."""
    tx = engine.begin()
    for off, size in ranges:
        engine.on_add(tx, off, size, IntentKind.WRITE)
        heap.region.write(off, bytes((off + i) & 0xFF for i in range(size)))
    engine.commit(tx)


def _run_workload(factory, coalesce: bool):
    with _sync_leg(coalesce):
        return _workload(factory)


def _workload(factory):
    heap, engine, device = _build(factory)
    # ordinary heap traffic: multi-object txs, re-modification, a free
    objs = []
    with heap.transaction():
        for i in range(6):
            p = heap.alloc(Pair)
            p.key = i
            p.value = f"v{i}"
            objs.append(p)
    with heap.transaction():
        for p in objs[:3]:
            p.tx_add()
            p.key += 100
    with heap.transaction():
        heap.free(objs[5])
    heap.drain()
    # crafted shapes that target the coalescing guards:
    # three exactly-adjacent line-aligned entries (merge into one run)
    _craft_tx(heap, engine, [(CRAFT_BASE, 64), (CRAFT_BASE + 64, 64), (CRAFT_BASE + 128, 64)])
    # adjacent but the boundary is NOT line-aligned (must not merge)
    _craft_tx(heap, engine, [(CRAFT_BASE + 4096, 32), (CRAFT_BASE + 4128, 32)])
    # a gap between entries (must not merge)
    _craft_tx(heap, engine, [(CRAFT_BASE + 8192, 64), (CRAFT_BASE + 8192 + 256, 64)])
    # same line touched twice in one tx (dynamic flush-deferral guard)
    _craft_tx(heap, engine, [(CRAFT_BASE + 12288, 32), (CRAFT_BASE + 12288, 32)])
    # a long adjacent run of sub-line writes with line-aligned boundaries
    _craft_tx(heap, engine, [(CRAFT_BASE + 16384 + 64 * i, 64) for i in range(8)])
    heap.drain()
    verify_backup_consistency(heap)
    return heap, engine, device


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_coalesced_sync_is_bit_identical(name):
    factory = FACTORIES[name]
    heap_a, engine_a, dev_a = _run_workload(factory, coalesce=True)
    heap_b, engine_b, dev_b = _run_workload(factory, coalesce=False)
    assert dev_a.stats.snapshot() == dev_b.stats.snapshot()
    assert dev_a.stats.simulated_ns(dev_a.model) == dev_b.stats.simulated_ns(dev_b.model)
    assert dev_a.durable_read(0, dev_a.size) == dev_b.durable_read(0, dev_b.size)
    assert dev_a.read(0, dev_a.size) == dev_b.read(0, dev_b.size)
    assert dev_a.dirty_lines == dev_b.dirty_lines


def test_full_backup_run_actually_merges():
    """The adjacent-run tx drains as ONE device.copy (chunks=3), not three."""
    heap, engine, device = _build(kamino_simple)
    calls = []
    real_copy = device.copy

    def counting_copy(dst, src, size, chunks=1):
        calls.append((size, chunks))
        return real_copy(dst, src, size, chunks=chunks)

    _craft_tx(heap, engine, [(CRAFT_BASE, 64), (CRAFT_BASE + 64, 64), (CRAFT_BASE + 128, 64)])
    device.copy = counting_copy
    try:
        engine.sync_pending()
    finally:
        device.copy = real_copy
    assert calls == [(192, 3)]
    # the merged call still charges three logical copies
    assert device.stats.copies >= 3


def test_misaligned_boundary_does_not_merge():
    heap, engine, device = _build(kamino_simple)
    calls = []
    real_copy = device.copy

    def counting_copy(dst, src, size, chunks=1):
        calls.append((size, chunks))
        return real_copy(dst, src, size, chunks=chunks)

    _craft_tx(heap, engine, [(CRAFT_BASE, 32), (CRAFT_BASE + 32, 32)])
    device.copy = counting_copy
    try:
        engine.sync_pending()
    finally:
        device.copy = real_copy
    assert calls == [(32, 1), (32, 1)]


def test_recovery_roll_forward_coalesces_identically():
    """COMMITTED slots replayed by recover() give identical stats/state."""
    from repro.nvm import CrashPolicy

    images = {}
    for coalesce in (True, False):
        with _sync_leg(coalesce):
            heap, engine, device = _build(kamino_simple)
            _craft_tx(heap, engine, [(CRAFT_BASE + 64 * i, 64) for i in range(4)])
            # committed but unsynced: crash now; open() runs recovery
            device.crash(CrashPolicy.KEEP_ALL)
            device.restart()
            pool = PmemPool.open(device)
            engine2 = kamino_simple()
            PersistentHeap.open(pool, engine2)
            assert engine2.last_recovery_report.rolled_forward == 1
            images[coalesce] = (device.stats.snapshot(), device.durable_read(0, device.size))
    assert images[True] == images[False]
