"""Shared fixtures and helpers for the test suite."""

import pytest

from repro.heap import FixedStr, Int64, PPtr, PersistentHeap, PersistentStruct, UInt64
from repro.nvm import NVMDevice, PmemPool
from repro.runtime.registry import registry_snapshot
from repro.tx import (
    CoWEngine,
    UndoLogEngine,
    kamino_dynamic,
    kamino_finegrained,
    kamino_simple,
    nvtraverse,
)

#: the crash-consistency checker's fixtures (--check-budget,
#: assert_engine_crash_consistent) are available suite-wide
pytest_plugins = ["repro.check.pytest_plugin"]

POOL_SIZE = 8 << 20
HEAP_SIZE = 2 << 20

ENGINES = {
    "undo": UndoLogEngine,
    "cow": CoWEngine,
    "kamino-simple": kamino_simple,
    "kamino-dynamic": lambda: kamino_dynamic(alpha=0.5),
    "kamino-finegrained": lambda: kamino_finegrained(alpha=0.5, stripes=8),
    "nvtraverse": nvtraverse,
}


@pytest.fixture(autouse=True)
def _pristine_engine_registry():
    """Restore the engine registry around every test.

    Tests that register throwaway doubles or ``unregister_engine`` a
    builtin would otherwise leak the mutation into later tests whose
    parametrization or sweeps are registry-driven.  The snapshot
    force-loads the builtins (including the deferred replication extra)
    first, so restoring never erases a not-yet-loaded registration.
    """
    with registry_snapshot():
        yield


class Pair(PersistentStruct):
    """A tiny two-field struct shared by many tests."""

    fields = [("key", Int64()), ("value", FixedStr(48))]


class Cell(PersistentStruct):
    """A linked cell for pointer-chasing tests."""

    fields = [("value", Int64()), ("next", PPtr())]


def build_heap(engine_factory, pool_size=POOL_SIZE, heap_size=HEAP_SIZE, seed=0):
    """Create a fresh device + pool + heap bound to a new engine."""
    device = NVMDevice(pool_size, seed=seed)
    pool = PmemPool.create(device)
    engine = engine_factory()
    heap = PersistentHeap.create(pool, engine, heap_size=heap_size)
    return heap, engine, device


def spy_lock_sets(ctx, sets=None):
    """Spy on ``ctx.run_tx``: ``sets`` (a new list when None, returned)
    gains, per call, the committed transaction's ``(write_set,
    read_set)`` as frozensets (both empty when none committed).  A
    record keeps only costs, so a test reads the lock footprint here, in
    record order."""
    sets = [] if sets is None else sets
    run_tx = ctx.run_tx

    def spy(kind, fn, *args):
        record, tx = run_tx(kind, fn, *args)
        if tx is None:
            sets.append((frozenset(), frozenset()))
        else:
            sets.append((frozenset(tx.write_set), frozenset(tx.read_set)))
        return record, tx

    ctx.run_tx = spy
    return sets


@pytest.fixture(params=sorted(ENGINES))
def any_engine_heap(request):
    """(heap, engine, device) parametrised over every recoverable engine."""
    heap, engine, device = build_heap(ENGINES[request.param])
    return heap, engine, device


@pytest.fixture
def kamino_heap():
    heap, engine, device = build_heap(kamino_simple)
    return heap, engine, device


@pytest.fixture
def undo_heap():
    heap, engine, device = build_heap(UndoLogEngine)
    return heap, engine, device
