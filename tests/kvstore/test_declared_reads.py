"""B+Tree declared reads are invisible in the simulation.

Every node visit is one block read charged as the field loads the
field-wise walk made.  The oracle is that walk (``fieldwise.py``, the
deleted ``_load`` and its callers, plus the per-entry look-up table
scan); each scenario runs once on the declared path and once on the
oracle, on fresh identical stacks, and must agree on returned values and
raised errors, every :class:`NVMStats` field, each transaction's read
and write sets, lock counters, simulated time through ``run_online``,
and durable state.  The cost tests below judge the host side by count,
not by stopwatch.
"""

import struct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import CrashExplorer
from repro.heap import PersistentHeap
from repro.kvstore import BPlusTree
from repro.nvm import NVMDevice, PmemPool, ReferenceNVMDevice
from repro.runtime import ExecutionContext, run_online
from repro.runtime.registry import make_engine, registered_engines
from repro.tx import reopen_after_crash
from repro.tx.dynamic import DYN_LOOKUP_REGION

from .fieldwise import fieldwise_reads

POOL_SIZE = 8 << 20
HEAP_SIZE = 512 << 10
FANOUT = 4
KEYS = 40

#: the device and its spec: the seam must hold on both
DEVICES = {"reference": ReferenceNVMDevice, "pure": NVMDevice}

ENGINES = sorted(registered_engines())

SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_key = st.integers(0, KEYS)
_op = st.one_of(
    st.tuples(st.just("put"), _key, st.integers(1, 2**40)),
    st.tuples(st.just("get"), _key),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("scan"), _key, st.integers(-1, 7)),
)
#: a step is one op, or several in one outer transaction (a node written
#: earlier in it is read back through cow / nvtraverse translation)
_step = st.one_of(_op, st.lists(_op, min_size=2, max_size=4).map(lambda ops: ("batch", ops)))


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)


def _apply(heap, tree, step):
    kind = step[0]
    if kind == "batch":
        with heap.transaction():
            return [_apply(heap, tree, op) for op in step[1]]
    if kind == "put":
        return tree.put(step[1], step[2])
    if kind == "scan":
        return tree.scan(step[1], step[2])
    return getattr(tree, kind)(step[1])


def _stack(name, device_cls, heap_size=HEAP_SIZE):
    device = device_cls(POOL_SIZE, seed=0)
    engine = make_engine(name)
    heap = PersistentHeap.create(PmemPool.create(device), engine, heap_size=heap_size)
    return heap, engine, device


def _observe(heap, engine, device, tree):
    """What the rest of a scenario may look at, taken outside any
    transaction (no read locks, no translation)."""
    return {
        "items": _outcome(lambda: list(tree.items())),
        "height": _outcome(tree.height),
        "invariants": _outcome(tree.check_invariants),
        "stats": device.stats.snapshot(),
        "locks": engine.locks.stats,
        "state": device.overlay_fingerprint(),
    }


def _online(name, device_cls, steps):
    heap, engine, device = _stack(name, device_cls)
    tree = BPlusTree.create(heap, fanout=FANOUT)
    ctx = ExecutionContext(
        model=device.model, device=device, engine=engine, heap=heap, engine_name=name
    )
    results = []
    replay = run_online(
        ctx, steps, lambda step: results.append(_outcome(lambda: _apply(heap, tree, step))),
        nthreads=2, kind_of=lambda step: step[0],
    )
    return {
        "results": results,
        "sim": (replay.duration_ns, replay.latencies_ns, replay.latencies_by_kind),
        "records": [
            (r.kind, r.crit_ns, r.async_ns, r.crit_bytes, r.async_bytes, r.n_intents,
             sorted(r.read_set), sorted(r.write_set))
            for r in ctx.records
        ],
        **_observe(heap, engine, device, tree),
    }


def _both(scenario, *args):
    declared = scenario(*args)
    with fieldwise_reads():
        oracle = scenario(*args)
    assert declared.keys() == oracle.keys()
    for key in declared:
        assert declared[key] == oracle[key], key
    return declared


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("engine", ENGINES)
@given(steps=st.lists(_step, min_size=1, max_size=30))
@SETTINGS
def test_declared_reads_match_the_fieldwise_walk(engine, device, steps):
    _both(_online, engine, DEVICES[device], steps)


# -- rotted bytes -------------------------------------------------------------


def _rotted(name, device_cls, node, count):
    """A tree whose ``node`` ("root" or "leaf") holds a rotted count."""
    heap, engine, device = _stack(name, device_cls)
    tree = BPlusTree.create(heap, fanout=FANOUT)
    for k in range(0, 2 * KEYS, 2):
        tree.put(k, k + 1)
    heap.drain()
    oid = tree.meta.root
    if node == "leaf":
        while not tree._node(oid).is_leaf:
            oid = tree._node(oid).ptrs[1]
    heap.region.write(oid + 8, struct.pack("<q", count))
    out = {
        "gets": [_outcome(lambda k=k: tree.get(k)) for k in range(-1, 2 * KEYS + 2, 3)],
        "scans": [_outcome(lambda k=k: tree.scan(k, 6)) for k in (0, 17, 60)],
        "put": _outcome(lambda: tree.put(33, 7)),
        "delete": _outcome(lambda: tree.delete(36)),
    }
    return {**out, **_observe(heap, engine, device, tree)}


@pytest.mark.parametrize("count", [-100, -3, -1, 0, FANOUT + 1, FANOUT + 3, 1 << 40])
@pytest.mark.parametrize("node", ["root", "leaf"])
def test_rotted_counts_slice_each_array_on_its_own(node, count):
    """keys and ptrs are cut from their own sub-tuples: a naive
    ``v[3:3 + count]`` would spill keys into ptrs."""
    _both(_rotted, "undo", NVMDevice, node, count)


def _media(name, device_cls, node, field_off, kind):
    heap, engine, device = _stack(name, device_cls)
    tree = BPlusTree.create(heap, fanout=FANOUT)
    for k in range(KEYS):
        tree.put(k, k + 1)
    heap.drain()
    device.persist_all()
    oid = tree.meta.root
    if node == "leaf":
        while not tree._node(oid).is_leaf:
            oid = tree._node(oid).ptrs[tree._node(oid).count]
    media = device.attach_media(protect=False)
    line = (heap.region.offset + oid + field_off) // 64
    (media.kill_line if kind == "dead" else media.mark_lost)(line)
    out = {
        "get": _outcome(lambda: tree.get(KEYS - 1)),
        "scan": _outcome(lambda: tree.scan(KEYS - 3, 5)),
        "put": _outcome(lambda: tree.put(KEYS + 5, 1)),
        "items": _outcome(lambda: list(tree.items())),
        "stats": device.stats.snapshot(),
        "locks": engine.locks.stats,
    }
    return out


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("kind", ["dead", "lost"])
@pytest.mark.parametrize("node", ["root", "leaf"])
@pytest.mark.parametrize("field_off", [0, 8, 16, 24 + 8 * 3, 24 + 8 * FANOUT + 8 * 2])
def test_media_errors_raise_after_the_same_partial_charges(device, kind, node, field_off):
    _both(_media, "kamino-simple", DEVICES[device], node, field_off, kind)


def _reopened_table(device_cls, torn, dead_entry):
    """A ``kamino-dynamic`` reopen over a look-up table of 8192 entries
    holding live, tombstoned and torn entries (and, with ``dead_entry``, a
    dead line); the scan skips the table's all-zero tail, if it has one,
    2048 entries at a time."""
    heap, engine, device = _stack("kamino-dynamic", device_cls, heap_size=2 << 20)
    tree = BPlusTree.create(heap, fanout=FANOUT)
    for k in range(KEYS):
        tree.put(k, k + 1)
    with heap.transaction():
        blobs = [heap.alloc_blob(64) for _ in range(4)]
    for blob in blobs:  # a write to a live object takes a table entry
        with heap.transaction():
            heap.write_blob(blob, b"x" * 64)
    with heap.transaction():  # a synced free tombstones it
        heap.free(blobs[1])
        heap.free(blobs[2])
    heap.drain()
    lookup = engine.backup.lookup
    assert lookup.capacity == 8192 and torn >= lookup._fresh  # never taken
    lookup.region.write(torn * 32, struct.pack("<QQQQ", 4096, 64, 64, 0xBAD))
    device.persist_all()
    device.crash()
    if dead_entry is not None:
        media = device.attach_media(protect=False)
        media.kill_line((lookup.region.offset + dead_entry * 32) // 64)
    before = device.stats.snapshot()
    try:
        _heap, engine2, _report = reopen_after_crash(
            device, lambda: make_engine("kamino-dynamic")
        )
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return {"error": (type(exc).__name__, str(exc)), "charged": device.stats.delta(before)}
    backup = engine2.backup
    return {
        "index": list(backup.lookup.index.items()),
        "free": (backup.lookup._recycled, backup.lookup._fresh),
        "lru": list(backup._lru),
        "charged": device.stats.delta(before),
    }


@pytest.mark.parametrize("device", sorted(DEVICES))
@pytest.mark.parametrize("torn", [4000, 8191])
@pytest.mark.parametrize("dead_entry", [None, 0, 7000])
def test_lookup_table_scan_matches_the_per_entry_walk(device, torn, dead_entry):
    got = _both(_reopened_table, DEVICES[device], torn, dead_entry)
    assert ("error" in got) == (dead_entry is not None)


# -- cost, by count -----------------------------------------------------------

_DEVICE_ENTRIES = ("read", "read_declared", "write", "copy", "flush", "flush_multi",
                   "fence", "persist_all")


def _count_device_calls(monkeypatch, calls):
    for name in _DEVICE_ENTRIES:
        real = getattr(NVMDevice, name)

        def counted(self, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, args[0] if args else None))
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(NVMDevice, name, counted)


@pytest.mark.parametrize("engine", ["undo", "kamino-simple", "kamino-dynamic"])
def test_a_lookup_is_one_device_call_per_node(engine, monkeypatch):
    calls = []
    _count_device_calls(monkeypatch, calls)  # before the heap binds them
    heap, _engine, _device = _stack(engine, NVMDevice)
    tree = BPlusTree.create(heap, fanout=FANOUT)
    for k in range(KEYS):
        tree.put(k, k + 1)
    heap.drain()
    height = tree.height()
    assert height >= 3
    for k in (0, KEYS // 2, KEYS - 1, KEYS + 1):
        calls.clear()
        tree.get(k)
        # the root pointer, then one declared read per level (the
        # field-wise walk made 5 per level)
        assert [name for name, _ in calls] == ["read"] + ["read_declared"] * height


def test_dynamic_reopen_reads_its_lookup_table_once(monkeypatch):
    calls = []
    _count_device_calls(monkeypatch, calls)
    heap, _engine, device = _stack("kamino-dynamic", NVMDevice)
    tree = BPlusTree.create(heap, fanout=FANOUT)
    for k in range(KEYS):
        tree.put(k, k + 1)
    heap.drain()
    region = heap.pool.region(DYN_LOOKUP_REGION)
    device.crash()
    calls.clear()
    heap2, _engine2, _report = reopen_after_crash(device, lambda: make_engine("kamino-dynamic"))
    in_table = [
        name for name, addr in calls
        if addr is not None and region.offset <= addr < region.offset + region.size
    ]
    # the per-entry walk made one read per entry: region.size // 32 here
    assert in_table == ["read_declared"]
    tree2 = BPlusTree.open(heap2, tree.meta.oid)
    assert dict(tree2.items()) == {k: k + 1 for k in range(KEYS)}


def _sweep(engine, media):
    report = CrashExplorer(engine, workload="kv").explore(
        max_points=8, workers=1, **media
    )
    return {"report": [report.summary()] + [str(f) for f in report.failures]}


_STANDALONE = [
    name for name, info in registered_engines().items()
    if info.capabilities.recoverable and not info.capabilities.needs_chain_repair
]


@pytest.mark.parametrize("engine", _STANDALONE)
def test_crash_sweep_reports_are_identical(engine):
    _both(_sweep, engine, {})


def test_media_sweep_reports_are_identical():
    _both(_sweep, "kamino-dynamic", {"media": "protected", "tree": True,
                                     "stale_lines": 2})
    _both(_sweep, "kamino-dynamic", {"media": "unprotected", "corrupt_lines": 2})
