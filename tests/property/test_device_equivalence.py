"""Property: the optimized device is observationally equal to the naive one.

Hypothesis searches for ANY op sequence on which the optimized
``NVMDevice`` (mask tables, single-line fast paths, bulk dirty ranges,
elided locks) diverges from ``ReferenceNVMDevice`` (the per-word-loop
implementation) — in read results, ``NVMStats``, dirty lines, or the
durable bytes surviving a crash under each ``CrashPolicy``.  A durable
store (``persist``) must be the reference's literal write / flush / fence
sequence even when a fail-point fires at any of its three ticks, with a
media model seeing the same persisted lines.  A second
sweep runs every registered recoverable engine end-to-end on both
devices (optimized stack with the strategies' batched backup sync,
reference stack with the entry-at-a-time sync patched in) and demands
identical stats, simulated time, and durable state.
"""

from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DeviceCrashedError
from repro.heap import PersistentHeap
from repro.nvm import CrashPolicy, NVMDevice, PmemPool, ReferenceNVMDevice
from repro.runtime.registry import registered_engines

from ..conftest import Pair
from ..tx.entrywise_sync import entrywise_sync

DEVICE_SIZE = 16384
LINE = 64
BULK_BYTES = 4096  # the bulk dirty-range threshold (64 lines)

POLICIES = [CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM]

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def op_sequences(draw):
    nops = draw(st.integers(1, 25))
    ops = []
    for _ in range(nops):
        kind = draw(
            st.sampled_from(
                ["write", "persist", "copy", "bulk_copy", "flush", "flush_multi", "fence",
                 "persist_all"]
            )
        )
        if kind in ("write", "persist"):
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            size = draw(st.integers(1, min(256, DEVICE_SIZE - addr)))
            data = bytes(draw(st.integers(0, 255)) for _ in range(size))
            ops.append((kind, addr, data))
        elif kind == "copy":
            size = draw(st.integers(1, 256))
            src = draw(st.integers(0, DEVICE_SIZE - size))
            dst = draw(st.integers(0, DEVICE_SIZE - size))
            chunks = draw(st.integers(1, 4))
            ops.append(("copy", dst, src, size, chunks))
        elif kind == "bulk_copy":
            nlines = BULK_BYTES // LINE
            src = draw(st.integers(0, DEVICE_SIZE // LINE - nlines)) * LINE
            dst = draw(st.integers(0, DEVICE_SIZE // LINE - nlines)) * LINE
            ops.append(("copy", dst, src, BULK_BYTES, 1))
        elif kind == "flush":
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            size = draw(st.integers(1, min(1024, DEVICE_SIZE - addr)))
            ops.append(("flush", addr, size))
        elif kind == "flush_multi":
            ranges = []
            for _ in range(draw(st.integers(1, 4))):
                addr = draw(st.integers(0, DEVICE_SIZE - 1))
                ranges.append((addr, draw(st.integers(1, min(256, DEVICE_SIZE - addr)))))
            ops.append(("flush_multi", ranges))
        elif kind == "fence":
            ops.append(("fence",))
        else:
            ops.append(("persist_all",))
    return ops


def _drive(device, ops):
    for op in ops:
        if op[0] == "write":
            device.write(op[1], op[2])
        elif op[0] == "persist":
            device.persist(op[1], op[2])
        elif op[0] == "copy":
            device.copy(op[1], op[2], op[3], chunks=op[4])
        elif op[0] == "flush":
            device.flush(op[1], op[2])
        elif op[0] == "flush_multi":
            device.flush_multi(op[1])
        elif op[0] == "fence":
            device.fence()
        else:
            device.persist_all()


@given(
    ops=op_sequences(),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(0, 2**16),
    survival=st.floats(0.0, 1.0),
)
@SETTINGS
def test_optimized_device_is_observationally_equal(ops, policy, seed, survival):
    opt = NVMDevice(DEVICE_SIZE, seed=seed)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=seed)
    _drive(opt, ops)
    _drive(ref, ops)

    assert opt.read(0, DEVICE_SIZE) == ref.read(0, DEVICE_SIZE)
    assert opt.dirty_lines == ref.dirty_lines
    assert opt.stats.snapshot() == ref.stats.snapshot()

    # same policy + same seed => bit-identical crash survivors
    opt.crash(policy, survival_prob=survival)
    ref.crash(policy, survival_prob=survival)
    assert opt.durable_read(0, DEVICE_SIZE) == ref.durable_read(0, DEVICE_SIZE)


def _persist_leg(device_cls, ops, media, addr, data, tick, policy, seed, survival):
    """Drive ``ops``, arm a fail-point ``tick`` device ops ahead (None:
    none), persist, then crash; returns what the two devices must agree
    on: ``(crashed inside persist, NVMStats, lines each on_persist saw,
    overlay fingerprint before the crash, durable bytes after it)``."""
    device = device_cls(DEVICE_SIZE, seed=seed)
    persisted = []
    if media:
        model = device.attach_media(seed=seed)
        on_persist = model.on_persist

        def seen(lines, partial=()):
            persisted.append((list(lines), list(partial)))
            on_persist(lines, partial)

        model.on_persist = seen
    _drive(device, ops)
    if tick is not None:
        device.schedule_crash(tick, policy, survival)
    fingerprint = None
    try:
        device.persist(addr, data)
    except DeviceCrashedError:
        crashed = True
    else:
        crashed = False
        fingerprint = device.overlay_fingerprint()
        device.crash(policy, survival_prob=survival)
    return (
        crashed,
        device.stats.snapshot(),
        persisted,
        fingerprint,
        device.durable_read(0, DEVICE_SIZE),
    )


@pytest.mark.parametrize("media", [False, True], ids=["plain", "media"])
@given(
    ops=op_sequences(),
    addr=st.integers(0, DEVICE_SIZE - 1),
    size=st.integers(0, 256),
    fill=st.integers(0, 255),
    tick=st.sampled_from([None, 0, 1, 2]),
    policy=st.sampled_from([CrashPolicy.DROP_ALL, CrashPolicy.RANDOM]),
    seed=st.integers(0, 2**16),
    survival=st.floats(0.0, 1.0),
)
@SETTINGS
def test_persist_is_write_flush_fence_under_failpoints(
    media, ops, addr, size, fill, tick, policy, seed, survival
):
    data = bytes((fill + i) & 0xFF for i in range(min(size, DEVICE_SIZE - addr)))
    args = (ops, media, addr, data, tick, policy, seed, survival)
    opt = _persist_leg(NVMDevice, *args)
    ref = _persist_leg(ReferenceNVMDevice, *args)
    assert opt == ref
    if tick is not None and (data or tick < 2):
        assert opt[0]  # the fail-point fired inside persist


# -- full-stack sweep over the engine registry ------------------------------

ENGINES = {
    name: info
    for name, info in registered_engines().items()
    if info.capabilities.recoverable
}

POOL_SIZE = 8 << 20
HEAP_SIZE = 2 << 20
N_OBJECTS = 5

STACK_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _run_stack(info, device_cls, coalesce, batches, seed):
    with nullcontext() if coalesce else entrywise_sync():
        return _stack_run(info, device_cls, batches, seed)


def _stack_run(info, device_cls, batches, seed):
    device = device_cls(POOL_SIZE, seed=seed)
    pool = PmemPool.create(device)
    engine = info.factory()
    heap = PersistentHeap.create(pool, engine, heap_size=HEAP_SIZE)
    objs = []
    with heap.transaction():
        for _ in range(N_OBJECTS):
            objs.append(heap.alloc(Pair))
    for batch in batches:
        with heap.transaction():
            for i, v in batch:
                o = objs[i]
                o.tx_add()
                o.key = v
                o.value = f"v{v}"
    heap.drain()
    return device


@given(
    name=st.sampled_from(sorted(ENGINES)),
    batches=st.lists(
        st.lists(
            st.tuples(st.integers(0, N_OBJECTS - 1), st.integers(0, 2**31)),
            min_size=1,
            max_size=4,
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**16),
)
@STACK_SETTINGS
def test_engine_stacks_match_on_both_devices(name, batches, seed):
    info = ENGINES[name]
    opt = _run_stack(info, NVMDevice, True, batches, seed)
    ref = _run_stack(info, ReferenceNVMDevice, False, batches, seed)
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.stats.simulated_ns(opt.model) == ref.stats.simulated_ns(ref.model)
    assert opt.durable_read(0, POOL_SIZE) == ref.durable_read(0, POOL_SIZE)
    assert opt.read(0, POOL_SIZE) == ref.read(0, POOL_SIZE)
    assert opt.dirty_lines == ref.dirty_lines
