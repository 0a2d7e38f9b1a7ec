"""Differential sweep: the numpy-vectorized device vs both python devices.

Hypothesis searches for ANY mixed sequence of writes, copies (bulk and
chunked), flushes, fences, crashes, scheduled-crash countdowns that fire
*mid-bulk-op*, media rot (bit flips, stuck bits, dead lines, stale
replays, controller repairs — landing wherever they like, including in
pages nothing ever persisted to) and durable clones on which
``NumpyNVMDevice`` diverges from the devices it must be bit-identical
to:

* ``ReferenceNVMDevice`` — every observable: reads, ``NVMStats``,
  dirty-line counts, post-crash durable bytes, typed media errors;
* ``ReferenceNVMDevice`` *and* the pure-python ``NVMDevice`` — the
  overlay/crash fingerprints the crash-consistency checker prunes on and
  the durable clones it forks recoveries from.  The reference device
  hashes and copies its whole pool; the other two visit only the pages
  they recorded writing, so agreement here is what shows that record is
  complete.

This is the enforcement arm of the backend half of the invariance
contract (docs/INTERNALS.md §8).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DeviceCrashedError, MediaError
from repro.nvm import CrashPolicy, NVMDevice, ReferenceNVMDevice
from repro.nvm.backend import HAVE_NUMPY

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    from repro.nvm.numpy_device import NumpyNVMDevice

DEVICE_SIZE = 1 << 14
LINE = 64
BULK_BYTES = 4096  # >= the bulk dirty-range threshold (64 lines)

POLICIES = [CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM]

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def op_sequences(draw):
    nops = draw(st.integers(2, 22))
    ops = []
    for _ in range(nops):
        kind = draw(st.sampled_from([
            "write", "copy", "bulk_copy", "flush", "flush_multi", "fence",
            "persist_all", "read", "crash", "schedule_crash", "rot",
            "flip", "stick", "repair", "stale", "clone",
        ]))
        if kind == "write":
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            size = draw(st.integers(1, min(256, DEVICE_SIZE - addr)))
            data = bytes(draw(st.integers(0, 255)) for _ in range(min(size, 8))) * (
                (size + 7) // 8
            )
            ops.append(("write", addr, data[:size]))
        elif kind == "copy":
            size = draw(st.integers(1, 256))
            src = draw(st.integers(0, DEVICE_SIZE - size))
            dst = draw(st.integers(0, DEVICE_SIZE - size))
            ops.append(("copy", dst, src, size, draw(st.integers(1, 4))))
        elif kind == "bulk_copy":
            nlines = BULK_BYTES // LINE
            src = draw(st.integers(0, DEVICE_SIZE // LINE - nlines)) * LINE
            dst = draw(st.integers(0, DEVICE_SIZE // LINE - nlines)) * LINE
            ops.append(("copy", dst, src, BULK_BYTES, 1))
        elif kind == "flush":
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            ops.append(("flush", addr, draw(st.integers(1, min(1024, DEVICE_SIZE - addr)))))
        elif kind == "flush_multi":
            ranges = []
            for _ in range(draw(st.integers(1, 4))):
                addr = draw(st.integers(0, DEVICE_SIZE - 1))
                ranges.append((addr, draw(st.integers(1, min(256, DEVICE_SIZE - addr)))))
            ops.append(("flush_multi", ranges))
        elif kind == "fence":
            ops.append(("fence",))
        elif kind == "persist_all":
            ops.append(("persist_all",))
        elif kind == "read":
            addr = draw(st.integers(0, DEVICE_SIZE - 1))
            ops.append(("read", addr, draw(st.integers(1, min(512, DEVICE_SIZE - addr)))))
        elif kind == "crash":
            ops.append((
                "crash",
                draw(st.sampled_from(POLICIES)),
                draw(st.floats(0.0, 1.0)),
            ))
        elif kind == "schedule_crash":
            # a countdown small enough to fire inside the very next
            # bulk/chunked op is the interesting case
            ops.append((
                "schedule_crash",
                draw(st.integers(0, 6)),
                draw(st.sampled_from(POLICIES)),
                draw(st.floats(0.0, 1.0)),
            ))
        elif kind == "rot":
            ops.append((
                "rot",
                draw(st.integers(1, 4)),     # bit flips
                draw(st.integers(0, 1)),     # dead lines
                draw(st.integers(0, 2**16)),  # injection seed
            ))
        elif kind == "flip":
            ops.append(("flip", draw(st.integers(0, DEVICE_SIZE - 1)), draw(st.integers(0, 7))))
        elif kind == "stick":
            ops.append((
                "stick",
                draw(st.integers(0, DEVICE_SIZE - 1)),
                draw(st.integers(0, 7)),
                draw(st.integers(0, 1)),
            ))
        elif kind in ("repair", "stale"):
            # a whole line rewritten straight on the media
            ops.append((
                kind,
                draw(st.integers(0, DEVICE_SIZE // LINE - 1)),
                draw(st.integers(0, 255)),
            ))
        else:
            ops.append(("clone", draw(st.integers(0, 2**16))))
    return ops


def _media(dev):
    return dev.media if dev.media is not None else dev.attach_media(seed=0, protect=True)


def _apply(dev, op):
    """One op against one device -> a comparable outcome tuple.

    Crashes and typed media errors are part of the observable surface:
    both devices must raise the same type at the same op.
    """
    kind = op[0]
    try:
        if kind == "write":
            dev.write(op[1], op[2])
        elif kind == "copy":
            dev.copy(op[1], op[2], op[3], chunks=op[4])
        elif kind == "flush":
            dev.flush(op[1], op[2])
        elif kind == "flush_multi":
            dev.flush_multi(op[1])
        elif kind == "fence":
            dev.fence()
        elif kind == "persist_all":
            dev.persist_all()
        elif kind == "read":
            return ("value", dev.read(op[1], op[2]))
        elif kind == "crash":
            dev.crash(op[1], survival_prob=op[2])
            dev.restart()
        elif kind == "schedule_crash":
            dev.schedule_crash(op[1], op[2], survival_prob=op[3])
        elif kind == "rot":
            if dev.media is None:
                dev.attach_media(seed=op[3], protect=True)
            import random as _random

            rng = _random.Random(op[3])
            dev.media.inject_flips(op[1], rng=rng)
            if op[2]:
                dev.media.kill_lines(op[2], rng=rng)
        elif kind == "flip":
            _media(dev).flip_bit(op[1], op[2])
        elif kind == "stick":
            _media(dev).stick_bit(op[1], op[2], op[3])
        elif kind == "repair":
            _media(dev).repair_line(op[1], bytes([op[2]]) * LINE)
        else:  # stale
            _media(dev).replay_stale({op[1]: bytes([op[2]]) * LINE}, [op[1]])
    except DeviceCrashedError:
        # a scheduled countdown fired mid-op; power-cycle and continue
        dev.cancel_scheduled_crash()
        dev.restart()
        return ("crashed",)
    except MediaError as exc:
        return ("media", type(exc).__name__)
    return ("ok",)


def _safe_read(dev, addr, size):
    try:
        return ("value", dev.read(addr, size))
    except MediaError as exc:
        return ("media", type(exc).__name__)


def _step(devs, op):
    """One op against every device -> (the devices to go on with, one
    outcome per device).

    A ``clone`` op swaps each device for its durable clone — checked
    byte for byte against its original — and the sequence goes on *on
    the clones*, so a clone that forgot which pages it holds would show
    in every later fingerprint and clone.
    """
    if op[0] != "clone":
        return devs, [_apply(dev, op) for dev in devs]
    clones = [dev.clone_durable(seed=op[1]) for dev in devs]
    for dev, clone in zip(devs, clones):
        assert type(clone) is type(dev)
        assert bytes(clone._durable) == bytes(dev._durable)
        assert clone.dirty_lines == 0
    return clones, [("ok",)] * len(devs)


@given(ops=op_sequences(), seed=st.integers(0, 2**16))
@SETTINGS
def test_numpy_device_matches_reference(ops, seed):
    vec = NumpyNVMDevice(DEVICE_SIZE, seed=seed)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=seed)
    for i, op in enumerate(ops):
        (vec, ref), (got, want) = _step([vec, ref], op)
        assert got == want, (i, op)
        assert vec.dirty_lines == ref.dirty_lines, (i, op)
        assert vec.stats.snapshot() == ref.stats.snapshot(), (i, op)
    # whole-device sweep, line by line so dead lines stay typed
    for addr in range(0, DEVICE_SIZE, LINE):
        assert _safe_read(vec, addr, LINE) == _safe_read(ref, addr, LINE)


@given(ops=op_sequences(), seed=st.integers(0, 2**16))
@SETTINGS
def test_numpy_device_fingerprints_match_pure(ops, seed):
    """The checker's pruning digests and forked images must not depend
    on the device class — numpy == pure == reference: full scan
    (reference) == tracked pages (pure, numpy), through rot in
    never-written space, every crash policy, and clones of clones.  And
    the digest is honest: whatever changes a durable byte changes it."""
    devs = [
        ReferenceNVMDevice(DEVICE_SIZE, seed=seed),
        NVMDevice(DEVICE_SIZE, seed=seed),
        NumpyNVMDevice(DEVICE_SIZE, seed=seed),
    ]
    for dev in devs:
        dev.fingerprint_crashes = True
    for i, op in enumerate(ops):
        before = devs[0].overlay_fingerprint(), bytes(devs[0]._durable)
        devs, outcomes = _step(devs, op)
        assert outcomes[0] == outcomes[1] == outcomes[2], (i, op)
        digests = {dev.overlay_fingerprint() for dev in devs}
        assert len(digests) == 1, (i, op)
        assert len({dev.last_crash_fingerprint for dev in devs}) == 1, (i, op)
        assert len({bytes(dev._durable) for dev in devs}) == 1, (i, op)
        if op[0] != "clone" and bytes(devs[0]._durable) != before[1]:
            assert digests != {before[0]}, (i, op)


def test_scheduled_crash_fires_mid_bulk_copy_identically():
    """The countdown decrements per charged primitive, so a bulk copy
    large enough to cross it must tear at the same internal point."""
    for countdown in range(0, 8):
        vec = NumpyNVMDevice(DEVICE_SIZE, seed=9)
        ref = ReferenceNVMDevice(DEVICE_SIZE, seed=9)
        for dev in (vec, ref):
            dev.write(0, b"\x5a" * BULK_BYTES)
            dev.persist_all()
            dev.fence()
            dev.schedule_crash(countdown, CrashPolicy.RANDOM, survival_prob=0.5)
        outcomes = []
        for dev in (vec, ref):
            try:
                dev.copy(BULK_BYTES, 0, BULK_BYTES, chunks=4)
                outcomes.append("survived")
            except DeviceCrashedError:
                outcomes.append("crashed")
        assert outcomes[0] == outcomes[1], countdown
        assert vec.durable_read(0, DEVICE_SIZE) == ref.durable_read(0, DEVICE_SIZE)
        assert vec.stats.snapshot() == ref.stats.snapshot()


def test_numpy_device_clone_durable_matches_pure():
    vec = NumpyNVMDevice(DEVICE_SIZE, seed=3)
    pure = NVMDevice(DEVICE_SIZE, seed=3)
    for dev in (vec, pure):
        dev.write(100, b"abc" * 100)
        dev.flush(100, 300)
        dev.fence()
        dev.write(5000, b"xyz" * 10)  # left dirty: must not clone
    c1, c2 = vec.clone_durable(seed=1), pure.clone_durable(seed=1)
    assert type(c1) is NumpyNVMDevice
    assert c1.read(0, DEVICE_SIZE) == c2.read(0, DEVICE_SIZE)
    assert c1.dirty_lines == c2.dirty_lines == 0
