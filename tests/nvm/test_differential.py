"""Differential rig: the optimized NVMDevice vs the naive reference.

``ReferenceNVMDevice`` re-implements every data-path internal with the
straightforward per-word loops and per-line dict the optimized device
replaced (a flat media store, mask bytes, per-page overlay buffers,
single-line fast paths, mask-integer window scans, dirty-line runs).
The optimized device must also keep a buffer for exactly the pages that
hold a dirty line, which the rigs check after every op.  Driving both
with identical op / crash / recovery sequences must be
indistinguishable in every observable: read
results, ``NVMStats``, dirty-line counts, post-crash durable bytes under
every crash policy, typed media errors, and the crash image the checker
works from — ``overlay_fingerprint`` digests and ``clone_durable``
copies with or without the overlay, which the reference device computes
over its whole pool and per-line dict and the optimized one over the
pages it recorded writing and its dirty-line runs (bit flips land
anywhere, including in pages nothing ever persisted to).  This is the
enforcement arm of the invariance contract in docs/INTERNALS.md §8.

Two generators drive it: seeded random tapes, and Hypothesis sequences
that also fire scheduled crashes mid-op, rot the media, go on on durable
clones with and without their overlay, and aim at the shapes the
layout branches on — zero-length
ops, windows of exactly 1 / 32 / 33 lines, wide stores with partial
head and tail lines over mixed clean/dirty lines, wide overlapping
copies, sparse flush windows, and dirty lines pages apart.
"""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DeviceCrashedError, MediaError
from repro.nvm import CrashPolicy, DeclaredLoads, NVMDevice, ReferenceNVMDevice
from repro.nvm import device as device_module
from repro.nvm.device import PAGE

DEVICE_SIZE = 1 << 16
LINE = 64
#: a wide line-aligned copy: far more lines than one mask-integer window
BULK_BYTES = 8192

POLICIES = [CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM]


def _random_ops(rng: random.Random, nops: int):
    """A mixed op tape biased to exercise every fast path."""
    ops = []
    for _ in range(nops):
        kind = rng.choice(
            [
                "write",
                "write_line",
                "write_word",
                "copy",
                "copy_bulk",
                "copy_chunked",
                "flush",
                "flush_multi",
                "fence",
                "persist_all",
                "read",
                "crash",
                "flip",
                "clone",
            ]
        )
        if kind == "write":
            addr = rng.randrange(DEVICE_SIZE - 256)
            size = rng.randint(1, 256)
            ops.append(("write", addr, bytes(rng.randrange(256) for _ in range(size))))
        elif kind == "write_line":
            # exactly one whole line: the fault-in-skipping store path
            addr = rng.randrange(DEVICE_SIZE // LINE) * LINE
            ops.append(("write", addr, bytes(rng.randrange(256) for _ in range(LINE))))
        elif kind == "write_word":
            addr = rng.randrange(DEVICE_SIZE // 8) * 8
            ops.append(("write", addr, bytes(rng.randrange(256) for _ in range(8))))
        elif kind == "copy":
            size = rng.randint(1, 512)
            ops.append(
                (
                    "copy",
                    rng.randrange(DEVICE_SIZE - size),
                    rng.randrange(DEVICE_SIZE - size),
                    size,
                    1,
                )
            )
        elif kind == "copy_bulk":
            # line-aligned and 128 lines wide
            nlines = BULK_BYTES // LINE
            dst = rng.randrange(DEVICE_SIZE // LINE - nlines) * LINE
            src = rng.randrange(DEVICE_SIZE // LINE - nlines) * LINE
            ops.append(("copy", dst, src, BULK_BYTES, 1))
        elif kind == "copy_chunked":
            size = rng.randint(64, 512)
            ops.append(
                (
                    "copy",
                    rng.randrange(DEVICE_SIZE - size),
                    rng.randrange(DEVICE_SIZE - size),
                    size,
                    rng.randint(2, 5),
                )
            )
        elif kind == "flush":
            addr = rng.randrange(DEVICE_SIZE - 1)
            ops.append(("flush", addr, rng.randint(1, min(2048, DEVICE_SIZE - addr))))
        elif kind == "flush_multi":
            ranges = []
            for _ in range(rng.randint(1, 5)):
                addr = rng.randrange(DEVICE_SIZE - 1)
                ranges.append((addr, rng.randint(1, min(512, DEVICE_SIZE - addr))))
            ops.append(("flush_multi", ranges))
        elif kind == "fence":
            ops.append(("fence",))
        elif kind == "persist_all":
            ops.append(("persist_all",))
        elif kind == "read":
            addr = rng.randrange(DEVICE_SIZE - 512)
            ops.append(("read", addr, rng.randint(1, 512)))
        elif kind == "flip":
            ops.append(("flip", rng.randrange(DEVICE_SIZE), rng.randrange(8)))
        elif kind == "clone":
            ops.append(("clone", rng.randrange(1 << 16)))
        else:
            ops.append(("crash", rng.choice(POLICIES), rng.random()))
    return ops


def _drive_pair(opt: NVMDevice, ref: ReferenceNVMDevice, ops, check_every=8):
    """Apply each op to both devices, comparing observables as we go."""
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == "write":
            opt.write(op[1], op[2])
            ref.write(op[1], op[2])
        elif kind == "copy":
            _k, dst, src, size, chunks = op
            opt.copy(dst, src, size, chunks=chunks)
            ref.copy(dst, src, size, chunks=chunks)
        elif kind == "flush":
            opt.flush(op[1], op[2])
            ref.flush(op[1], op[2])
        elif kind == "flush_multi":
            opt.flush_multi(op[1])
            ref.flush_multi(op[1])
        elif kind == "fence":
            opt.fence()
            ref.fence()
        elif kind == "persist_all":
            opt.persist_all()
            ref.persist_all()
        elif kind == "read":
            assert opt.read(op[1], op[2]) == ref.read(op[1], op[2])
        elif kind == "flip":
            before = opt.overlay_fingerprint()
            for dev in (opt, ref):
                media = dev.media or dev.attach_media(seed=0, protect=True)
                media.flip_bit(op[1], op[2])
            assert opt.overlay_fingerprint() != before
        elif kind == "clone":
            # go on with the clones: theirs must be as good an image
            clones = opt.clone_durable(seed=op[1]), ref.clone_durable(seed=op[1])
            for dev, clone in zip((opt, ref), clones):
                assert type(clone) is type(dev)
                assert bytes(clone._durable) == bytes(dev._durable)
            opt, ref = clones
        else:
            _k, policy, survival = op
            assert opt.overlay_fingerprint() == ref.overlay_fingerprint()
            opt.crash(policy, survival_prob=survival)
            ref.crash(policy, survival_prob=survival)
            assert opt.durable_read(0, DEVICE_SIZE) == ref.durable_read(0, DEVICE_SIZE)
            opt.restart()
            ref.restart()
        if i % check_every == 0:
            assert opt.dirty_lines == ref.dirty_lines
            assert opt.stats.snapshot() == ref.stats.snapshot()
            assert opt.overlay_fingerprint() == ref.overlay_fingerprint()
    assert opt.read(0, DEVICE_SIZE) == ref.read(0, DEVICE_SIZE)
    assert opt.durable_read(0, DEVICE_SIZE) == ref.durable_read(0, DEVICE_SIZE)
    assert opt.dirty_lines == ref.dirty_lines
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()


@pytest.mark.parametrize("seed", range(12))
def test_randomized_sequences_are_indistinguishable(seed):
    rng = random.Random(seed)
    ops = _random_ops(rng, nops=120)
    opt = NVMDevice(DEVICE_SIZE, seed=seed)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=seed)
    _drive_pair(opt, ref, ops)


@pytest.mark.parametrize("seed", range(6))
def test_coalesce_flushes_matches_reference_coalescer(seed):
    """Burst accounting survives the rewrite: both devices coalescing."""
    rng = random.Random(2000 + seed)
    ops = _random_ops(rng, nops=80)
    opt = NVMDevice(DEVICE_SIZE, seed=seed, coalesce_flushes=True)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=seed, coalesce_flushes=True)
    _drive_pair(opt, ref, ops)


def test_bulk_range_split_by_partial_flush():
    """Flushing the middle of a wide copy's dirty run splits it."""
    opt = NVMDevice(DEVICE_SIZE, seed=0)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=0)
    for dev in (opt, ref):
        dev.write(0, bytes(range(256)) * 32)  # 8 KiB of source data
        dev.persist_all()
        dev.fence()
        dev.copy(BULK_BYTES, 0, BULK_BYTES)  # 128 dirty lines in one run
    # flush a window in the middle of the run, then scribble on the
    # remainders: the split halves must still be tracked as dirty
    for dev in (opt, ref):
        dev.flush(BULK_BYTES + 1024, 512)
        dev.fence()
        dev.write(BULK_BYTES + 64, b"\xaa" * 8)
    assert opt.dirty_lines == ref.dirty_lines
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.read(0, DEVICE_SIZE) == ref.read(0, DEVICE_SIZE)
    opt.crash(CrashPolicy.DROP_ALL)
    ref.crash(CrashPolicy.DROP_ALL)
    assert opt.durable_read(0, DEVICE_SIZE) == ref.durable_read(0, DEVICE_SIZE)


def test_bulk_range_survives_random_crash_identically():
    """Same seed => same surviving torn words, even out of a wide copy."""
    opt = NVMDevice(DEVICE_SIZE, seed=42)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=42)
    for dev in (opt, ref):
        dev.write(0, b"\x5a" * BULK_BYTES)
        dev.persist_all()
        dev.fence()
        dev.copy(BULK_BYTES, 0, BULK_BYTES)
    opt.crash(CrashPolicy.RANDOM, survival_prob=0.5)
    ref.crash(CrashPolicy.RANDOM, survival_prob=0.5)
    assert opt.durable_read(0, DEVICE_SIZE) == ref.durable_read(0, DEVICE_SIZE)


# -- zero-length operations ---------------------------------------------------

SMALL = 1 << 14


@pytest.mark.parametrize("finish", ["flush", "crash"])
@pytest.mark.parametrize("busy", [False, True], ids=["clean", "busy"])
@pytest.mark.parametrize("addr", [0, 64, 100, 4095, 4096, SMALL - 64, SMALL - 8, SMALL])
def test_zero_length_ops_match_the_reference(addr, busy, finish):
    """A zero-byte store, copy or load is charged as one and dirties
    nothing — aligned or not, on a clean device or beside dirty lines,
    and at the very end of the device."""
    devs = NVMDevice(SMALL, seed=1), ReferenceNVMDevice(SMALL, seed=1)
    for dev in devs:
        if busy:
            dev.write(90, b"\x11" * 60)  # two dirty lines, partly masked
        dev.write(addr, b"")
        dev.copy(addr, 256, 0)
        dev.copy(256, addr, 0, chunks=3)
        assert dev.read(addr, 0) == b""
    opt, ref = devs
    assert opt.dirty_lines == ref.dirty_lines == 2 * busy
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()
    for dev in devs:
        if finish == "flush":
            lo, hi = max(0, addr - LINE), min(SMALL, addr + LINE)
            dev.flush(lo, hi - lo)
            dev.flush(0, SMALL)
        else:
            dev.crash(CrashPolicy.KEEP_ALL)
            dev.restart()
    assert opt.dirty_lines == ref.dirty_lines == 0
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.durable_read(0, SMALL) == ref.durable_read(0, SMALL)


@pytest.mark.parametrize("n", [2, 3, 32, 33, 40])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_windows_with_one_clean_line_match_the_reference(n, where):
    """A window of dirty lines with one clean line whose overlay bytes
    are stale (a crash dropped them): every read, store and flush over
    it must take that line from the media, at every window width the
    mask-integer scan and the run split handle."""
    clean = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    base = 3 * LINE
    span = n * LINE

    def pair():
        devs = NVMDevice(SMALL, seed=2), ReferenceNVMDevice(SMALL, seed=2)
        for dev in devs:
            dev.write(base, b"\x01" * span)
            dev.persist_all()
            dev.write(base, b"\x02" * span)
            dev.crash(CrashPolicy.DROP_ALL)  # the overlay still holds 0x02
            dev.restart()
            for line in range(n):
                if line != clean:
                    dev.write(base + line * LINE + 8, b"\x03" * 8)
        return devs

    opt, ref = pair()
    for addr, size in ((base, span), (base + 8, span - 16), (base - 8, span + 16)):
        assert opt.read(addr, size) == ref.read(addr, size)
    for store in (True, False):
        opt, ref = pair()
        for dev in (opt, ref):
            if store:
                dev.write(base + 20, b"\x04" * (span - 40))
            dev.flush(base + 8, span - 16)
        assert opt.dirty_lines == ref.dirty_lines
        assert opt.stats.snapshot() == ref.stats.snapshot()
        assert opt.durable_read(0, SMALL) == ref.durable_read(0, SMALL)
        assert opt.read(0, SMALL) == ref.read(0, SMALL)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_crash_resolves_far_apart_dirty_lines_like_the_reference(policy):
    """Dirty lines pages apart, partly and fully masked, one run across
    a page boundary: every policy resolves them word for word alike."""
    devs = NVMDevice(SMALL, seed=5), ReferenceNVMDevice(SMALL, seed=5)
    before = []
    for dev in devs:
        dev.write(8, b"\x01" * 8)  # page 0, one word
        dev.write(63 * LINE, b"\x02" * 2 * LINE)  # full lines 63-64: pages 0 and 1
        dev.write(130 * LINE + 20, b"\x03" * 30)  # page 2, three words
        dev.write(SMALL - LINE, b"\x04" * LINE)  # last line
        before.append(dev.overlay_fingerprint())
        dev.crash(policy, survival_prob=0.5)
    opt, ref = devs
    assert before[0] == before[1]
    assert opt.durable_read(0, SMALL) == ref.durable_read(0, SMALL)
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()


# -- Hypothesis sequences ------------------------------------------------------

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

MEDIA_OPS = ["rot", "flip", "stick", "repair", "stale"]
OPS = [
    "write", "copy", "bulk_copy", "flush", "flush_multi", "fence",
    "persist_all", "read", "crash", "schedule_crash", "clone", "fork",
    "window", "wide_write", "wide_copy", "wide_flush", "sprinkle",
]


def _data(draw, size):
    pattern = bytes(draw(st.integers(0, 255)) for _ in range(min(size, 8)))
    return (pattern * ((size + 7) // 8))[:size]


@st.composite
def op_sequences(draw, size=SMALL, media=True):
    """Op tapes for a ``size``-byte device (``media``: with media rot)."""
    nlines = size // LINE
    ops = []
    for _ in range(draw(st.integers(2, 24))):
        kind = draw(st.sampled_from(OPS + MEDIA_OPS if media else OPS))
        if kind == "write":
            addr = draw(st.integers(0, size))
            ops.append(("write", addr, _data(draw, draw(st.integers(0, min(256, size - addr))))))
        elif kind == "copy":
            n = draw(st.integers(0, 256))
            src = draw(st.integers(0, size - n))
            dst = draw(st.integers(0, size - n))
            ops.append(("copy", dst, src, n, draw(st.integers(1, 4))))
        elif kind == "bulk_copy":
            n = 64
            src = draw(st.integers(0, nlines - n)) * LINE
            dst = draw(st.integers(0, nlines - n)) * LINE
            ops.append(("copy", dst, src, n * LINE, 1))
        elif kind == "flush":
            addr = draw(st.integers(0, size - 1))
            ops.append(("flush", addr, draw(st.integers(1, min(1024, size - addr)))))
        elif kind == "flush_multi":
            ranges = []
            for _ in range(draw(st.integers(1, 4))):
                addr = draw(st.integers(0, size - 1))
                ranges.append((addr, draw(st.integers(1, min(256, size - addr)))))
            ops.append(("flush_multi", ranges))
        elif kind in ("fence", "persist_all"):
            ops.append((kind,))
        elif kind == "read":
            addr = draw(st.integers(0, size))
            ops.append(("read", addr, draw(st.integers(0, min(512, size - addr)))))
        elif kind == "crash":
            ops.append(("crash", draw(st.sampled_from(POLICIES)), draw(st.floats(0.0, 1.0))))
        elif kind == "schedule_crash":
            # a countdown small enough to fire inside the very next
            # wide/chunked op is the interesting case
            ops.append((
                "schedule_crash",
                draw(st.integers(0, 6)),
                draw(st.sampled_from(POLICIES)),
                draw(st.floats(0.0, 1.0)),
            ))
        elif kind in ("clone", "fork"):
            ops.append((kind, draw(st.integers(0, 2**16))))
        elif kind == "window":
            # exactly 1, 32 or 33 lines, whole or with ragged ends: the
            # single-line, widest mask-integer and first run-split shapes
            n = draw(st.sampled_from([1, 32, 33]))
            head = draw(st.sampled_from([0, 8, 13]))
            tail = draw(st.sampled_from([0, 8, 51]))
            addr = draw(st.integers(0, nlines - n)) * LINE + head
            length = max(0, n * LINE - head - tail)
            verb = draw(st.sampled_from(["write", "read", "flush"]))
            if verb == "write":
                ops.append(("write", addr, _data(draw, length)))
            else:
                ops.append((verb, addr, length))
        elif kind == "wide_write":
            n = draw(st.integers(33 * LINE + 1, 80 * LINE))
            addr = draw(st.integers(0, size - n))
            ops.append(("write", addr, _data(draw, n)))
        elif kind == "wide_copy":
            n = draw(st.integers(8 * LINE, 48 * LINE))
            src = draw(st.integers(0, size - n))
            dst = draw(st.integers(0, size - n))
            ops.append(("copy", dst, src, n, 1))
        elif kind == "wide_flush":
            addr = draw(st.integers(0, size - 33 * LINE - 1))
            ops.append(("flush", addr, draw(st.integers(33 * LINE + 1, size - addr))))
        elif kind == "sprinkle":
            # single words on lines up to pages apart: mixed clean/dirty
            # windows and far-apart crash lines
            stride = draw(st.integers(1, 90))
            first = draw(st.integers(0, nlines - 1))
            word = draw(st.integers(0, 7))
            lines = range(first, nlines, stride)[: draw(st.integers(2, 8))]
            ops.append(("sprinkle", [line * LINE + word * 8 for line in lines]))
        elif kind == "rot":
            ops.append((
                "rot",
                draw(st.integers(1, 4)),  # bit flips
                draw(st.integers(0, 1)),  # dead lines
                draw(st.integers(0, 2**16)),  # injection seed
            ))
        elif kind == "flip":
            ops.append(("flip", draw(st.integers(0, size - 1)), draw(st.integers(0, 7))))
        elif kind == "stick":
            ops.append((
                "stick",
                draw(st.integers(0, size - 1)),
                draw(st.integers(0, 7)),
                draw(st.integers(0, 1)),
            ))
        else:
            # repair / stale: a whole line rewritten straight on the media
            ops.append((kind, draw(st.integers(0, nlines - 1)), draw(st.integers(0, 255))))
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
        elif kind == "sprinkle":
            for addr in op[1]:
                dev.write(addr, b"\x7e" * 8)
        elif kind == "rot":
            if dev.media is None:
                dev.attach_media(seed=op[3], protect=True)
            rng = random.Random(op[3])
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
    """One op against both devices -> (the devices to go on with, one
    outcome per device).

    A ``clone`` op swaps each device for its durable clone — checked
    byte for byte against its original — and the sequence goes on *on
    the clones*, so a clone that forgot which pages it holds would show
    in every later fingerprint and clone.  A ``fork`` does the same with
    the overlay carried along (the crash checker's pre-resolution image):
    the fork must read, digest and count dirty lines like its original.
    """
    if op[0] not in ("clone", "fork"):
        return devs, [_apply(dev, op) for dev in devs]
    overlay = op[0] == "fork"
    clones = [dev.clone_durable(seed=op[1], overlay=overlay) for dev in devs]
    for dev, clone in zip(devs, clones):
        assert type(clone) is type(dev)
        assert bytes(clone._durable) == bytes(dev._durable)
        assert clone.dirty_lines == (dev.dirty_lines if overlay else 0)
        if overlay and not dev.crashed:
            assert clone.overlay_fingerprint() == dev.overlay_fingerprint()
            assert _safe_read(clone, 0, dev.size) == _safe_read(dev, 0, dev.size)
    return clones, [("ok",)] * len(devs)


def _run_against_reference(ops, seed, size):
    dev = NVMDevice(size, seed=seed)
    ref = ReferenceNVMDevice(size, seed=seed)
    for i, op in enumerate(ops):
        (dev, ref), (got, want) = _step([dev, ref], op)
        assert got == want, (i, op)
        assert dev.dirty_lines == ref.dirty_lines, (i, op)
        assert dev.stats.snapshot() == ref.stats.snapshot(), (i, op)
        _overlay_matches_masks(dev)
    # whole-device sweep, line by line so dead lines stay typed
    for addr in range(0, size, LINE):
        n = min(LINE, size - addr)
        assert _safe_read(dev, addr, n) == _safe_read(ref, addr, n)


@given(ops=op_sequences(), seed=st.integers(0, 2**16))
@SETTINGS
def test_device_matches_reference(ops, seed):
    _run_against_reference(ops, seed, SMALL)


#: not a whole number of lines: the last line is partial
RAGGED = (1 << 13) + 40


@given(ops=op_sequences(size=RAGGED, media=False), seed=st.integers(0, 2**16))
@SETTINGS
def test_ragged_device_matches_reference(ops, seed):
    _run_against_reference(ops, seed, RAGGED)


@given(ops=op_sequences(), seed=st.integers(0, 2**16))
@SETTINGS
def test_fingerprints_and_clones_match_reference(ops, seed):
    """The checker's pruning digests and forked images must not depend
    on the device class: full scan (reference) == tracked pages and
    dirty runs (device), through rot in never-written space, every crash
    policy, and clones of clones.  And the digest is honest: whatever
    changes a durable byte changes it."""
    devs = [ReferenceNVMDevice(SMALL, seed=seed), NVMDevice(SMALL, seed=seed)]
    for i, op in enumerate(ops):
        before = devs[0].overlay_fingerprint(), bytes(devs[0]._durable)
        devs, outcomes = _step(devs, op)
        assert outcomes[0] == outcomes[1], (i, op)
        digests = {dev.overlay_fingerprint() for dev in devs}
        assert len(digests) == 1, (i, op)
        assert len({bytes(dev._durable) for dev in devs}) == 1, (i, op)
        if op[0] not in ("clone", "fork") and bytes(devs[0]._durable) != before[1]:
            assert digests != {before[0]}, (i, op)


def test_scheduled_crash_fires_mid_bulk_copy_identically():
    """The countdown decrements per charged primitive, so a wide copy
    large enough to cross it must tear at the same internal point."""
    for countdown in range(0, 8):
        dev = NVMDevice(SMALL, seed=9)
        ref = ReferenceNVMDevice(SMALL, seed=9)
        for d in (dev, ref):
            d.write(0, b"\x5a" * 4096)
            d.persist_all()
            d.fence()
            d.schedule_crash(countdown, CrashPolicy.RANDOM, survival_prob=0.5)
        outcomes = []
        for d in (dev, ref):
            try:
                d.copy(4096, 0, 4096, chunks=4)
                outcomes.append("survived")
            except DeviceCrashedError:
                outcomes.append("crashed")
        assert outcomes[0] == outcomes[1], countdown
        assert dev.durable_read(0, SMALL) == ref.durable_read(0, SMALL)
        assert dev.stats.snapshot() == ref.stats.snapshot()


def _ticking_run(dev):
    """13 mutating operations: stores, a chunked copy, flushes, fences."""
    dev.write(0, b"\x5a" * 4096)
    dev.persist_all()
    dev.fence()
    dev.copy(4096, 0, 4096, chunks=4)
    for i in range(8):
        dev.write(64 * i + 8, b"\x11" * 8)
    dev.flush(0, 256)
    dev.fence()


@pytest.mark.parametrize("countdown", [0, 3, 6, 9, 12])
def test_a_callback_fork_resolves_like_the_scheduled_crash(countdown):
    """The fail-point's callback fires before the very op a scheduled
    crash would; a fork of the overlay taken there and crashed under the
    same policy and seed *is* the crashed device — and the paused device
    runs on to the end."""
    for cls in (NVMDevice, ReferenceNVMDevice):
        crashing = cls(SMALL, seed=9)
        crashing.schedule_crash(countdown, CrashPolicy.RANDOM, survival_prob=0.5)
        with pytest.raises(DeviceCrashedError):
            _ticking_run(crashing)
        paused = cls(SMALL, seed=9)
        forks = []
        paused.schedule_callback(
            countdown, lambda: forks.append(paused.clone_durable(seed=9, overlay=True))
        )
        _ticking_run(paused)
        assert len(forks) == 1 and paused.scheduled_crash_remaining() is None
        forks[0].crash(CrashPolicy.RANDOM, survival_prob=0.5)
        assert forks[0].durable_read(0, SMALL) == crashing.durable_read(0, SMALL)


def test_a_callback_can_rearm_the_one_countdown():
    dev = NVMDevice(SMALL)
    hits = []

    def action():
        hits.append(dev.stats.stores)
        if len(hits) < 3:
            dev.schedule_callback(1, action)

    dev.schedule_callback(2, action)
    for i in range(10):
        dev.write(8 * i, b"\x01" * 8)
    assert hits == [2, 4, 6]
    assert dev.scheduled_crash_remaining() is None


def test_clone_durable_leaves_the_overlay_behind():
    devs = NVMDevice(SMALL, seed=3), ReferenceNVMDevice(SMALL, seed=3)
    for dev in devs:
        dev.write(100, b"abc" * 100)
        dev.flush(100, 300)
        dev.fence()
        dev.write(5000, b"xyz" * 10)  # left dirty: must not clone
    c1, c2 = (dev.clone_durable(seed=1) for dev in devs)
    assert type(c1) is NVMDevice
    assert c1.read(0, SMALL) == c2.read(0, SMALL)
    assert c1.dirty_lines == c2.dirty_lines == 0


# -- page-scale bulk moves -----------------------------------------------------
#
# Above one page a copy and a flush run move page by page, and a chunk
# whose pages are known zero on both sides moves no bytes.  The rigs
# above use devices of a few pages and never get there; this one drives
# a 1 MiB device with copies and flushes of 17-80 pages whose ends are
# page-aligned, only line-aligned or unaligned — so a chunk can straddle
# from a zero page into a written one — over a landscape of untouched
# pages, pages written and then zeroed (which a digest forgets), dirty
# lines holding zeros and pages of data, with a media model attached.

BIG = 1 << 20


def _aligned(rng, limit):
    """An offset in ``[0, limit]``: page-aligned, line-aligned or not."""
    align = rng.choice([PAGE, LINE, 1])
    return rng.randrange(limit // align + 1) * align


def _bulk_copy(rng):
    size = 17 * PAGE + _aligned(rng, 63 * PAGE)
    src = _aligned(rng, BIG - size)
    if rng.random() < 0.3:
        # overlapping, either way round (or onto itself)
        dst = src + rng.choice([-1, 1]) * _aligned(rng, size - 1)
        dst = min(max(dst, 0), BIG - size)
    else:
        dst = _aligned(rng, BIG - size)
    return ("copy", dst, src, size, 1)


def _wide_flush(rng):
    size = 17 * PAGE + _aligned(rng, 63 * PAGE)
    return ("flush", _aligned(rng, BIG - size), size)


def _scribble(rng, lo=0, hi=BIG):
    """A few lines to three pages of data or zeros inside ``[lo, hi)``:
    left dirty, flushed, or dropped by a crash (stale overlay bytes over
    a page still zero on the media) — zeros flushed over data make a
    written page zero again."""
    size = min(_aligned(rng, 3 * PAGE) or LINE, hi - lo)
    addr = lo + _aligned(rng, hi - lo - size)
    data = rng.randbytes(size)
    kind = rng.choice(["data", "dirty_data", "zeroed", "dirty_zeros", "stale"])
    if kind == "data":
        return [("write", addr, data), ("flush", addr, size)]
    if kind == "dirty_data":
        return [("write", addr, data)]
    if kind == "zeroed":
        return [("write", addr, data), ("flush", addr, size),
                ("write", addr, bytes(size)), ("flush", addr, size)]
    if kind == "stale":
        return [("write", addr, data), ("crash", CrashPolicy.DROP_ALL, 0.0)]
    return [("write", addr, bytes(size))]


def _page_scale_tape(rng, nops):
    ops = [op for _ in range(12) for op in _scribble(rng)]
    for _ in range(nops):
        kind = rng.choice(["copy", "copy", "flush", "flush", "scribble",
                           "persist_all", "crash", "fail", "fork"])
        if kind == "copy":
            # most copies meet something written or dirty on one side
            copy = _bulk_copy(rng)
            for at in (copy[1], copy[2]):
                if rng.random() < 0.5:
                    ops.extend(_scribble(rng, at, at + copy[3]))
            ops.append(copy)
        elif kind == "flush":
            ops.append(_wide_flush(rng))
        elif kind == "scribble":
            ops.extend(_scribble(rng))
        elif kind == "persist_all":
            ops.append(("persist_all",))
        elif kind == "crash":
            ops.append(("crash", rng.choice(POLICIES), rng.random()))
        elif kind == "fail":
            # a full mirror's seeding: a bulk copy, then a flush of its
            # destination; the fail-point fires on one or the other
            copy = _bulk_copy(rng)
            ops.append((
                "fail", rng.randint(0, 1), rng.choice(POLICIES), rng.random(),
                [copy, ("flush", copy[1], copy[3])],
            ))
        else:
            ops.append(("fork", rng.randrange(1 << 16)))
    return ops


def _same_image(opt, ref):
    """Everything the checker and a scrub see of the two devices: the
    dirty-line count, counters, checksum sidecar, digest and volatile
    view now, and the image every crash policy resolves a fork to."""
    assert opt.dirty_lines == ref.dirty_lines
    _overlay_matches_masks(opt)
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.media.sidecar._crcs == ref.media.sidecar._crcs
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()
    assert opt.read(0, BIG) == ref.read(0, BIG)
    for policy in POLICIES:
        forks = [dev.clone_durable(seed=7, overlay=True) for dev in (opt, ref)]
        for fork in forks:
            fork.crash(policy, survival_prob=0.5)
        assert bytes(forks[0]._durable) == bytes(forks[1]._durable), policy
        assert forks[0].overlay_fingerprint() == forks[1].overlay_fingerprint(), policy


def _apply_big(dev, op):
    kind = op[0]
    if kind == "fail":
        _k, countdown, policy, survival, then = op
        dev.schedule_crash(countdown, policy, survival_prob=survival)
        try:
            for sub in then:
                _apply_big(dev, sub)
        except DeviceCrashedError:
            dev.restart()
            return "crashed"
        finally:
            dev.cancel_scheduled_crash()
    elif kind == "crash":
        dev.crash(op[1], survival_prob=op[2])
        dev.restart()
    else:
        _apply(dev, op)
    return "ok"


@pytest.mark.parametrize("seed", range(4))
def test_page_scale_bulk_moves_match_the_reference(seed, monkeypatch):
    # runs cross the windows a dirty-run walk scans, and with coalescing
    # a run split at one would count as two bursts
    monkeypatch.setattr(device_module, "_SCAN_PAGES", 16)
    rng = random.Random(seed)
    coalesce = bool(seed % 2)
    opt = NVMDevice(BIG, seed=seed, coalesce_flushes=coalesce)
    ref = ReferenceNVMDevice(BIG, seed=seed, coalesce_flushes=coalesce)
    for dev in (opt, ref):
        dev.attach_media(seed=0, protect=True)
    for i, op in enumerate(_page_scale_tape(rng, nops=16)):
        if op[0] == "fork":
            opt, ref = (dev.clone_durable(seed=op[1], overlay=True) for dev in (opt, ref))
        else:
            assert _apply_big(opt, op) == _apply_big(ref, op), (i, op)
        _same_image(opt, ref)


@pytest.mark.parametrize("shift", [0, LINE * 5, 7], ids=["page", "line", "unaligned"])
def test_a_chunk_straddling_into_written_data_moves_it(shift):
    """The shapes a skip that tests one page per chunk gets wrong: a
    copy whose source chunks each straddle a zero page and a written
    one, the same copy moved up and down over itself, and a flush run
    that starts off a page boundary next to a page of data."""
    opt, ref = NVMDevice(BIG, seed=1), ReferenceNVMDevice(BIG, seed=1)
    for dev in (opt, ref):
        dev.attach_media(seed=0, protect=True)
        for addr in (4 * PAGE, 9 * PAGE + LINE, 30 * PAGE - 2 * LINE):
            dev.write(addr, b"\x5a" * 3 * LINE)
        dev.persist_all()
        dev.copy(100 * PAGE, 2 * PAGE + shift, 30 * PAGE)
        dev.copy(100 * PAGE + LINE, 100 * PAGE, 30 * PAGE)
        dev.copy(100 * PAGE - shift, 100 * PAGE + LINE, 30 * PAGE)
        dev.flush(100 * PAGE - shift, 31 * PAGE)
        dev.write(150 * PAGE + shift, bytes(20 * PAGE))
        dev.write(170 * PAGE - LINE, b"\xa5" * 2 * LINE)
        dev.flush(150 * PAGE + shift, 21 * PAGE)
    _same_image(opt, ref)
    assert b"\x5a" in opt.read(100 * PAGE - shift, 31 * PAGE)  # the data did move


# -- the overlay's page buffers ------------------------------------------------
#
# The device keeps a dirty line's bytes in a buffer of its page only while
# the page holds a dirty line.  These legs aim at what that can get wrong:
# a durable byte changed under a dirty line, a dirty run split between two
# pages' buffers, and a fork taken after buffers were dropped.


def _overlay_matches_masks(dev):
    """The device's buffered pages are exactly its dirty lines' pages."""
    if type(dev) is NVMDevice:
        dirty = re.finditer(rb"[^\x00]", dev._masks)
        assert set(dev._overlay) == {m.start() * LINE // PAGE for m in dirty}


@pytest.mark.parametrize("finish", ["read", "flush", *POLICIES],
                         ids=lambda f: f if isinstance(f, str) else f.value)
def test_a_media_fault_under_a_dirty_line_matches_the_reference(finish):
    """``poke_durable`` rewrites media bytes under dirty lines, partly and
    fully masked, on two pages: a read still sees the cache, a flush
    writes the cached line over the fault, and each crash policy keeps
    the fault exactly where no surviving word lands on it."""
    devs = NVMDevice(SMALL, seed=11), ReferenceNVMDevice(SMALL, seed=11)
    for dev in devs:
        dev.write(0, b"\x01" * 3 * PAGE)
        dev.persist_all()
        dev.write(PAGE - LINE + 8, b"\x02" * 8)  # page 0, one word
        dev.write(PAGE, b"\x03" * LINE)  # page 1, whole line
        dev.write(2 * PAGE + 5 * LINE + 16, b"\x04" * 20)
        for addr in (PAGE - LINE, PAGE + 4, 2 * PAGE + 5 * LINE + 30):
            dev.poke_durable(addr, b"\xee" * 24)
    opt, ref = devs
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()
    for dev in devs:
        if finish == "read":
            continue
        if finish == "flush":
            dev.flush(PAGE - LINE, 2 * LINE)
        else:
            dev.crash(finish, survival_prob=0.5)
            dev.restart()
    _overlay_matches_masks(opt)
    assert opt.read(0, SMALL) == ref.read(0, SMALL)
    assert opt.durable_read(0, SMALL) == ref.durable_read(0, SMALL)
    assert opt.dirty_lines == ref.dirty_lines
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()


def test_a_dirty_run_across_a_page_boundary_reads_like_the_reference():
    """Lines 56-71 dirty (two of them in part), split between the
    buffers of pages 0 and 1, read through every read path: plain reads
    inside, across and around the run, a 40-line window, a declared
    read and a gather whose loads straddle the boundary."""
    devs = NVMDevice(SMALL, seed=4), ReferenceNVMDevice(SMALL, seed=4)
    for dev in devs:
        dev.write(0, bytes(range(256)) * 48)
        dev.persist_all()
        dev.write(56 * LINE, b"\x5a" * 16 * LINE)
        dev.write(60 * LINE + 8, b"\xa5" * 8)
        dev.crash(CrashPolicy.DROP_ALL)
        dev.restart()
        dev.write(56 * LINE, b"\x11" * 7 * LINE)
        dev.write(63 * LINE + 24, b"\x22" * 20)  # a partial line, page 0
        dev.write(64 * LINE + 8, b"\x33" * 8)  # a partial line, page 1
        dev.write(65 * LINE, b"\x44" * 7 * LINE)
    opt, ref = devs
    _overlay_matches_masks(opt)
    assert set(opt._overlay) == {0, 1}
    windows = [
        (56 * LINE, 16 * LINE), (63 * LINE + 30, 2 * LINE), (PAGE - 8, 16),
        (50 * LINE + 3, 40 * LINE), (40 * LINE, 48 * LINE), (60 * LINE, 5 * LINE + 1),
    ]
    for addr, size in windows:
        assert opt.read(addr, size) == ref.read(addr, size), (addr, size)
    loads = DeclaredLoads([(0, 8), (LINE - 4, 8), (2 * LINE, 64), (7 * LINE + 40, 48)])
    for addr in (60 * LINE, PAGE - 3 * LINE, PAGE - 7 * LINE - 44):
        assert opt.read_declared(addr, 8 * LINE, loads) == ref.read_declared(
            addr, 8 * LINE, loads
        )
        assert opt.read_gather(addr, loads) == ref.read_gather(addr, loads)
    strided = DeclaredLoads.strided(12, 24, LINE + 8)
    assert opt.read_gather(55 * LINE, strided) == ref.read_gather(55 * LINE, strided)
    assert opt.stats.snapshot() == ref.stats.snapshot()
    for dev in devs:
        dev.flush(62 * LINE, 3 * LINE)  # the boundary lines only
    _overlay_matches_masks(opt)
    assert opt.read(0, SMALL) == ref.read(0, SMALL)
    assert opt.durable_read(0, SMALL) == ref.durable_read(0, SMALL)


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_a_fork_after_dropped_buffers_matches_the_reference(policy):
    """Pages 1, 2, 3 and 5 hold dirty lines; flushes leave 2 and 5
    clean, which drops their buffers.  A fork with its overlay then
    reads, digests and crashes like the reference's fork, and a store on
    a dropped page afterwards starts a fresh buffer from the media."""
    devs = NVMDevice(SMALL, seed=6), ReferenceNVMDevice(SMALL, seed=6)
    for dev in devs:
        for page in (1, 2, 3):
            dev.write(page * PAGE + 7 * LINE, bytes([page]) * 3 * LINE)
        dev.write(3 * PAGE - 8, b"\x09" * 16)  # page 2's last line, page 3's first
        dev.flush(2 * PAGE, PAGE - LINE)
        dev.write(SMALL - 20, b"\x05" * 20)
        dev.flush(SMALL - LINE, LINE)
    opt, ref = devs
    _overlay_matches_masks(opt)
    assert set(opt._overlay) == {1, 2, 3}
    for dev in devs:
        dev.flush(3 * PAGE - LINE, LINE)
    assert set(opt._overlay) == {1, 3}
    forks = [dev.clone_durable(seed=2, overlay=True) for dev in devs]
    _overlay_matches_masks(forks[0])
    assert forks[0].dirty_lines == forks[1].dirty_lines == opt.dirty_lines
    assert forks[0].overlay_fingerprint() == forks[1].overlay_fingerprint()
    assert forks[0].read(0, SMALL) == forks[1].read(0, SMALL) == ref.read(0, SMALL)
    for fork in forks:
        fork.write(2 * PAGE + 7 * LINE + 4, b"\x77" * 4)
        fork.write(PAGE + 8 * LINE, b"\x78" * 8)
    _overlay_matches_masks(forks[0])
    assert forks[0].read(0, SMALL) == forks[1].read(0, SMALL)
    for fork in forks:
        fork.crash(policy, survival_prob=0.5)
    _overlay_matches_masks(forks[0])
    assert forks[0].durable_read(0, SMALL) == forks[1].durable_read(0, SMALL)
    assert opt.read(0, SMALL) == ref.read(0, SMALL)  # the originals are untouched


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_zeros_marked_onto_a_short_last_page_match_the_reference(policy):
    """A device that ends 40 bytes into a page gives that page a short
    buffer.  A copy of zeros onto zeros reaching the end marks it dirty
    without moving bytes; stores, a fork, a flush and a crash then treat
    its lines like the reference's."""
    size = 3 * PAGE + 40
    devs = NVMDevice(size, seed=8), ReferenceNVMDevice(size, seed=8)
    for dev in devs:
        dev.copy(PAGE + 40, 0, 2 * PAGE)
        dev.write(size - 3, b"\x01\x02\x03")
        dev.write(2 * PAGE + 8, b"\x04" * 8)
    opt, ref = devs
    _overlay_matches_masks(opt)
    assert set(opt._overlay) == {1, 2, 3}
    assert opt.read(0, size) == ref.read(0, size)
    assert opt.overlay_fingerprint() == ref.overlay_fingerprint()
    forks = [dev.clone_durable(seed=3, overlay=True) for dev in devs]
    for dev in (*devs, *forks):
        dev.flush(2 * PAGE, PAGE)
    for fork in forks:
        fork.crash(policy, survival_prob=0.5)
    _overlay_matches_masks(opt)
    assert opt.dirty_lines == ref.dirty_lines
    assert opt.stats.snapshot() == ref.stats.snapshot()
    assert forks[0].durable_read(0, size) == forks[1].durable_read(0, size)
    opt.persist_all()
    ref.persist_all()
    assert opt.durable_read(0, size) == ref.durable_read(0, size)
    assert not opt._overlay
