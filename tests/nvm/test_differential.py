"""Differential rig: the optimized NVMDevice vs the naive reference.

``ReferenceNVMDevice`` re-implements every data-path internal with the
straightforward per-word loops the optimized device replaced (mask
tables, single-line fast paths, bulk dirty ranges).  Driving both with
identical seeded op/crash/recovery sequences must be indistinguishable
in every observable: read results, ``NVMStats``, dirty-line counts,
post-crash durable bytes, and the crash image the checker works from —
``overlay_fingerprint`` digests and ``clone_durable`` copies, which the
reference device computes over its whole pool and the optimized one over
the pages it recorded writing (bit flips land anywhere, including in
pages nothing ever persisted to).  This is the enforcement arm of the
invariance contract in docs/INTERNALS.md.
"""

import random

import pytest

from repro.nvm import CrashPolicy, NVMDevice, ReferenceNVMDevice

DEVICE_SIZE = 1 << 16
LINE = 64
#: large line-aligned copies cross the bulk-range threshold (64 lines)
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
            # line-aligned and >= the bulk threshold
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
    opt.fingerprint_crashes = ref.fingerprint_crashes = True
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
            opt.crash(policy, survival_prob=survival)
            ref.crash(policy, survival_prob=survival)
            assert opt.last_crash_fingerprint == ref.last_crash_fingerprint
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
    """Flushing the middle of a bulk dirty range splits it correctly."""
    opt = NVMDevice(DEVICE_SIZE, seed=0)
    ref = ReferenceNVMDevice(DEVICE_SIZE, seed=0)
    for dev in (opt, ref):
        dev.write(0, bytes(range(256)) * 32)  # 8 KiB of source data
        dev.persist_all()
        dev.fence()
        dev.copy(BULK_BYTES, 0, BULK_BYTES)  # bulk range on the optimized device
    # flush a window in the middle of the bulk range, then scribble on
    # the remainders: the split halves must still be tracked as dirty
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
    """Same seed => same surviving torn words, even out of a bulk range."""
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
