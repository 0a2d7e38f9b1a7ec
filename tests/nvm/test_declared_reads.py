"""A declared read is charged exactly as the field reads it stands in for.

``read_declared(addr, size, loads)`` makes one uncharged block read and
charges one load per declared ``(rel_off, n)``, in order, with the media
check each would have made; ``read_gather(addr, loads)`` is charged the
same and returns those loads' bytes, concatenated.
:class:`ReferenceNVMDevice` implements both as that literal loop of
reads; Hypothesis searches for an overlay state, a load list or a
dead/lost line on which the device's bytes, :class:`NVMStats` or error
differ from it.  A gather reads a clean load on a page the device never
wrote as zeros without touching the page, so the record of written
pages — which a digest prunes of pages that hold zeros again — is
checked here too.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import (
    BothCopiesLostError,
    DeviceCrashedError,
    MediaError,
    OutOfBoundsError,
    ReproError,
)
from repro.nvm import CrashPolicy, DeclaredLoads, NVMDevice, PmemPool, ReferenceNVMDevice
from repro.nvm.device import PAGE

DEVICE_SIZE = 8192
LINE = 64

DEVICES = [NVMDevice, ReferenceNVMDevice]

SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def scenarios(draw):
    writes = []
    for _ in range(draw(st.integers(0, 8))):
        addr = draw(st.integers(0, DEVICE_SIZE - 1))
        size = draw(st.integers(1, min(300, DEVICE_SIZE - addr)))
        writes.append((addr, bytes([draw(st.integers(1, 255))]) * size,
                       draw(st.booleans())))
    addr = draw(st.integers(0, DEVICE_SIZE - 1))
    size = draw(st.integers(0, min(700, DEVICE_SIZE - addr)))
    if draw(st.booleans()) and size:
        n = draw(st.integers(1, 16))
        loads = DeclaredLoads.strided(size // n, n) if size >= n else DeclaredLoads(())
    else:
        pairs = []
        for _ in range(draw(st.integers(0, 6))):
            rel = draw(st.integers(0, max(size - 1, 0)))
            pairs.append((rel, draw(st.integers(1, max(size - rel, 1)))))
        loads = DeclaredLoads(pairs)
    lines = range(addr // LINE, (addr + max(size, 1) - 1) // LINE + 1)
    dead = draw(st.lists(st.sampled_from(lines), max_size=2))
    lost = draw(st.lists(st.sampled_from(lines), max_size=1))
    return writes, addr, size, loads, dead, lost


def _outcome(device, addr, size, loads):
    try:
        return "ok", device.read_declared(addr, size, loads)
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _gathered(device, addr, loads):
    try:
        return "ok", device.read_gather(addr, loads)
    except ReproError as exc:
        return type(exc).__name__, str(exc)


def _prepared(cls, writes, dead, lost):
    device = cls(DEVICE_SIZE, seed=0)
    for addr, data, flush in writes:
        device.write(addr, data)
        if flush:
            device.flush(addr, len(data))
    if dead or lost:
        media = device.attach_media(protect=False)
        for line in dead:
            media.kill_line(line)
        for line in lost:
            media.mark_lost(line)
    return device


@given(scenario=scenarios())
@SETTINGS
def test_device_charges_like_the_reference_loop(scenario):
    writes, addr, size, loads, dead, lost = scenario
    ref = _prepared(ReferenceNVMDevice, writes, dead, lost)
    dev = _prepared(NVMDevice, writes, dead, lost)
    got = _outcome(dev, addr, size, loads)
    assert got == _outcome(ref, addr, size, loads)
    assert dev.stats.snapshot() == ref.stats.snapshot()
    if got[0] == "ok":
        # the block is what a plain read returns, whatever was charged
        assert got[1] == bytes(ref._peek(addr, size))


@pytest.mark.parametrize("cls", DEVICES, ids=lambda c: c.__name__)
def test_the_charge_is_the_loads_not_the_block(cls):
    device = cls(DEVICE_SIZE)
    device.write(100, b"\x07" * 40)
    block = device.read_declared(64, 128, DeclaredLoads([(0, 8), (40, 16), (0, 8)]))
    assert block == device.read(64, 128)
    stats = device.stats
    assert (stats.loads, stats.load_bytes) == (3 + 1, 32 + 128)


@pytest.mark.parametrize("cls", DEVICES, ids=lambda c: c.__name__)
def test_failures_charge_what_the_field_reads_charged_first(cls):
    loads = DeclaredLoads([(0, 8), (16, 8), (40, 16)])
    device = cls(DEVICE_SIZE)
    # past the end: the loads inside the device are charged, then the
    # first one outside raises with its own bounds
    with pytest.raises(OutOfBoundsError, match=rf"\[{DEVICE_SIZE + 16}, "):
        device.read_declared(DEVICE_SIZE - 24, 56, loads)
    assert (device.stats.loads, device.stats.load_bytes) == (2, 16)
    device.crash()
    with pytest.raises(DeviceCrashedError):
        device.read_declared(0, 56, loads)
    assert device.stats.loads == 2


def test_region_forward_fails_field_by_field():
    device = NVMDevice(1 << 20)
    pool = PmemPool.create(device)
    region = pool.create_region("r", 4096)
    before = device.stats.snapshot()
    assert region.read_declared(64, 32, DeclaredLoads([(8, 8)])) == bytes(32)
    with pytest.raises(OutOfBoundsError, match=r"region 'r': access \[4104, 4112\)"):
        region.read_declared(4080, 40, DeclaredLoads([(0, 8), (8, 8), (24, 8)]))
    delta = device.stats.delta(before)
    assert (delta.loads, delta.load_bytes) == (3, 24)
    # a gather forwards and fails the same way
    assert region.read_gather(64, DeclaredLoads([(8, 8), (128, 8)])) == bytes(16)
    with pytest.raises(OutOfBoundsError, match=r"region 'r': access \[4104, 4112\)"):
        region.read_gather(4080, DeclaredLoads([(0, 8), (8, 8), (24, 8)]))
    delta = device.stats.delta(before)
    assert (delta.loads, delta.load_bytes) == (3 + 4, 24 + 32)


def test_strided_loads_are_back_to_back():
    loads = DeclaredLoads.strided(4, 32)
    assert (len(loads), loads.count, loads.nbytes, loads.span) == (4, 4, 128, 128)
    assert list(loads) == [(0, 32), (32, 32), (64, 32), (96, 32)]
    pairs = DeclaredLoads([(8, 8), (0, 16)])
    assert (pairs.count, pairs.nbytes, list(pairs)) == (2, 24, [(8, 8), (0, 16)])
    assert pairs.span == 16
    # or spaced out (a gather's slot headers), still with no pair per load
    spaced = DeclaredLoads.strided(3, 64, 8256)
    assert (spaced.count, spaced.nbytes, spaced.span) == (3, 192, 2 * 8256 + 64)
    assert list(spaced) == [(0, 64), (8256, 64), (16512, 64)]
    assert DeclaredLoads.strided(0, 64, 8256).span == 0


@given(scenario=scenarios(), gap=st.sampled_from([0, 64, PAGE, PAGE + 8]))
@SETTINGS
def test_gather_charges_like_the_reference_loop(scenario, gap):
    writes, addr, size, loads, dead, lost = scenario
    # the declared loads, spread ``gap`` bytes apart: some land on pages
    # nothing ever wrote, some past the end of the device
    spread = DeclaredLoads((rel + i * gap, n) for i, (rel, n) in enumerate(loads))
    ref = _prepared(ReferenceNVMDevice, writes, dead, lost)
    dev = _prepared(NVMDevice, writes, dead, lost)
    got = _gathered(dev, addr, spread)
    assert got == _gathered(ref, addr, spread)
    assert dev.stats.snapshot() == ref.stats.snapshot()
    if got[0] == "ok":
        assert got[1] == b"".join(ref._peek(addr + rel, n) for rel, n in spread)


class _Recording:
    """A durable store that records every slice taken of it."""

    def __init__(self, store):
        self.store = store
        self.slices = []

    def __getitem__(self, key):
        self.slices.append(key)
        return self.store[key]

    def __setitem__(self, key, value):
        self.store[key] = value


def test_a_clean_unwritten_page_gathers_zeros_without_a_look():
    device = NVMDevice(4 * PAGE)
    device.write(PAGE + 8, b"\x11" * 8)
    device.flush(PAGE, 64)
    device.write(3 * PAGE + 64, b"\x22" * 16)  # dirty, never flushed
    touched = set(device._touched)
    device._durable = recording = _Recording(device._durable)
    loads = DeclaredLoads.strided(4, 64, PAGE)
    got = device.read_gather(0, loads)
    assert got[:64] == bytes(64)
    assert got[64:128] == bytes(8) + b"\x11" * 8 + bytes(48)
    assert got[128:192] == bytes(64)
    # a dirty line on a page nothing wrote durably reads its overlay
    device2 = NVMDevice(4 * PAGE)
    device2.write(3 * PAGE + 8, b"\x22" * 16)
    assert device2.read_gather(3 * PAGE, DeclaredLoads([(0, 64)])) == (
        bytes(8) + b"\x22" * 16 + bytes(40)
    )
    assert device2._touched == set()
    # only the written page was looked at, and nothing was recorded
    assert recording.slices == [slice(PAGE, PAGE + 64)]
    assert device._touched == touched
    assert (device.stats.loads, device.stats.load_bytes) == (4, 256)


@pytest.mark.parametrize("cls", DEVICES, ids=lambda c: c.__name__)
def test_gather_failures_charge_what_the_field_reads_charged_first(cls):
    loads = DeclaredLoads([(0, 8), (PAGE, 8), (2 * PAGE, 16)])
    device = cls(2 * PAGE + 8)
    with pytest.raises(OutOfBoundsError, match=rf"\[{2 * PAGE}, {2 * PAGE + 16}\)"):
        device.read_gather(0, loads)
    assert (device.stats.loads, device.stats.load_bytes) == (2, 16)
    media = device.attach_media(protect=False)
    media.kill_line(PAGE // LINE)
    with pytest.raises(MediaError):
        device.read_gather(0, DeclaredLoads([(0, 8), (PAGE, 8)]))
    assert (device.stats.loads, device.stats.load_bytes) == (4, 32)
    media.mark_lost(0)
    with pytest.raises(BothCopiesLostError):
        device.read_gather(0, DeclaredLoads([(0, 8), (PAGE, 8)]))
    assert device.stats.loads == 5
    device.crash()
    with pytest.raises(DeviceCrashedError):
        device.read_gather(0, DeclaredLoads([(0, 8)]))
    assert device.stats.loads == 5


@pytest.mark.parametrize("policy", ["flush", "crash"])
def test_a_page_zeroed_again_is_forgotten_until_rewritten(policy):
    devices = [NVMDevice(4 * PAGE, seed=1), ReferenceNVMDevice(4 * PAGE, seed=1)]
    for device in devices:
        device.write(PAGE + 64, b"\x33" * 64)
        device.flush(PAGE + 64, 64)
        device.write(PAGE + 64, bytes(64))
        device.flush(PAGE + 64, 64)
    dev, ref = devices
    assert 1 in dev._touched  # page 1
    assert dev.overlay_fingerprint() == ref.overlay_fingerprint()
    assert dev._touched == set()  # all-zero again: forgotten
    assert dev.read_gather(PAGE, DeclaredLoads([(64, 8)])) == bytes(8)
    for device in devices:
        device.write(PAGE + 72, b"\x44" * 8)
        if policy == "flush":
            device.flush(PAGE + 72, 8)
        else:
            device.crash(CrashPolicy.KEEP_ALL)
            device.restart()
    assert dev._touched == {1}
    assert dev.overlay_fingerprint() == ref.overlay_fingerprint()
    assert dev.read_gather(PAGE, DeclaredLoads([(64, 16)])) == bytes(8) + b"\x44" * 8
    clone = dev.clone_durable(seed=0)
    assert clone._touched == {1}
    assert clone.overlay_fingerprint() == ref.clone_durable(seed=0).overlay_fingerprint()
