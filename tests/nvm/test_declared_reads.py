"""A declared read is charged exactly as the field reads it stands in for.

``read_declared(addr, size, loads)`` makes one uncharged block read and
charges one load per declared ``(rel_off, n)``, in order, with the media
check each would have made.  :class:`ReferenceNVMDevice` implements it
as that literal loop of reads; Hypothesis searches for an overlay
state, a load list or a dead/lost line on which the device's bytes,
:class:`NVMStats` or error differ from it.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import DeviceCrashedError, OutOfBoundsError, ReproError
from repro.nvm import DeclaredLoads, NVMDevice, PmemPool, ReferenceNVMDevice

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


def test_strided_loads_are_back_to_back():
    loads = DeclaredLoads.strided(4, 32)
    assert (len(loads), loads.count, loads.nbytes) == (4, 4, 128)
    assert list(loads) == [(0, 32), (32, 32), (64, 32), (96, 32)]
    pairs = DeclaredLoads([(8, 8), (0, 16)])
    assert (pairs.count, pairs.nbytes, list(pairs)) == (2, 24, [(8, 8), (0, 16)])
