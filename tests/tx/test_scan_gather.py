"""The gathered intent-log scan is the header-by-header walk.

:meth:`LogManager.scan` reads every slot header in one gather, then each
live slot's entries; ``fieldwise_scan.py`` keeps the walk it replaced
(one read per header, each followed by that slot's entries).  Hypothesis
rots headers and entries — torn state words, stale txids, bad entry
checks, ``n_entries`` past ``max_entries``, txids at or above 2**63,
bytes left unflushed, dead and lost lines — and demands, on both device
classes, the same records, ``max_txid`` and :class:`NVMStats` from both
scans, and a typed :class:`MediaError` from one exactly when the other
raises one.  Only *which* bad line an error names may differ: the gather
checks every header before any entry.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import MediaError
from repro.nvm import NVMDevice, PmemPool, ReferenceNVMDevice
from repro.tx import IntentKind, LogManager
from repro.tx.intent_log import (
    _ENTRY,
    _SLOT_HDR,
    _SLOT_HDR_SIZE,
    ENTRY_SIZE,
    LOG_MAGIC,
    _entry_check,
)

from .fieldwise_scan import fieldwise_scan

LINE = 64
DEVICES = [NVMDevice, ReferenceNVMDevice]

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

_TXIDS = st.one_of(
    st.integers(0, 40),
    st.integers(1 << 63, (1 << 64) - 1),  # rot: above any txid ever issued
)


@st.composite
def _entry(draw, txid):
    off = draw(st.integers(0, 1 << 20))
    size = draw(st.sampled_from([0, 8, 64, 300]))
    kind = draw(st.sampled_from([1, 2, 3]))
    data_off = draw(st.sampled_from([0, 128]))
    check = draw(st.sampled_from(["good", "stale", "bad"]))
    if check == "good":
        value = _entry_check(off, size, kind, data_off, txid)
    elif check == "stale":  # a previous owner's entry
        value = _entry_check(off, size, kind, data_off, txid - 1)
    else:
        value = draw(st.integers(0, (1 << 64) - 1))
    return _ENTRY.pack(off, size, kind, 0, data_off, value)


@st.composite
def _slot(draw, max_entries):
    if draw(st.booleans()):
        return None  # never written
    magic = draw(st.sampled_from([LOG_MAGIC, LOG_MAGIC, 0x0BAD]))
    state = draw(st.one_of(st.integers(0, 3), st.integers(4, (1 << 32) - 1)))  # torn word
    txid = draw(_TXIDS)
    n_entries = draw(st.one_of(st.integers(0, max_entries), st.integers(max_entries + 1, 1 << 20)))
    entries = [
        draw(_entry(txid))
        for _ in range(draw(st.integers(0, min(n_entries, max_entries, 4))))
    ]
    header = _SLOT_HDR.pack(magic, state, txid, n_entries, 0)
    return header, entries, draw(st.booleans())


@st.composite
def logs(draw):
    n_slots = draw(st.integers(1, 6))
    max_entries = draw(st.sampled_from([4, 128]))  # slots within one page, or a page apart
    slots = [draw(_slot(max_entries)) for _ in range(n_slots)]
    lines = [(i, j) for i in range(n_slots) for j in range(3)]
    dead = draw(st.lists(st.sampled_from(lines), max_size=2))
    lost = draw(st.lists(st.sampled_from(lines), max_size=1))
    return n_slots, max_entries, slots, dead, lost


def _prepared(cls, n_slots, max_entries, slots, dead, lost):
    device = cls(1 << 20, seed=0)
    pool = PmemPool.create(device)
    region = pool.create_region("intent_log", LogManager.required_size(n_slots, max_entries))
    log = LogManager(region, n_slots, max_entries)
    log.format()
    for index, slot in enumerate(slots):
        if slot is None:
            continue
        header, entries, flush = slot
        base = log.slot_offset(index)
        raw = header + b"".join(entries)
        region.write(base, raw)
        if flush:
            region.flush(base, len(raw))
    if dead or lost:
        media = device.attach_media(protect=False)
        line_of = lambda i, j: (region.offset + log.slot_offset(i)) // LINE + j  # noqa: E731
        for i, j in dead:
            media.kill_line(line_of(i, j))
        for i, j in lost:
            media.mark_lost(line_of(i, j))
    return log, device


def _scanned(log, device):
    before = device.stats.snapshot()
    try:
        outcome = ("ok", log.scan(), log.max_txid)
    except MediaError as exc:
        outcome = ("raised", type(exc).__name__, str(exc))
    return outcome, device.stats.delta(before).snapshot()


@given(case=logs())
@SETTINGS
def test_gather_scan_is_the_fieldwise_walk(case):
    n_slots, max_entries, slots, dead, lost = case
    gathered = {}
    for cls in DEVICES:
        log, device = _prepared(cls, n_slots, max_entries, slots, dead, lost)
        gathered[cls] = new, new_stats = _scanned(log, device)
        with fieldwise_scan():
            old, old_stats = _scanned(log, device)
        assert new[0] == old[0]
        if new[0] == "ok":
            assert new == old
            assert new_stats == old_stats
    # the gather itself is charged and fails alike on both devices
    assert gathered[NVMDevice] == gathered[ReferenceNVMDevice]


def test_scan_gathers_every_header_in_one_read(monkeypatch):
    calls = []
    for name in ("read", "read_gather", "read_declared"):
        real = getattr(NVMDevice, name)

        def counted(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(NVMDevice, name, counted)
    device = NVMDevice(1 << 20)
    pool = PmemPool.create(device)
    region = pool.create_region("intent_log", LogManager.required_size(64, 128))
    log = LogManager(region)
    log.format()
    slot = log.acquire(txid=5)
    slot.append(4096, 64, IntentKind.WRITE)
    slot.make_durable()
    calls.clear()
    before = device.stats.snapshot()
    [record] = log.scan()
    assert (record.txid, len(record.entries)) == (5, 1)
    # one gather of the 64 headers, then the live slot's one entry
    assert calls == ["read_gather", "read"]
    delta = device.stats.delta(before)
    assert (delta.loads, delta.load_bytes) == (64 + 1, 64 * _SLOT_HDR_SIZE + ENTRY_SIZE)
