"""What the device keeps resident: the media, the mask bytes, and the
current bytes of dirty lines only while they are dirty.

The volatile overlay is a dict from each 4 KiB page that holds a dirty
line to that page's buffer.  A page gets one at its first dirty line
and loses it when a flush, a crash or ``persist_all`` leaves it clean,
so a run's overlay follows its working set, not every page it ever
wrote.  These tests pin that from three sides: the overlay's pages are
exactly the dirty lines' pages at every mutating operation inside real
transactions and after a drain; dirtying and flushing 8 MiB of lines
costs one resident copy of them (the media's), not two; and building a
device maps one lazily-zeroed store of its size plus its mask bytes,
and nothing else ever maps anything.
"""

import re

from repro import ExecutionContext
from repro.nvm import CrashPolicy, NVMDevice
from repro.nvm import device as device_module
from repro.nvm.device import PAGE
from tests.fresh_process import run_probe

LINE = 64
_DIRTY = re.compile(rb"[^\x00]")


def dirty_pages(dev):
    """The pages of ``dev``'s dirty lines, from its mask bytes."""
    return {m.start() * LINE // PAGE for m in _DIRTY.finditer(dev._masks)}


def buffered_pages(dev):
    return set(dev._overlay)


def test_a_drained_run_keeps_no_clean_page_buffered():
    """A few thousand distinct-key updates write many more pages than
    stay dirty; once the backup drain is done, no clean page keeps a
    buffer (the flat overlay kept every one of them resident)."""
    ctx = ExecutionContext.create("kamino-simple", value_size=64, heap_mb=4)
    kv = ctx.kv
    for key in range(3000):
        kv.put(key, bytes([key & 0xFF | 1]) * 64)
    kv.drain()
    dev = ctx.device
    assert buffered_pages(dev) == dirty_pages(dev)
    assert len(buffered_pages(dev)) * 10 < len(dev._touched)


def test_inside_transactions_the_buffered_pages_are_the_dirty_lines_pages():
    """Paused before every fifth mutating device operation of a stretch
    of puts, updates and deletes, with the backup syncing
    asynchronously, the buffered pages are exactly the pages holding a
    dirty line."""
    ctx = ExecutionContext.create("kamino-simple", value_size=64, heap_mb=1)
    kv = ctx.kv
    for key in range(200):
        kv.put(key, b"\x01" * 64)
    dev = ctx.device
    seen = []

    def check():
        seen.append(dev.dirty_lines)
        assert buffered_pages(dev) == dirty_pages(dev)
        dev.schedule_callback(4, check)

    dev.schedule_callback(0, check)
    for key in range(0, 300, 3):
        kv.put(key, bytes([key & 0xFF | 1]) * 64)
        if key % 5 == 0:
            kv.delete(key)
    dev.cancel_scheduled_crash()
    assert len(seen) > 600 and max(seen) > 0
    kv.drain()
    dev.persist_all()
    assert dev.dirty_lines == 0 and not dev._overlay


def test_flush_crash_and_persist_all_drop_the_pages_they_clean():
    dev = NVMDevice(1 << 20)
    dev.write(3 * PAGE + 8, b"\x01" * 8)
    dev.write(3 * PAGE + 20 * LINE, b"\x02" * LINE)
    dev.write(5 * PAGE - LINE, b"\x03" * 2 * LINE)  # a line on pages 4 and 5
    assert buffered_pages(dev) == {3, 4, 5}
    dev.flush(3 * PAGE, LINE)  # page 3 still holds line 20
    assert buffered_pages(dev) == {3, 4, 5}
    dev.flush(5 * PAGE - LINE, 2 * LINE)
    assert buffered_pages(dev) == {3}
    dev.write(9 * PAGE, bytes(range(256)) * 40)  # wide: pages 9-11
    assert buffered_pages(dev) == dirty_pages(dev) == {3, 9, 10, 11}
    dev.flush(9 * PAGE, 6 * PAGE)
    assert buffered_pages(dev) == {3}
    dev.copy(20 * PAGE, 0, 40 * PAGE)  # zeros onto zeros: shared zero pages
    assert buffered_pages(dev) == dirty_pages(dev) == {3} | set(range(20, 60))
    fork = dev.clone_durable(overlay=True)
    assert buffered_pages(fork) == buffered_pages(dev)
    assert fork.read(0, 1 << 20) == dev.read(0, 1 << 20)
    fork.crash(CrashPolicy.KEEP_ALL)
    assert not fork._overlay
    dev.persist_all()
    assert not dev._overlay and dev.dirty_lines == 0


_DIRTY_AND_FLUSH = """
import resource
from repro.nvm import NVMDevice
MIB = 1 << 20
CHUNK = 256 << 10
data = bytes(range(1, 256)) * (CHUNK // 255) + b"\\x01" * (CHUNK % 255)
dev = NVMDevice(64 * MIB)

def dirty_and_flush(lo, hi):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for addr in range(lo, hi, CHUNK):
        dev.write(addr, data)
        dev.flush(addr, CHUNK)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)

# lift the resident set past any high-water mark the imports left, so
# the next region's growth is its own
dirty_and_flush(32 * MIB, 64 * MIB)
dirty_and_flush(0, 8 * MIB)
"""


def test_dirtying_and_flushing_8_mib_costs_one_copy_of_it():
    """A fresh process (``ru_maxrss`` is a high-water mark) dirties and
    flushes 8 MiB of lines, 256 KiB at a time.  The media must hold them
    (8 MiB); an overlay that kept every page it cached would double
    that."""
    lift, grown = (int(kib) / 1024 for kib in run_probe(_DIRTY_AND_FLUSH).split())
    assert lift > 0, "the import's high-water mark hides the probe"
    assert 7.5 < grown < 12, f"ru_maxrss grew {grown:.1f} MiB"


def test_a_device_maps_its_media_and_mask_bytes_once(monkeypatch):
    """Building a device makes exactly two lazily-zeroed stores: the
    media, of the device's size, and one mask byte per line.  Nothing
    after that — stores, copies, flushes, crashes, digests — maps any."""
    made = []

    def recording(n):
        made.append(n)
        return lazy_zeros(n)

    lazy_zeros = device_module.lazy_zeros
    monkeypatch.setattr(device_module, "lazy_zeros", recording)
    size = (1 << 20) + 40
    dev = NVMDevice(size, seed=1)
    lines = (size + LINE - 1) // LINE
    assert made == [size, lines]
    assert dev._durable.nbytes == size and dev._masks.nbytes == lines
    stores = [v for v in vars(dev).values() if isinstance(v, memoryview)]
    assert sorted(v.nbytes for v in stores) == [lines, size]
    for i in range(200):
        dev.write(i * 4999 % (size - 300), bytes([i | 1]) * (1 + i % 300))
        if i % 7 == 0:
            dev.copy((i * 8191) % (size - 3 * PAGE), (i * 127) % (size - 3 * PAGE), 2 * PAGE + i)
        if i % 11 == 0:
            dev.flush(0, size)
        if i % 50 == 49:
            dev.overlay_fingerprint()
            dev.crash(CrashPolicy.RANDOM)
            dev.restart()
    dev.persist_all()
    assert made == [size, lines]
