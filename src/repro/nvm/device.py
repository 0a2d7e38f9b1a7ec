"""Simulated byte-addressable non-volatile memory device.

The device models the hardware contract Kamino-Tx is built on:

* CPU stores land in a **volatile cache-line overlay**, not on the media.
* A line becomes durable only when explicitly flushed (``clwb`` +
  ``sfence``), modelled by :meth:`NVMDevice.flush` / :meth:`NVMDevice.fence`.
* On a **crash**, unflushed lines are lost — except that the cache may have
  evicted any of them at any earlier moment, so each dirty 8-byte word
  independently may or may not have reached the media.  This reproduces the
  torn-write / reordering failure window that the paper's recovery protocol
  must tolerate.

Python cannot control real persistence ordering (the reason this paper is
hard to reproduce natively), so all durability semantics in this repository
flow through this class; see DESIGN.md §1 for the substitution argument.

Hot-path implementation notes (the *invariance contract*, see
``docs/INTERNALS.md`` §8): every figure benchmark funnels millions of
operations through this class, so the data path is written for CPython
speed, in the standard library only.  The durable media is one flat
byte store of the device's size, and each cache line has one dirty-word
mask byte (0 == clean).  The volatile overlay holds a dirty line's
current bytes only while it is dirty: a dict maps each 4 KiB page that
holds a dirty line to a buffer of that page, created at the page's
first dirty line and dropped when a flush, a crash or
:meth:`NVMDevice.persist_all` leaves the page clean (one test of its 64
mask bytes), so the overlay costs the working set, not the device.  A
few dropped buffers are kept for the next pages to be dirtied, so a
page dirtied and flushed once per transaction allocates nothing.  A
sub-line access — the dominant case for 64-byte objects — is one
mask-byte test, one dict lookup and one ``memoryview`` slice; a window
of up to 32 lines is classified by one combined-integer scan of its
mask bytes; a wider window is split into runs of dirty lines and moves
one slice per run and page.  Copies have a dedicated internal path that
never touches the load/store counters.  No path but construction maps,
unmaps or advises memory.

The crash checker builds, crashes, fingerprints and clones thousands of
devices per sweep, so those cost the lines a run wrote rather than the
pool: the media and the mask bytes are lazily-zeroed mappings
(:func:`lazy_zeros`), every persist path records the 4 KiB pages it
writes (a digest forgets the recorded pages that hold zeros again), and
:meth:`NVMDevice.crash`, :meth:`NVMDevice.persist_all`,
:meth:`NVMDevice.overlay_fingerprint`, :meth:`NVMDevice.clone_durable`
and :meth:`NVMDevice.read_gather` visit only the recorded pages and the
overlay's.  The two bulk moves follow the same rule: a copy, and a
flush run, wider than a page move page by page, and a chunk whose pages
are known zero on both sides moves no bytes — only its mask bytes are
set or cleared.  For a copy that is every source page it overlaps never
written and holding no dirty line, and its destination page never
written and holding no dirty line (its lines are then dirty zeros, and
the page's overlay is one shared read-only zero page until a store
lands on it); for a flush run, its page never written and its overlay
lines all zero.  Seeding a fresh full mirror (a heap's worth of zeros)
therefore costs its mask bytes, not two heaps of resident pages; the
page-scale leg of the differential tests holds these moves to the
reference.
None of this may be visible in simulated results: durable bytes,
:class:`~repro.nvm.stats.NVMStats`, and crash-surviving state must be
bit-identical to the naive :class:`~repro.nvm.reference.ReferenceNVMDevice`
(a per-line dict that also hashes and copies its whole pool), which the
differential property tests enforce.
"""

from __future__ import annotations

import hashlib
import mmap
import random
import struct
import threading
from collections import deque
from enum import Enum
from itertools import repeat
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import DeviceCrashedError, OutOfBoundsError
from .latency import CACHE_LINE, WORD, NVDIMM, LatencyModel
from .stats import NVMStats

_WORDS_PER_LINE = CACHE_LINE // WORD
_FULL_MASK = (1 << _WORDS_PER_LINE) - 1

_LINE_SHIFT = CACHE_LINE.bit_length() - 1  # 6
_LINE_MASK = CACHE_LINE - 1  # 63
_WORD_SHIFT = WORD.bit_length() - 1  # 3
assert 1 << _LINE_SHIFT == CACHE_LINE and 1 << _WORD_SHIFT == WORD

#: _SPAN_MASKS[first_word][last_word] — dirty-word bitmask covering the
#: inclusive word span, precomputed so the store path never loops per word.
_SPAN_MASKS = [
    [
        sum(1 << w for w in range(fw, lw + 1)) if lw >= fw else 0
        for lw in range(_WORDS_PER_LINE)
    ]
    for fw in range(_WORDS_PER_LINE)
]

#: windows up to this many lines are classified by one combined-integer
#: scan of their mask bytes — every KV-value-sized read, store and flush
#: (a 1 KB value is 16 lines)
_SWAR_LINES = 32

#: SWAR constants for an O(1) "any zero byte in the low n bytes" test on
#: a combined little-endian mask integer: a window of n lines is fully
#: dirty iff none of its n mask bytes is zero, i.e.
#: ``(x - LOW[n]) & ~x & HIGH[n] == 0``
_SWAR_LOW = [int.from_bytes(b"\x01" * n, "little") for n in range(_SWAR_LINES + 1)]
_SWAR_HIGH = [int.from_bytes(b"\x80" * n, "little") for n in range(_SWAR_LINES + 1)]

#: preallocated mask-byte runs, so clearing / fully-dirtying a small
#: window is one slice store with no per-call bytes allocation
_ZEROS = [bytes(n) for n in range(_SWAR_LINES + 1)]
_FULLS = [bytes([_FULL_MASK]) * n for n in range(_SWAR_LINES + 1)]

#: ``bytes.translate`` table mapping a mask byte to a 0/1 dirty flag, so
#: the next dirty and the next clean line are each one ``find``
_DIRTY_FLAG = bytes(1) + b"\x01" * 255


def _partial_lines(first: int, n: int, combined: int) -> List[int]:
    """Lines of the ``n``-line window at ``first`` that are dirty but not
    in every word, read from ``combined`` (the window's mask bytes as one
    little-endian integer)."""
    return [first + i for i in range(n) if 0 < (combined >> (i << 3)) & 0xFF != _FULL_MASK]

#: granularity at which a device remembers which durable bytes it ever
#: wrote (the host page size: an untouched page of a lazily-zeroed store
#: is never resident, see :func:`lazy_zeros`)
PAGE = 4096
_PAGE_SHIFT = PAGE.bit_length() - 1
_PAGE_MASK = PAGE - 1
_PAGE_LINE_SHIFT = _PAGE_SHIFT - _LINE_SHIFT  # line index -> page index
_PAGE_LINES = PAGE >> _LINE_SHIFT  # mask bytes per page
_ZERO_PAGE = bytes(PAGE)
#: the overlay of a page whose dirty lines all hold zeros and that no
#: store reached yet (see :meth:`NVMDevice._mark`); read-only, so a
#: store that forgot to give the page a buffer of its own raises
_ZERO_VIEW = memoryview(_ZERO_PAGE)
assert 1 << _PAGE_SHIFT == PAGE

#: page buffers a device keeps for reuse once their pages come clean, so
#: pages dirtied and flushed over and over allocate nothing
_SPARE_BUFFERS = 32

#: the widest window of mask bytes a walk for dirty-line runs copies at
#: once (1 MiB of device), so a run over a whole mirror costs no
#: pool-sized buffer
_SCAN_PAGES = 256


def lazy_zeros(n: int) -> mmap.mmap:
    """``n`` writable zero bytes that cost nothing until they are written.

    A *private* anonymous mapping: creation is O(1), a page that was
    never written is never resident, and reading one maps the shared
    zero page instead of allocating.  (Python's default
    ``mmap.mmap(-1, n)`` is *shared* anonymous memory, where a mere read
    allocates a real page.)  A simulated pool is mostly untouched space,
    so this is what keeps constructing, cloning and dropping a device
    proportional to the lines a run wrote, not to the pool.  A device
    makes two, when it is built: its media and its mask bytes.
    """
    return mmap.mmap(-1, n, access=mmap.ACCESS_COPY)


def crash_digest(
    pages: Iterable[Tuple[int, bytes]],
    lines: Iterable[Tuple[int, int, object]],
    media=None,
) -> str:
    """The crash-state fingerprint — its one definition, for every device.

    ``pages`` are the ``(page index, bytes)`` of every durable page that
    is not all-zero, ascending; ``lines`` are the ``(line, dirty-word
    mask, line bytes)`` of every unflushed cache line, ascending.  The
    digest is therefore a pure function of *(durable bytes, volatile
    overlay, media fault maps)*: how the state was reached — which pages
    were ever written, whether a dirty line arrived by a store or a
    copy — does not enter it, so a device that tracks the pages it wrote
    and a device that scans its whole pool compute the same value.
    """
    digest = hashlib.sha1()
    update = digest.update
    pack = struct.pack
    for page, data in pages:
        update(pack("<Q", page))
        update(data)
    update(b"overlay")
    for line, mask, data in lines:
        update(pack("<QQ", line, mask))
        update(data)
    if media is not None:
        # equal bytes with different dead/stuck maps are different
        # crash states (one read raises, the other doesn't)
        update(media.fingerprint_token())
    return digest.hexdigest()


class DeclaredLoads:
    """The field loads one declared read is charged as.

    Iterating yields ``(rel_off, n)`` pairs in program order, offsets
    (non-negative) relative to the read's address: what the media checks
    and the reference device walk.  ``count`` and ``nbytes`` are their
    totals, so a device with nothing to check per load charges them in
    two additions; ``span`` is the end of the furthest load, what a
    gather bounds-checks.  Build one per call site once and reuse it.
    """

    __slots__ = ("_pairs", "_n", "_stride", "count", "nbytes", "span")

    def __init__(self, pairs: Iterable[Tuple[int, int]]):
        self._pairs: Optional[Tuple[Tuple[int, int], ...]] = tuple(pairs)
        self._n = self._stride = 0
        self.count = len(self._pairs)
        self.nbytes = sum(n for _off, n in self._pairs)
        self.span = max((off + n for off, n in self._pairs), default=0)

    @classmethod
    def strided(cls, count: int, n: int, stride: Optional[int] = None) -> "DeclaredLoads":
        """``count`` loads of ``n`` bytes, one every ``stride`` bytes
        (default ``n``: back to back, a table walk), with no pair built
        per load unless something iterates them."""
        loads = cls(())
        loads._pairs = None
        loads._n = n
        loads._stride = n if stride is None else stride
        loads.count = count
        loads.nbytes = count * n
        loads.span = (count - 1) * loads._stride + n if count else 0
        return loads

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        if self._pairs is not None:
            return iter(self._pairs)
        return zip(range(0, self.count * self._stride, self._stride), repeat(self._n))

    def __len__(self) -> int:
        return self.count


class CrashPolicy(Enum):
    """What happens to unflushed dirty words at crash time.

    ``DROP_ALL`` — no unflushed data survives (cache never evicted).
    ``KEEP_ALL`` — everything survives (cache evicted everything just
    before power loss); equivalent to eADR platforms.
    ``RANDOM`` — each dirty 8-byte word survives independently with a
    configurable probability; the adversarial case recovery must handle.
    """

    DROP_ALL = "drop_all"
    KEEP_ALL = "keep_all"
    RANDOM = "random"


class NVMDevice:
    """A fixed-size region of simulated NVM with cache semantics.

    Args:
        size: device capacity in bytes.
        model: latency model used by cost accounting (stored for
            convenience; the device itself only counts primitives).
        seed: seed for the crash-survival RNG, making torn-write
            experiments reproducible.
        coalesce_flushes: enable the write-combining flush coalescer.
            Runs of *adjacent* dirty lines inside one flush (or
            ``persist_all``) drain as a single charged burst: the burst
            pays one full ``flush_line_ns`` round trip and each extra
            line streams at the model's ``burst_line_ns``.  Durability is
            byte-identical either way — exactly the same lines persist at
            exactly the same program points; only the cost accounting
            (``NVMStats.flush_bursts``) changes, which the crash-state
            equivalence property test asserts.
    """

    #: recorded by perfbench as ``host.nvm_backend`` and kept only for
    #: it (with :mod:`repro.nvm.backend`); both are to be deleted by the
    #: benchmark-only PR (ROADMAP item 6)
    backend = "pure"

    def __init__(
        self,
        size: int,
        model: LatencyModel = NVDIMM,
        seed: Optional[int] = None,
        coalesce_flushes: bool = False,
    ):
        if size <= 0:
            raise ValueError("device size must be positive")
        self.size = size
        self.model = model
        self.coalesce_flushes = coalesce_flushes
        self.stats = NVMStats()
        self._alloc_store(size)
        # pages of ``_durable`` this device ever wrote; every other page
        # is still zero, so fingerprints and clones visit only these
        self._touched: Set[int] = set()
        self._crashed = False
        self._rng = random.Random(seed)
        # optional media-fault model (repro.integrity): None costs one
        # is-None test on the read path and nothing anywhere else
        self._media = None
        # one mutex serialises all device access: worker threads and the
        # background syncer share the overlay (cheap under the GIL; the
        # benchmarks run single-threaded traces anyway)
        self._mutex = threading.RLock()
        # scheduled fail-point: crash (or call the action) after N more
        # mutating operations
        self._crash_countdown: Optional[int] = None
        self._crash_policy = CrashPolicy.DROP_ALL
        self._crash_survival = 0.5
        self._failpoint_action: Optional[Callable[[], None]] = None

    # -- helpers -----------------------------------------------------------

    def _alloc_store(self, size: int) -> None:
        """Allocate the durable media, the mask bytes and the (empty)
        volatile overlay.

        ``self._durable`` is the one part of the representation other
        modules see: a byte-addressable, slice-assignable buffer of
        exactly ``size`` bytes that starts out zero *without being
        written* — the media-fault model, the scrubber, and tests read
        it directly; whoever writes it goes through :meth:`poke_durable`.
        The media and the mask bytes are the only device-sized stores;
        the overlay grows and shrinks with the pages holding dirty lines.
        """
        self._n_lines = (size + _LINE_MASK) >> _LINE_SHIFT
        self._durable = memoryview(lazy_zeros(size))
        #: per-line dirty-word bitmask; 0 == clean line
        self._masks = memoryview(lazy_zeros(self._n_lines))
        #: number of nonzero mask bytes, so the hot paths never scan
        self._dirty_count = 0
        #: page index -> a view of the page's current bytes, for exactly
        #: the pages that hold a dirty line (a clean line's bytes in it
        #: are stale and never read); all that whole-device walks visit
        self._overlay: Dict[int, memoryview] = {}
        #: the last page if the device ends inside it (its buffer is
        #: short, and never the shared zero page), else -1
        self._short_page = size >> _PAGE_SHIFT if size & _PAGE_MASK else -1
        #: dropped page-sized buffers, their bytes stale
        self._spare: Deque[memoryview] = deque(maxlen=_SPARE_BUFFERS)

    def _buffer(self, page: int) -> memoryview:
        """``page``'s overlay, writable.  A page with no entry holds no
        dirty line, so it takes a spare buffer as it is; one with the
        shared zero page gets a fresh zeroed one (its dirty lines are
        zeros).  A buffer spans the device's bytes of its page, so the
        last page of a device that ends mid-page has a short one, and
        every slice of a buffer is as long as the same slice of the
        media."""
        buf = self._overlay.get(page)
        if buf is None and self._spare and page != self._short_page:
            buf = self._overlay[page] = self._spare.pop()
        elif buf is None or buf is _ZERO_VIEW:
            size = self.size & _PAGE_MASK if page == self._short_page else PAGE
            buf = self._overlay[page] = memoryview(bytearray(size))
        return buf

    def _release(self, buf: memoryview) -> None:
        """Keep a dropped page's buffer for reuse (the oldest spare goes
        when there are enough)."""
        if buf is not _ZERO_VIEW and buf.nbytes == PAGE:
            self._spare.append(buf)

    def _drop_all(self) -> None:
        """Drop every page's buffer: no line is dirty any more."""
        for buf in self._overlay.values():
            self._release(buf)
        self._overlay.clear()

    def _store(self, lo: int, data) -> None:
        """Put ``data`` into the overlay at ``lo``, page by page."""
        hi = lo + len(data)
        base = lo & ~_PAGE_MASK
        if hi - base <= PAGE:
            self._buffer(base >> _PAGE_SHIFT)[lo - base : hi - base] = data
            return
        data = memoryview(data)
        pos = 0
        while lo < hi:
            end = min(hi, base + PAGE)
            self._buffer(base >> _PAGE_SHIFT)[lo - base : end - base] = data[pos : pos + end - lo]
            pos += end - lo
            lo = base = end

    def _cached(self, lo: int, hi: int):
        """The overlay's bytes ``[lo, hi)``, every line of which is dirty:
        a view for a range inside one page, else the joined bytes."""
        overlay = self._overlay
        base = lo & ~_PAGE_MASK
        if hi - base <= PAGE:
            return overlay[base >> _PAGE_SHIFT][lo - base : hi - base]
        parts = []
        while lo < hi:
            end = min(hi, base + PAGE)
            parts.append(overlay[base >> _PAGE_SHIFT][lo - base : end - base])
            lo = base = end
        return b"".join(parts)

    def _drop_clean(self, first: int, last: int) -> None:
        """Forget the overlay of each page of lines ``first..last`` that
        holds no dirty line any more (after lines there were cleaned)."""
        if not self._dirty_count:
            self._drop_all()
            return
        overlay = self._overlay
        masks = self._masks
        is_clean = _ZERO_PAGE.startswith
        for page in range(first >> _PAGE_LINE_SHIFT, (last >> _PAGE_LINE_SHIFT) + 1):
            lo = page << _PAGE_LINE_SHIFT
            if page in overlay and is_clean(masks[lo : lo + _PAGE_LINES]):
                self._release(overlay.pop(page))

    def _touch(self, first: int, last: int) -> None:
        """Durable lines ``first..last`` were just written."""
        first >>= _PAGE_LINE_SHIFT
        last >>= _PAGE_LINE_SHIFT
        if first == last:
            self._touched.add(first)
        else:
            self._touched.update(range(first, last + 1))

    def _check(self, addr: int, size: int) -> None:
        if self._crashed:
            raise DeviceCrashedError("device crashed; call restart() first")
        if addr < 0 or size < 0 or addr + size > self.size:
            raise OutOfBoundsError(
                f"access [{addr}, {addr + size}) outside device of {self.size} bytes"
            )

    def _tick_failpoint(self) -> None:
        """Count down a scheduled fail-point; fires *before* the current
        op: a crash, or the scheduled action, after which the op runs."""
        if self._crash_countdown is None:
            return
        if self._crash_countdown <= 0:
            self._crash_countdown = None
            action, self._failpoint_action = self._failpoint_action, None
            if action is not None:
                action()
                return
            self.crash(self._crash_policy, self._crash_survival)
            raise DeviceCrashedError("scheduled fail-point reached")
        self._crash_countdown -= 1

    def schedule_crash(
        self,
        after_ops: int,
        policy: CrashPolicy = CrashPolicy.DROP_ALL,
        survival_prob: float = 0.5,
    ) -> None:
        """Arm a fail-point: the device power-fails after ``after_ops``
        more mutating operations (stores, flushes, fences, copies).

        This lets tests crash *inside* an engine's commit or sync code at
        a deterministic, enumerable point — the property-based crash
        suites sweep ``after_ops`` across a whole transaction.
        """
        if after_ops < 0:
            raise ValueError("after_ops must be non-negative")
        self._crash_countdown = after_ops
        self._crash_policy = policy
        self._crash_survival = survival_prob
        self._failpoint_action = None

    def schedule_callback(self, after_ops: int, action: Callable[[], None]) -> None:
        """Arm the same fail-point with ``action`` instead of a crash:
        after ``after_ops`` more mutating operations, ``action()`` runs
        just before the next one, which then proceeds (unless ``action``
        raises).  The device is paused in exactly the state a crash
        scheduled there would resolve, so the crash checker takes every
        crash image of a run from one pass (re-arming from ``action``)."""
        self.schedule_crash(after_ops)
        self._failpoint_action = action

    def cancel_scheduled_crash(self) -> None:
        self._crash_countdown = None
        self._failpoint_action = None

    # -- media faults (repro.integrity) ------------------------------------

    @property
    def media(self):
        """The attached :class:`~repro.integrity.model.MediaFaultModel`,
        or None when media faults are not modelled."""
        return self._media

    def attach_media(self, *, seed: int = 0, protect: bool = True, tree: bool = False):
        """Attach a media-fault model to this device's durable bytes.

        With ``protect`` (the default) the model maintains a per-line
        checksum sidecar from the persist paths, enabling detection and
        scrub-and-repair; ``protect=False`` models an unprotected
        deployment where injected corruption is silent.  ``tree``
        additionally maintains a persistent integrity tree over the line
        CRCs, catching consistent multi-line / stale-CRC corruption the
        sidecar alone cannot see.  Returns the model for injection calls.
        """
        from ..integrity.model import MediaFaultModel

        self._media = MediaFaultModel(self, seed=seed, protect=protect, tree=tree)
        return self._media

    def scheduled_crash_remaining(self) -> Optional[int]:
        """Mutating operations left before the armed fail-point fires.

        ``None`` when no fail-point is armed (or it already fired).  The
        crash-consistency checker counts a workload's operations by
        arming an unreachably large budget and reading back how much of
        it ticked away — this accessor is the supported way to do that
        (tests must not reach into ``_crash_countdown``).
        """
        return self._crash_countdown

    # -- dirty-line runs ---------------------------------------------------

    def _dirty_runs(self, first: int, last: int) -> List[Tuple[int, int]]:
        """Maximal runs ``[start, end)`` of dirty lines among lines
        ``first..last``, ascending.

        Reads the mask bytes of the pages in the overlay (those holding a
        dirty line) and no others, so a walk over the whole device costs
        its dirty pages, not the pool.  Adjacent pages are scanned as one
        window of up to :data:`_SCAN_PAGES` pages, and a run that reaches
        the end of a window is joined with the one that starts the next,
        so a run never splits at a page boundary (a run is a flush burst).
        """
        pages = self._overlay
        p0 = first >> _PAGE_LINE_SHIFT
        p1 = last >> _PAGE_LINE_SHIFT
        if len(pages) <= p1 - p0:
            visit = sorted(p for p in pages if p0 <= p <= p1)
        else:
            visit = [p for p in range(p0, p1 + 1) if p in pages]
        masks = self._masks
        runs: List[Tuple[int, int]] = []
        i = 0
        while i < len(visit):
            j = i + 1
            while j < len(visit) and visit[j] == visit[j - 1] + 1 and j - i < _SCAN_PAGES:
                j += 1
            lo = max(visit[i] << _PAGE_LINE_SHIFT, first)
            hi = min((visit[j - 1] + 1) << _PAGE_LINE_SHIFT, last + 1)
            flags = bytes(masks[lo:hi]).translate(_DIRTY_FLAG)
            pos = flags.find(1)
            while pos >= 0:
                end = flags.find(0, pos)
                if end < 0:
                    end = len(flags)
                if runs and runs[-1][1] == lo + pos:
                    runs[-1] = (runs[-1][0], lo + end)
                else:
                    runs.append((lo + pos, lo + end))
                pos = flags.find(1, end)
            i = j
        return runs

    def _flush_runs(
        self, runs: List[Tuple[int, int]]
    ) -> Tuple[int, Optional[List[int]], Optional[List[int]]]:
        """Persist and clean the dirty-line ``runs`` (see
        :meth:`_move_to_media`); returns the lines flushed and, with
        media attached, the list of them the media hears about and those
        among them the flush rewrote only in part."""
        masks = self._masks
        persisted = partial = None
        if self._media is not None:
            persisted = [line for start, end in runs for line in range(start, end)]
            partial = [line for line in persisted if masks[line] != _FULL_MASK]
        flushed = 0
        for start, end in runs:
            self._move_to_media(start, end)
            masks[start:end] = bytes(end - start)
            flushed += end - start
        self._dirty_count -= flushed
        for start, end in runs:
            self._drop_clean(start, end - 1)
        return flushed, persisted, partial

    def _move_to_media(self, start: int, end: int) -> None:
        """Copy the overlay's lines ``start..end-1`` onto the media and
        record the pages written.

        Up to a page, one slice per page.  Wider, and a page that is
        known zero on both sides — never written on the media, all zero
        in the overlay — moves nothing and stays out of the record: it
        would write zeros over zeros and make the page resident (a fresh
        full mirror is a heap's worth of such pages).
        """
        lo = start << _LINE_SHIFT
        hi = end << _LINE_SHIFT
        durable = self._durable
        if hi - lo <= PAGE:
            durable[lo:hi] = self._cached(lo, hi)
            self._touch(start, end - 1)
            return
        overlay = self._overlay
        touched = self._touched
        is_zero = _ZERO_PAGE.startswith
        for page in range(lo >> _PAGE_SHIFT, ((hi - 1) >> _PAGE_SHIFT) + 1):
            base = page << _PAGE_SHIFT
            a = max(lo, base)
            b = min(hi, base + PAGE)
            data = overlay[page][a - base : b - base]
            if page in touched or not is_zero(data):
                durable[a:b] = data
                touched.add(page)

    # -- raw overlay data path (no stats, no checks) -----------------------

    def _peek(self, addr: int, size: int) -> bytes:
        """Overlay-aware read with no accounting (shared by read/copy)."""
        if not self._dirty_count:
            return bytes(self._durable[addr : addr + size])
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        masks = self._masks
        if first >= last:
            # one line (or, for size 0, none)
            if first == last and masks[first]:
                off = addr & _PAGE_MASK
                return bytes(self._overlay[first >> _PAGE_LINE_SHIFT][off : off + size])
            return bytes(self._durable[addr : addr + size])
        end = addr + size
        durable = self._durable
        n = last - first + 1
        if n <= _SWAR_LINES:
            # one buffer scan classifies the whole window: the combined
            # little-endian integer of the per-line mask bytes is 0 iff
            # every line is clean — the dominant case for index reads
            combined = int.from_bytes(masks[first : last + 1], "little")
            if not combined:
                return bytes(durable[addr:end])
            if not ((combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]):
                return bytes(self._cached(addr, end))
            runs = [
                (first + i, first + i + 1)
                for i in range(n)
                if combined & (0xFF << (i << 3))
            ]
        else:
            runs = self._dirty_runs(first, last)
            if not runs:
                return bytes(durable[addr:end])
            if runs[0] == (first, last + 1):
                return bytes(self._cached(addr, end))
        out = bytearray(durable[addr:end])
        for start, stop in runs:
            lo = start << _LINE_SHIFT
            if lo < addr:
                lo = addr
            hi = stop << _LINE_SHIFT
            if hi > end:
                hi = end
            out[lo - addr : hi - addr] = self._cached(lo, hi)
        return bytes(out)

    def _poke(self, addr: int, data) -> None:
        """Overlay-aware store with no accounting (shared by write/copy)."""
        size = len(data)
        if not size:
            return
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        masks = self._masks
        if first == last:
            buf = self._buffer(first >> _PAGE_LINE_SHIFT)
            off = addr & _LINE_MASK
            m = masks[first]
            if not m:
                base = first << _LINE_SHIFT
                at = base & _PAGE_MASK
                buf[at : at + CACHE_LINE] = self._durable[base : base + CACHE_LINE]
                self._dirty_count += 1
                masks[first] = _SPAN_MASKS[off >> _WORD_SHIFT][(off + size - 1) >> _WORD_SHIFT]
            elif m != _FULL_MASK:
                masks[first] = m | _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            off = addr & _PAGE_MASK
            buf[off : off + size] = data
            return
        end = addr + size
        lo, hi = addr, end
        clean = bytes(masks[first : last + 1]).count(0)
        if clean:
            # interior lines are overwritten whole; a clean partial head
            # or tail line keeps the media's bytes beside the store's,
            # which ride along with the data
            self._dirty_count += clean
            if addr & _LINE_MASK and not masks[first]:
                lo = first << _LINE_SHIFT
            if end & _LINE_MASK and not masks[last]:
                hi = (last + 1) << _LINE_SHIFT
            if lo < addr or end < hi:
                durable = self._durable
                data = b"".join((durable[lo:addr], data, durable[end:hi]))
        n = last - first - 1
        if n > 0:
            masks[first + 1 : last] = _FULLS[n] if n <= _SWAR_LINES else bytes([_FULL_MASK]) * n
        self._store(lo, data)
        masks[first] |= _SPAN_MASKS[(addr & _LINE_MASK) >> _WORD_SHIFT][_WORDS_PER_LINE - 1]
        masks[last] |= _SPAN_MASKS[0][((end - 1) & _LINE_MASK) >> _WORD_SHIFT]

    def _mark(self, addr: int, end: int) -> None:
        """Dirty ``[addr, end)`` exactly as :meth:`_poke` of zeros there
        would, moving none: for pages that hold no dirty line and were
        never written on the media (where the fault-in of a clean partial
        line moves zeros too), which get the shared zero page as their
        overlay (a short last page, a zeroed buffer of its own)."""
        first = addr >> _LINE_SHIFT
        last = (end - 1) >> _LINE_SHIFT
        masks = self._masks
        self._dirty_count += bytes(masks[first : last + 1]).count(0)
        head = (addr & _LINE_MASK) >> _WORD_SHIFT
        tail = ((end - 1) & _LINE_MASK) >> _WORD_SHIFT
        if first == last:
            masks[first] |= _SPAN_MASKS[head][tail]
        else:
            masks[first + 1 : last] = bytes([_FULL_MASK]) * (last - first - 1)
            masks[first] |= _SPAN_MASKS[head][_WORDS_PER_LINE - 1]
            masks[last] |= _SPAN_MASKS[0][tail]
        pages = range(first >> _PAGE_LINE_SHIFT, (last >> _PAGE_LINE_SHIFT) + 1)
        self._overlay.update(zip(pages, repeat(_ZERO_VIEW)))
        if pages[-1] == self._short_page:
            del self._overlay[pages[-1]]
            self._buffer(pages[-1])

    # -- data path ---------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes at ``addr``, observing unflushed stores."""
        with self._mutex:
            return self._read_locked(addr, size)

    def _read_locked(self, addr: int, size: int) -> bytes:
        # the single-line and clean-device _peek paths are inlined: an
        # 8-byte field read is the most frequent call in the program
        if self._crashed or addr < 0 or size < 0 or addr + size > self.size:
            self._check(addr, size)
        stats = self.stats
        stats.loads += 1
        stats.load_bytes += size
        if self._media is not None:
            self._media.check_read(addr, size)
        if not self._dirty_count:
            return bytes(self._durable[addr : addr + size])
        first = addr >> _LINE_SHIFT
        if first == (addr + size - 1) >> _LINE_SHIFT:
            if self._masks[first]:
                off = addr & _PAGE_MASK
                return bytes(self._overlay[first >> _PAGE_LINE_SHIFT][off : off + size])
            return bytes(self._durable[addr : addr + size])
        return self._peek(addr, size)

    def read_declared(self, addr: int, size: int, loads: DeclaredLoads) -> bytes:
        """Load ``size`` bytes at ``addr`` in one block read, charged as
        the field loads it stands in for.

        The charge is exactly that of one :meth:`read` per
        ``(rel_off, n)`` of ``loads``, in order: ``loads``/``load_bytes``
        per load and, with a media model attached, its ``check_read`` at
        ``addr + rel_off`` (so a dead line raises after the same partial
        charges).  What the host reads may differ from what is charged;
        what is charged may not — :class:`~repro.nvm.reference.ReferenceNVMDevice`
        implements this as that literal loop (docs/INTERNALS.md §8).
        """
        with self._mutex:
            if self._crashed or addr < 0 or size < 0 or addr + size > self.size:
                # the field reads fail where they would have, one by one
                for rel, n in loads:
                    self._read_locked(addr + rel, n)
                self._check(addr, size)
            stats = self.stats
            media = self._media
            if media is None:
                stats.loads += loads.count
                stats.load_bytes += loads.nbytes
            else:
                for rel, n in loads:
                    stats.loads += 1
                    stats.load_bytes += n
                    media.check_read(addr + rel, n)
            if not self._dirty_count:
                return bytes(self._durable[addr : addr + size])
            return self._peek(addr, size)

    def read_gather(self, addr: int, loads: DeclaredLoads) -> bytes:
        """The bytes of every load of ``loads`` at ``addr``, concatenated
        in order — one call for a scatter of field loads (the intent
        log's slot headers, a page apart).

        Charged exactly as :meth:`read_declared` charges ``loads``; on a
        crashed device or out of bounds the loads are replayed one by one
        and fail where they would have.  A clean load on pages outside
        the written-page record reads as zeros (which they hold) without
        touching the mapping — a first read of a lazily-zeroed page is a
        page fault; a load over a dirty line reads the overlay.
        """
        with self._mutex:
            if self._crashed or addr < 0 or addr + loads.span > self.size:
                return b"".join([self._read_locked(addr + rel, n) for rel, n in loads])
            stats = self.stats
            media = self._media
            if media is None:
                stats.loads += loads.count
                stats.load_bytes += loads.nbytes
            else:
                for rel, n in loads:
                    stats.loads += 1
                    stats.load_bytes += n
                    media.check_read(addr + rel, n)
            untouched = self._touched.isdisjoint
            durable = self._durable
            masks = self._masks if self._dirty_count else None
            parts = []
            append = parts.append
            for rel, n in loads:
                lo = addr + rel
                hi = lo + n
                if masks is not None and any(
                    masks[lo >> _LINE_SHIFT : ((hi - 1) >> _LINE_SHIFT) + 1]
                ):
                    append(self._peek(lo, n))
                elif untouched(range(lo >> _PAGE_SHIFT, ((hi - 1) >> _PAGE_SHIFT) + 1)):
                    append(bytes(n))
                else:
                    append(bytes(durable[lo:hi]))
            return b"".join(parts)

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr`` into the volatile overlay."""
        with self._mutex:
            self._write_locked(addr, data)

    def _write_locked(self, addr: int, data) -> None:
        if self._crash_countdown is not None:
            self._tick_failpoint()
        size = len(data)
        if self._crashed or addr < 0 or addr + size > self.size:
            self._check(addr, size)
        stats = self.stats
        stats.stores += 1
        stats.store_bytes += size
        if not size:
            return
        first = addr >> _LINE_SHIFT
        if first == (addr + size - 1) >> _LINE_SHIFT:
            # the single-line _poke, inlined
            buf = self._overlay.get(first >> _PAGE_LINE_SHIFT, _ZERO_VIEW)
            if buf is _ZERO_VIEW:
                buf = self._buffer(first >> _PAGE_LINE_SHIFT)
            masks = self._masks
            off = addr & _LINE_MASK
            m = masks[first]
            if not m:
                base = first << _LINE_SHIFT
                at = base & _PAGE_MASK
                buf[at : at + CACHE_LINE] = self._durable[base : base + CACHE_LINE]
                self._dirty_count += 1
                masks[first] = _SPAN_MASKS[off >> _WORD_SHIFT][(off + size - 1) >> _WORD_SHIFT]
            elif m != _FULL_MASK:
                masks[first] = m | _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            off = addr & _PAGE_MASK
            buf[off : off + size] = data
            return
        self._poke(addr, data)

    def copy(self, dst: int, src: int, size: int, chunks: int = 1) -> None:
        """Device-internal memcpy; charged to the copy counters.

        The copy reads through the overlay (sees unflushed stores) and
        writes into the overlay like ordinary stores; callers must still
        flush the destination for durability.  ``chunks`` lets a caller
        that interval-coalesced ``chunks`` adjacent logical copies into
        one bulk move keep the ``copies`` counter bit-identical to the
        uncoalesced sequence (``copy_bytes`` is the byte total either
        way, which is what the cost model prices).
        """
        with self._mutex:
            self._copy_locked(dst, src, size, chunks)

    def _copy_locked(self, dst: int, src: int, size: int, chunks: int = 1) -> None:
        if self._crash_countdown is not None:
            self._tick_failpoint()
        self._check(src, size)
        self._check(dst, size)
        stats = self.stats
        stats.copies += chunks
        stats.copy_bytes += size
        if self._media is not None:
            self._media.check_read(src, size)
        if size <= PAGE:
            self._poke(dst, self._peek(src, size))
        else:
            self._copy_pages(dst, src, size)

    def _copy_pages(self, dst: int, src: int, size: int) -> None:
        """The uncharged move of a copy wider than a page, one
        destination page at a time — from the top down when the
        destination overlaps above the source, as ``memmove`` goes, so
        no chunk reads bytes an earlier chunk wrote.

        A chunk whose pages are all known zero on both sides moves no
        bytes and is only marked dirty (:meth:`_mark`): every page it
        overlaps, source and destination, was never written and has no
        overlay (holds no dirty line).  A run of such chunks is marked
        in one go, before the next chunk that moves bytes: while it
        waits, its lines read as the zeros they will hold either way.
        """
        end = dst + size
        pages = range(dst >> _PAGE_SHIFT, ((end - 1) >> _PAGE_SHIFT) + 1)
        if src < dst < src + size:
            pages = reversed(pages)
        shift = src - dst
        touched = self._touched
        cached = self._overlay.keys()
        waiting: Optional[Tuple[int, int]] = None
        for page in pages:
            lo = max(dst, page << _PAGE_SHIFT)
            hi = min(end, (page + 1) << _PAGE_SHIFT)
            sources = range((lo + shift) >> _PAGE_SHIFT, ((hi - 1 + shift) >> _PAGE_SHIFT) + 1)
            if (
                page not in touched
                and page not in cached
                and touched.isdisjoint(sources)
                and cached.isdisjoint(sources)
            ):
                if waiting is not None:
                    lo, hi = min(lo, waiting[0]), max(hi, waiting[1])
                waiting = lo, hi
                continue
            if waiting is not None:
                self._mark(*waiting)
                waiting = None
            self._poke(lo, self._peek(lo + shift, hi - lo))
        if waiting is not None:
            self._mark(*waiting)

    # -- persistence -------------------------------------------------------

    def flush(self, addr: int, size: int) -> None:
        """Flush all cache lines covering ``[addr, addr+size)`` to media."""
        if size <= 0:
            return
        with self._mutex:
            self._flush_locked(addr, size)

    def flush_multi(self, ranges: Iterable[Tuple[int, int]]) -> None:
        """Flush several ranges under one lock acquisition.

        Semantically (and in every :class:`NVMStats` counter) identical
        to calling :meth:`flush` once per range in order; it only
        amortises the per-call locking and dispatch overhead, which is
        what the commit path and the backup syncer pay per intent.
        """
        with self._mutex:
            for addr, size in ranges:
                if size > 0:
                    self._flush_locked(addr, size)

    def _flush_locked(self, addr: int, size: int) -> None:
        if self._crash_countdown is not None:
            self._tick_failpoint()
        self._check(addr, size)
        flushed = 0
        bursts = 0
        persisted = partial = None
        if self._dirty_count:
            first = addr >> _LINE_SHIFT
            last = (addr + size - 1) >> _LINE_SHIFT
            n = last - first + 1
            if n > _SWAR_LINES:
                runs = self._dirty_runs(first, last)
                flushed, persisted, partial = self._flush_runs(runs)
                bursts = len(runs)
            else:
                masks = self._masks
                combined = int.from_bytes(masks[first : last + 1], "little")
                if combined:
                    durable = self._durable
                    overlay = self._overlay
                    page = first >> _PAGE_LINE_SHIFT
                    if not ((combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]):
                        # fully dirty window: one slice copy, one burst
                        lo = first << _LINE_SHIFT
                        hi = (last + 1) << _LINE_SHIFT
                        masks[first : last + 1] = _ZEROS[n]
                        # self._cached(lo, hi) and self._touch(first, last),
                        # inlined for a window inside one page: the hot flush
                        if page == last >> _PAGE_LINE_SHIFT:
                            base = lo & ~_PAGE_MASK
                            durable[lo:hi] = overlay[page][lo - base : hi - base]
                            self._touched.add(page)
                        else:
                            durable[lo:hi] = self._cached(lo, hi)
                            self._touched.update(range(page, (last >> _PAGE_LINE_SHIFT) + 1))
                        flushed = n
                        bursts = 1
                        if self._media is not None:
                            persisted = list(range(first, last + 1))
                    else:
                        prev = -2
                        lines: Optional[List[int]] = [] if self._media is not None else None
                        touch = self._touched.add
                        for i in range(n):
                            if combined & (0xFF << (i << 3)):
                                line = first + i
                                base = line << _LINE_SHIFT
                                off = base & _PAGE_MASK
                                durable[base : base + CACHE_LINE] = overlay[
                                    line >> _PAGE_LINE_SHIFT
                                ][off : off + CACHE_LINE]
                                touch(line >> _PAGE_LINE_SHIFT)
                                masks[line] = 0
                                flushed += 1
                                if line != prev + 1:
                                    bursts += 1
                                prev = line
                                if lines is not None:
                                    lines.append(line)
                        persisted = lines
                    if self._media is not None:
                        partial = _partial_lines(first, n, combined)
                    self._dirty_count -= flushed
                    if page != last >> _PAGE_LINE_SHIFT:
                        self._drop_clean(first, last)
                    elif not self._dirty_count or _ZERO_PAGE.startswith(
                        masks[page << _PAGE_LINE_SHIFT : (page + 1) << _PAGE_LINE_SHIFT]
                    ):
                        # self._drop_clean(first, last), inlined: the page
                        # came clean (the overlay's only page, if no line
                        # is dirty any more)
                        buf = overlay.pop(page)
                        if buf is not _ZERO_VIEW and buf.nbytes == PAGE:
                            self._spare.append(buf)
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            self._media.on_persist(persisted, partial)

    def fence(self) -> None:
        """Ordering fence; a cost-model event (flushes persist eagerly)."""
        with self._mutex:
            if self._crash_countdown is not None:
                self._tick_failpoint()
            if self._crashed:
                raise DeviceCrashedError("device crashed; call restart() first")
            self.stats.fences += 1

    def persist(self, addr: int, data) -> None:
        """A durable store: :meth:`write`, :meth:`flush` of the written
        range and :meth:`fence`, in one hold of the mutex.

        Every counter, fail-point tick and media hook is that of the three
        calls in order (the fence re-enters the mutex it already holds) —
        :class:`~repro.nvm.reference.ReferenceNVMDevice` implements it as
        that literal sequence.
        """
        size = len(data)
        with self._mutex:
            self._write_locked(addr, data)
            if size > 0:
                self._flush_locked(addr, size)
            self.fence()

    def persist_all(self) -> None:
        """Flush every dirty line (used at pool close / test setup)."""
        with self._mutex:
            self._persist_all_locked()

    def _persist_all_locked(self) -> None:
        if self._crashed:
            raise DeviceCrashedError("device crashed; call restart() first")
        flushed = 0
        bursts = 0
        persisted = partial = None
        if self._dirty_count:
            runs = self._dirty_runs(0, self._n_lines - 1)
            flushed, persisted, partial = self._flush_runs(runs)
            bursts = len(runs)
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            self._media.on_persist(persisted, partial)

    @property
    def dirty_lines(self) -> int:
        """Number of cache lines with unflushed stores."""
        return self._dirty_count

    # -- failure injection ---------------------------------------------------

    def crash(
        self,
        policy: CrashPolicy = CrashPolicy.DROP_ALL,
        survival_prob: float = 0.5,
    ) -> None:
        """Power-fail the device.

        Unflushed dirty words are resolved according to ``policy`` in
        ascending line order, word order within a line (the canonical
        order the reference device shares, so a fixed seed yields the
        same surviving words on either); the volatile overlay is then
        discarded and the device refuses access until :meth:`restart`.
        """
        if self._crashed:
            return
        media = self._media
        crash_lines: Optional[List[Tuple[int, bool]]] = None
        if self._dirty_count:
            masks = self._masks
            runs = self._dirty_runs(0, self._n_lines - 1)
            if policy is not CrashPolicy.DROP_ALL:
                keep_all = policy is CrashPolicy.KEEP_ALL
                if media is not None:
                    crash_lines = [
                        (line, keep_all and masks[line] == _FULL_MASK)
                        for start, end in runs
                        for line in range(start, end)
                    ]
                durable = self._durable
                overlay = self._overlay
                rng = self._rng.random
                for start, end in runs:
                    if keep_all and bytes(masks[start:end]).count(_FULL_MASK) == end - start:
                        # every word of the run survives: a flush's move
                        self._move_to_media(start, end)
                        continue
                    self._touch(start, end - 1)
                    # the per-word loop is deliberate: RANDOM draws must
                    # match the reference draw for draw
                    for line in range(start, end):
                        mask = masks[line]
                        base = line << _LINE_SHIFT
                        buf = overlay[line >> _PAGE_LINE_SHIFT]
                        for w in range(_WORDS_PER_LINE):
                            if mask & (1 << w) and (keep_all or rng() < survival_prob):
                                off = base + (w << _WORD_SHIFT)
                                at = off & _PAGE_MASK
                                durable[off : off + WORD] = buf[at : at + WORD]
            for start, end in runs:
                masks[start:end] = bytes(end - start)
            self._dirty_count = 0
            self._drop_all()
        if crash_lines:
            media.on_crash(crash_lines)
        self._crashed = True

    def restart(self) -> None:
        """Bring the device back after a crash; durable state is intact."""
        self._crashed = False

    @property
    def crashed(self) -> bool:
        return self._crashed

    # -- the crash image: fingerprint, clone, out-of-band media writes -------

    def _overlay_lines(self) -> List[Tuple[int, int, object]]:
        """``(line, dirty-word mask, line bytes)`` of every unflushed
        line in ascending line order — the order crash resolution draws
        its lottery in and the fingerprint hashes in."""
        if not self._dirty_count:
            return []
        masks = self._masks
        cached = self._cached
        return [
            (line, masks[line], cached(line << _LINE_SHIFT, (line + 1) << _LINE_SHIFT))
            for start, end in self._dirty_runs(0, self._n_lines - 1)
            for line in range(start, end)
        ]

    def _durable_pages(self) -> List[Tuple[int, bytes]]:
        """``(page index, bytes)`` of every durable page that is not
        all-zero, ascending.  Only pages this device wrote can be
        non-zero, so only those are looked at; a written page that holds
        zeros again is skipped, which keeps what this returns a function
        of the durable bytes alone (see :func:`crash_digest`), and
        forgotten, so no later digest, clone or gather visits it until a
        write touches it again (a page outside the record is zero either
        way).  Under the mutex: a flush between the zero test and the
        discard would leave a written page out of the record."""
        durable = self._durable
        pages: List[Tuple[int, bytes]] = []
        with self._mutex:
            touched = self._touched
            for page in sorted(touched):
                data = bytes(durable[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT])
                if _ZERO_PAGE.startswith(data):
                    touched.discard(page)
                else:
                    pages.append((page, data))
        return pages

    def overlay_fingerprint(self) -> str:
        """Digest of (durable bytes, dirty-line set) — the crash state.

        Two moments with the same fingerprint have identical durable
        media *and* identical unflushed overlay contents/word masks, so
        every crash policy resolves them to the same reachable set of
        post-crash images.  The crash-consistency checker uses this to
        explore each distinct pre-crash state exactly once.  Costs the
        pages this device wrote plus its dirty lines, not the pool.
        """
        return crash_digest(self._durable_pages(), self._overlay_lines(), self._media)

    def clone_durable(self, seed: Optional[int] = None, overlay: bool = False) -> "NVMDevice":
        """A fresh device with this device's durable media and, with
        ``overlay``, its unflushed cache lines (bytes and dirty-word
        masks) too; ``seed`` seeds the clone's crash lottery.

        The clone starts in the same crashed/running state but with no
        scheduled fail-point and zeroed counters.  The checker forks
        every crash scenario from a clone: a pre-resolution image
        (``overlay=True``) for each policy to resolve its own way, and a
        post-crash image per nested crash point, since recovery is
        destructive.  Copies the non-zero pages and the dirty lines only
        — everything else is zero or clean on both sides already.
        """
        clone = type(self)(
            self.size,
            model=self.model,
            seed=seed,
            coalesce_flushes=self.coalesce_flushes,
        )
        self._copy_durable_to(clone)
        if overlay:
            self._copy_overlay_to(clone)
        clone._crashed = self._crashed
        if self._media is not None:
            # media state is part of the durable image: a clone must not
            # resurrect dead lines or forget the checksum sidecar
            clone._media = self._media.clone(clone)
        return clone

    def _copy_durable_to(self, clone: "NVMDevice") -> None:
        for page, data in self._durable_pages():
            clone.poke_durable(page << _PAGE_SHIFT, data)

    def _copy_overlay_to(self, clone: "NVMDevice") -> None:
        masks = self._masks
        for page, buf in self._overlay.items():
            lo = page << _PAGE_LINE_SHIFT
            clone._masks[lo : lo + _PAGE_LINES] = masks[lo : lo + _PAGE_LINES]
            clone._overlay[page] = buf if buf is _ZERO_VIEW else memoryview(bytearray(buf))
        clone._dirty_count = self._dirty_count

    def poke_durable(self, addr: int, data) -> None:
        """Write ``data`` straight onto the media — no overlay, no
        counters, no fail-point tick.

        The one door for whatever changes durable bytes behind the
        cache's back: the media-fault model's flips, stuck bits, stale
        replays and controller repairs, and a clone receiving its image.
        Going through here is what makes such a write visible to
        :meth:`overlay_fingerprint` and carried by :meth:`clone_durable`
        even when it lands in space no flush ever reached.
        """
        size = len(data)
        if addr < 0 or addr + size > self.size:
            raise OutOfBoundsError(
                f"access [{addr}, {addr + size}) outside device of {self.size} bytes"
            )
        if size:
            self._durable[addr : addr + size] = data
            self._touch(addr >> _LINE_SHIFT, (addr + size - 1) >> _LINE_SHIFT)

    def durable_read(self, addr: int, size: int) -> bytes:
        """Read the media directly, ignoring the volatile overlay.

        Used by tests to assert what would survive a crash; not part of
        the programming model.
        """
        if addr < 0 or size < 0 or addr + size > self.size:
            raise OutOfBoundsError(
                f"access [{addr}, {addr + size}) outside device of {self.size} bytes"
            )
        if self._media is not None:
            self._media.check_read(addr, size)
        return bytes(self._durable[addr : addr + size])
