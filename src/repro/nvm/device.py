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
``docs/INTERNALS.md``): every figure benchmark funnels millions of
operations through this class, so the data path is written for CPython
speed — span-mask lookup tables instead of per-word loops, a single-line
fast path (the dominant case for 64-byte objects), a bulk dirty-range
representation for large line-aligned copies (the full-mirror seed), and
a dedicated internal copy path that never touches the load/store counters.
The crash checker builds, crashes, fingerprints and clones thousands of
devices per sweep, so those cost the lines a run wrote rather than the
pool: the store is a lazily-zeroed mapping (:func:`lazy_zeros`), every
persist path records the 4 KiB pages it writes, and
:meth:`NVMDevice.overlay_fingerprint` / :meth:`NVMDevice.clone_durable`
visit only those.
None of this may be visible in simulated results: durable bytes,
:class:`~repro.nvm.stats.NVMStats`, and crash-surviving state must be
bit-identical to the naive :class:`~repro.nvm.reference.ReferenceNVMDevice`
(which also hashes and copies its whole pool), which the differential
property tests enforce.
"""

from __future__ import annotations

import hashlib
import mmap
import random
import struct
import threading
from bisect import bisect_right, insort
from enum import Enum
from itertools import repeat
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

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

#: Copies at least this large (and line-aligned at the destination) are
#: represented as one bulk dirty range instead of per-line dict entries.
_BULK_THRESHOLD = 64 * CACHE_LINE

#: bisect key for the sorted-by-start-line bulk record list
_REC_START = itemgetter(0)

#: granularity at which a device remembers which durable bytes it ever
#: wrote (the host page size: an untouched page of a lazily-zeroed store
#: is never resident, see :func:`lazy_zeros`)
PAGE = 4096
_PAGE_SHIFT = PAGE.bit_length() - 1
_PAGE_LINE_SHIFT = _PAGE_SHIFT - _LINE_SHIFT  # line index -> page index
_ZERO_PAGE = bytes(PAGE)
assert 1 << _PAGE_SHIFT == PAGE


def lazy_zeros(n: int) -> mmap.mmap:
    """``n`` writable zero bytes that cost nothing until they are written.

    A *private* anonymous mapping: creation is O(1), a page that was
    never written is never resident, and reading one maps the shared
    zero page instead of allocating.  (Python's default
    ``mmap.mmap(-1, n)`` is *shared* anonymous memory, where a mere read
    allocates a real page.)  A simulated pool is mostly untouched space,
    so this is what keeps constructing, cloning and dropping a device
    proportional to the lines a run wrote, not to the pool.
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
    were ever written, whether a dirty line arrived by a store or a bulk
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
    relative to the read's address: what the media checks and the
    reference device walk.  ``count`` and ``nbytes`` are their totals, so
    a device with nothing to check per load charges them in two
    additions.  Build one per call site once and reuse it.
    """

    __slots__ = ("_pairs", "_stride", "count", "nbytes")

    def __init__(self, pairs: Iterable[Tuple[int, int]]):
        self._pairs: Optional[Tuple[Tuple[int, int], ...]] = tuple(pairs)
        self._stride = 0
        self.count = len(self._pairs)
        self.nbytes = sum(n for _off, n in self._pairs)

    @classmethod
    def strided(cls, count: int, n: int) -> "DeclaredLoads":
        """``count`` back-to-back loads of ``n`` bytes (a table walk),
        with no pair built per load unless something iterates them."""
        loads = cls(())
        loads._pairs = None
        loads._stride = n
        loads.count = count
        loads.nbytes = count * n
        return loads

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        if self._pairs is not None:
            return iter(self._pairs)
        return zip(range(0, self.nbytes, self._stride), repeat(self._stride))

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
        # line index -> (line buffer, dirty-word bitmask)
        self._dirty: Dict[int, Tuple[bytearray, int]] = {}
        # large line-aligned dirty ranges (e.g. the mirror seed copy),
        # kept sorted by start line and disjoint from each other and
        # from ``_dirty``; every line inside one is fully dirty
        self._bulk: List[List] = []  # [start_line, bytearray]
        self._crashed = False
        self._rng = random.Random(seed)
        # opt-in crash-state fingerprinting (see overlay_fingerprint):
        # when set, crash() records a digest of the pre-resolution state
        # so the crash-consistency checker can prune redundant points
        self.fingerprint_crashes = False
        self.last_crash_fingerprint: Optional[str] = None
        # optional media-fault model (repro.integrity): None costs one
        # is-None test on the read path and nothing anywhere else
        self._media = None
        # one mutex serialises all device access: worker threads and the
        # background syncer share the overlay dictionaries (cheap under
        # the GIL; the benchmarks run single-threaded traces anyway)
        self._mutex = threading.RLock()
        # scheduled fail-point: crash after N more mutating operations
        self._crash_countdown: Optional[int] = None
        self._crash_policy = CrashPolicy.DROP_ALL
        self._crash_survival = 0.5

    # -- helpers -----------------------------------------------------------

    #: which byte-store implementation backs this device class; the
    #: numpy subclass overrides it (see repro.nvm.backend)
    backend = "pure"

    def _alloc_store(self, size: int) -> None:
        """Allocate the durable byte store; subclasses swap the medium.

        Whatever the representation, ``self._durable`` must remain a
        byte-addressable, slice-assignable buffer of exactly ``size``
        bytes that starts out zero *without being written* — the
        media-fault model, the scrubber, and tests read it directly;
        whoever writes it goes through :meth:`poke_durable`.
        """
        self._durable = memoryview(lazy_zeros(size))

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
        """Count down a scheduled crash; fires *before* the current op."""
        if self._crash_countdown is None:
            return
        if self._crash_countdown <= 0:
            self._crash_countdown = None
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

    def cancel_scheduled_crash(self) -> None:
        self._crash_countdown = None

    # -- media faults (repro.integrity) ------------------------------------

    @property
    def media(self):
        """The attached :class:`~repro.integrity.model.MediaFaultModel`,
        or None when media faults are not modelled."""
        return self._media

    def attach_media(
        self,
        model=None,
        *,
        seed: int = 0,
        protect: bool = True,
        tree: Optional[str] = None,
        bless: bool = False,
    ):
        """Attach a media-fault model to this device's durable bytes.

        With ``protect`` (the default) the model maintains a per-line
        checksum sidecar from the persist paths, enabling detection and
        scrub-and-repair; ``protect=False`` models an unprotected
        deployment where injected corruption is silent.  ``tree``
        (``"streamed"`` or ``"eager"``) additionally maintains a
        persistent integrity tree over the line CRCs, catching consistent
        multi-line / stale-CRC corruption the sidecar alone cannot see;
        ``bless=True`` eagerly records every line's current CRC in the
        sidecar at attach time (closing its lazy-coverage window without
        a tree).  Returns the model for injection calls.
        """
        if model is None:
            from ..integrity.model import MediaFaultModel

            model = MediaFaultModel(
                self, seed=seed, protect=protect, tree=tree, bless=bless
            )
        else:
            model.bind(self)
        self._media = model
        return model

    def scheduled_crash_remaining(self) -> Optional[int]:
        """Mutating operations left before the armed fail-point fires.

        ``None`` when no fail-point is armed (or it already fired).  The
        crash-consistency checker counts a workload's operations by
        arming an unreachably large budget and reading back how much of
        it ticked away — this accessor is the supported way to do that
        (tests must not reach into ``_crash_countdown``).
        """
        return self._crash_countdown

    # -- bulk-range helpers ------------------------------------------------

    def _bulk_find(self, line: int) -> Optional[List]:
        # the list is sorted by start line and records are disjoint, so
        # the only candidate is the rightmost record starting at or
        # before ``line``
        bulk = self._bulk
        i = bisect_right(bulk, line, key=_REC_START) - 1
        if i >= 0:
            rec = bulk[i]
            if line < rec[0] + (len(rec[1]) >> _LINE_SHIFT):
                return rec
        return None

    def _bulk_insert(self, start_line: int, buf: bytearray) -> None:
        insort(self._bulk, [start_line, buf], key=_REC_START)

    def _bulk_overlapping(self, first: int, last: int) -> Tuple[int, int]:
        """Index slice ``[i, j)`` of bulk records overlapping the
        inclusive line range ``[first, last]``."""
        bulk = self._bulk
        i = bisect_right(bulk, first, key=_REC_START) - 1
        if i < 0 or bulk[i][0] + (len(bulk[i][1]) >> _LINE_SHIFT) <= first:
            i += 1
        return i, bisect_right(bulk, last, key=_REC_START)

    def _range_clean(self, addr: int, size: int) -> bool:
        """True if no overlay state overlaps ``[addr, addr+size)``."""
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        dirty = self._dirty
        if dirty:
            if len(dirty) * 4 < last - first + 1:
                for line in dirty:
                    if first <= line <= last:
                        return False
            else:
                for line in range(first, last + 1):
                    if line in dirty:
                        return False
        if self._bulk:
            i, j = self._bulk_overlapping(first, last)
            if i < j:
                return False
        return True

    # -- raw overlay data path (no stats, no checks) -----------------------

    def _peek(self, addr: int, size: int) -> bytes:
        """Overlay-aware read with no accounting (shared by read/copy)."""
        durable = self._durable
        dirty = self._dirty
        bulk = self._bulk
        if not dirty and not bulk:
            return bytes(durable[addr : addr + size])
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        if first == last:
            entry = dirty.get(first)
            if entry is not None:
                off = addr & _LINE_MASK
                return bytes(entry[0][off : off + size])
            if bulk:
                rec = self._bulk_find(first)
                if rec is not None:
                    boff = addr - (rec[0] << _LINE_SHIFT)
                    return bytes(rec[1][boff : boff + size])
            return bytes(durable[addr : addr + size])
        out = bytearray(durable[addr : addr + size])
        if dirty:
            if len(dirty) * 4 < last - first + 1:
                lines = [ln for ln in dirty if first <= ln <= last]
            else:
                lines = [ln for ln in range(first, last + 1) if ln in dirty]
            for line in lines:
                base = line << _LINE_SHIFT
                lo = addr if addr > base else base
                hi = min(addr + size, base + CACHE_LINE)
                out[lo - addr : hi - addr] = dirty[line][0][lo - base : hi - base]
        if bulk:
            i, j = self._bulk_overlapping(first, last)
            for start, buf in bulk[i:j]:
                bstart = start << _LINE_SHIFT
                bend = bstart + len(buf)
                lo = addr if addr > bstart else bstart
                hi = min(addr + size, bend)
                if lo < hi:
                    out[lo - addr : hi - addr] = buf[lo - bstart : hi - bstart]
        return bytes(out)

    def _poke(self, addr: int, data) -> None:
        """Overlay-aware store with no accounting (shared by write/copy)."""
        size = len(data)
        dirty = self._dirty
        line = addr >> _LINE_SHIFT
        off = addr & _LINE_MASK
        if off + size <= CACHE_LINE:
            # single-line fast path: the dominant case for small objects
            entry = dirty.get(line)
            if entry is not None:
                buf = entry[0]
                buf[off : off + size] = data
                dirty[line] = (
                    buf,
                    entry[1] | _SPAN_MASKS[off >> _WORD_SHIFT][(off + size - 1) >> _WORD_SHIFT],
                )
                return
            if self._bulk:
                rec = self._bulk_find(line)
                if rec is not None:
                    boff = addr - (rec[0] << _LINE_SHIFT)
                    rec[1][boff : boff + size] = data
                    return
            base = line << _LINE_SHIFT
            buf = bytearray(self._durable[base : base + CACHE_LINE])
            buf[off : off + size] = data
            dirty[line] = (
                buf,
                _SPAN_MASKS[off >> _WORD_SHIFT][(off + size - 1) >> _WORD_SHIFT],
            )
            return
        bulk = self._bulk
        pos = 0
        while pos < size:
            at = addr + pos
            line = at >> _LINE_SHIFT
            off = at & _LINE_MASK
            take = CACHE_LINE - off
            rem = size - pos
            if rem < take:
                take = rem
            entry = dirty.get(line)
            if entry is not None:
                buf, mask = entry
                buf[off : off + take] = data[pos : pos + take]
                dirty[line] = (
                    buf,
                    mask | _SPAN_MASKS[off >> _WORD_SHIFT][(off + take - 1) >> _WORD_SHIFT],
                )
            else:
                rec = self._bulk_find(line) if bulk else None
                if rec is not None:
                    boff = at - (rec[0] << _LINE_SHIFT)
                    rec[1][boff : boff + take] = data[pos : pos + take]
                elif take == CACHE_LINE:
                    # whole-line store: no need to fault the old line in
                    dirty[line] = (bytearray(data[pos : pos + CACHE_LINE]), _FULL_MASK)
                else:
                    base = line << _LINE_SHIFT
                    buf = bytearray(self._durable[base : base + CACHE_LINE])
                    buf[off : off + take] = data[pos : pos + take]
                    dirty[line] = (
                        buf,
                        _SPAN_MASKS[off >> _WORD_SHIFT][(off + take - 1) >> _WORD_SHIFT],
                    )
            pos += take

    # -- data path ---------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes at ``addr``, observing unflushed stores."""
        with self._mutex:
            return self._read_locked(addr, size)

    def _read_locked(self, addr: int, size: int) -> bytes:
        if self._crashed or addr < 0 or size < 0 or addr + size > self.size:
            self._check(addr, size)
        stats = self.stats
        stats.loads += 1
        stats.load_bytes += size
        if self._media is not None:
            self._media.check_read(addr, size)
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
            return self._peek(addr, size)

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
        data = self._peek(src, size)
        if (
            size >= _BULK_THRESHOLD
            and dst & _LINE_MASK == 0
            and size & _LINE_MASK == 0
            and self._range_clean(dst, size)
        ):
            # one bulk dirty range instead of size/64 dict entries — the
            # mirror-seed fast path (fully dirty, so no masks needed)
            self._bulk_insert(dst >> _LINE_SHIFT, bytearray(data))
        else:
            self._poke(dst, data)

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
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        dirty = self._dirty
        durable = self._durable
        flushed = 0
        bursts = 0
        bi = bj = 0
        if self._bulk:
            bi, bj = self._bulk_overlapping(first, last)
        media = self._media
        persisted: Optional[List[int]] = None
        if media is not None:
            persisted = [ln for ln in dirty if first <= ln <= last]
            for start, buf in self._bulk[bi:bj]:
                end = start + (len(buf) >> _LINE_SHIFT)
                persisted.extend(range(max(start, first), min(end, last + 1)))
        if bi == bj:
            nrange = last - first + 1
            touch = self._touched.add
            if len(dirty) * 4 < nrange:
                # sparse overlay, wide flush: walk the dirty lines, not
                # the whole address range
                prev = -2
                for line in sorted(ln for ln in dirty if first <= ln <= last):
                    durable[line << _LINE_SHIFT : (line + 1) << _LINE_SHIFT] = dirty.pop(
                        line
                    )[0]
                    touch(line >> _PAGE_LINE_SHIFT)
                    flushed += 1
                    if line != prev + 1:
                        bursts += 1
                    prev = line
            else:
                in_burst = False
                for line in range(first, last + 1):
                    entry = dirty.pop(line, None)
                    if entry is None:
                        in_burst = False
                        continue
                    durable[line << _LINE_SHIFT : (line + 1) << _LINE_SHIFT] = entry[0]
                    touch(line >> _PAGE_LINE_SHIFT)
                    flushed += 1
                    if not in_burst:
                        bursts += 1
                        in_burst = True
        else:
            flushed, bursts = self._flush_segments(first, last, bi, bj)
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            media.on_persist(persisted)

    def _flush_segments(self, first: int, last: int, bi: int, bj: int) -> Tuple[int, int]:
        """Flush ``[first, last]`` when it overlaps bulk records
        ``self._bulk[bi:bj]``.

        Builds the line-ordered segment list across both overlay
        representations so burst accounting is identical to a per-line
        scan, splitting bulk ranges that the flush only partially covers.
        """
        dirty = self._dirty
        durable = self._durable
        if len(dirty) * 4 < last - first + 1:
            segs: List[Tuple[int, int, Optional[List]]] = [
                (ln, ln + 1, None) for ln in dirty if first <= ln <= last
            ]
        else:
            segs = [(ln, ln + 1, None) for ln in range(first, last + 1) if ln in dirty]
        for rec in self._bulk[bi:bj]:
            start = rec[0]
            end = start + (len(rec[1]) >> _LINE_SHIFT)
            segs.append((max(start, first), min(end, last + 1), rec))
        segs.sort(key=_REC_START)
        flushed = 0
        bursts = 0
        prev_end = -1
        # remnants of split bulk records, in ascending order: records are
        # disjoint and processed in line order, so left/right remnants
        # come out sorted and replace the overlapped slice in place
        remnants: List[List] = []
        for s, e, rec in segs:
            if s != prev_end:
                bursts += 1
            prev_end = e
            flushed += e - s
            self._touch(s, e - 1)
            if rec is None:
                for line in range(s, e):
                    durable[line << _LINE_SHIFT : (line + 1) << _LINE_SHIFT] = dirty.pop(
                        line
                    )[0]
            else:
                start = rec[0]
                buf = rec[1]
                durable[s << _LINE_SHIFT : e << _LINE_SHIFT] = buf[
                    (s - start) << _LINE_SHIFT : (e - start) << _LINE_SHIFT
                ]
                if s > start:
                    remnants.append([start, buf[: (s - start) << _LINE_SHIFT]])
                end = start + (len(buf) >> _LINE_SHIFT)
                if e < end:
                    remnants.append([e, buf[(e - start) << _LINE_SHIFT :]])
        self._bulk[bi:bj] = remnants
        return flushed, bursts

    def fence(self) -> None:
        """Ordering fence; a cost-model event (flushes persist eagerly)."""
        with self._mutex:
            if self._crash_countdown is not None:
                self._tick_failpoint()
            if self._crashed:
                raise DeviceCrashedError("device crashed; call restart() first")
            self.stats.fences += 1

    def persist_all(self) -> None:
        """Flush every dirty line (used at pool close / test setup)."""
        with self._mutex:
            self._persist_all_locked()

    def _persist_all_locked(self) -> None:
        if self._crashed:
            raise DeviceCrashedError("device crashed; call restart() first")
        durable = self._durable
        segs: List[Tuple[int, int, Optional[bytearray]]] = [
            (ln, ln + 1, None) for ln in self._dirty
        ]
        segs.extend(
            (start, start + (len(buf) >> _LINE_SHIFT), buf) for start, buf in self._bulk
        )
        segs.sort(key=lambda s: s[0])
        dirty = self._dirty
        media = self._media
        persisted: Optional[List[int]] = None
        if media is not None:
            persisted = []
            for s, e, _buf in segs:
                persisted.extend(range(s, e))
        flushed = 0
        bursts = 0
        prev_end = -1
        for s, e, buf in segs:
            if s != prev_end:
                bursts += 1
            prev_end = e
            flushed += e - s
            self._touch(s, e - 1)
            if buf is None:
                durable[s << _LINE_SHIFT : e << _LINE_SHIFT] = dirty[s][0]
            else:
                durable[s << _LINE_SHIFT : e << _LINE_SHIFT] = buf
        dirty.clear()
        self._bulk = []
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            media.on_persist(persisted)

    @property
    def dirty_lines(self) -> int:
        """Number of cache lines with unflushed stores."""
        return len(self._dirty) + sum(
            len(buf) >> _LINE_SHIFT for _start, buf in self._bulk
        )

    # -- failure injection ---------------------------------------------------

    def crash(
        self,
        policy: CrashPolicy = CrashPolicy.DROP_ALL,
        survival_prob: float = 0.5,
    ) -> None:
        """Power-fail the device.

        Unflushed dirty words are resolved according to ``policy`` in
        ascending line order (the canonical order both device
        implementations share, so a fixed seed yields the same surviving
        words on either); the volatile overlay is then discarded and the
        device refuses access until :meth:`restart`.
        """
        if self._crashed:
            return
        if self.fingerprint_crashes:
            self.last_crash_fingerprint = self.overlay_fingerprint()
        durable = self._durable
        media = self._media
        crash_lines: Optional[List[Tuple[int, bool]]] = None
        if policy is not CrashPolicy.DROP_ALL:
            if media is not None:
                full = policy is CrashPolicy.KEEP_ALL
                crash_lines = [
                    (line, full and mask == _FULL_MASK)
                    for line, (_buf, mask) in self._dirty.items()
                ]
                for start, buf in self._bulk:
                    crash_lines.extend(
                        (start + i, full) for i in range(len(buf) >> _LINE_SHIFT)
                    )
            touch = self._touched.add
            if policy is CrashPolicy.KEEP_ALL:
                for line, mask, buf in self._overlay_lines():
                    base = line << _LINE_SHIFT
                    touch(line >> _PAGE_LINE_SHIFT)
                    if mask == _FULL_MASK:
                        durable[base : base + CACHE_LINE] = buf
                        continue
                    for w in range(_WORDS_PER_LINE):
                        if mask & (1 << w):
                            off = w * WORD
                            durable[base + off : base + off + WORD] = buf[off : off + WORD]
            else:
                rng = self._rng.random
                for line, mask, buf in self._overlay_lines():
                    base = line << _LINE_SHIFT
                    touch(line >> _PAGE_LINE_SHIFT)
                    for w in range(_WORDS_PER_LINE):
                        if mask & (1 << w) and rng() < survival_prob:
                            off = w * WORD
                            durable[base + off : base + off + WORD] = buf[off : off + WORD]
        if crash_lines:
            media.on_crash(crash_lines)
        self._dirty.clear()
        self._bulk = []
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
        its lottery in and the fingerprint hashes in.  A bulk record is
        just that many lines with a full mask."""
        lines: List[Tuple[int, int, object]] = [
            (line, mask, buf) for line, (buf, mask) in self._dirty.items()
        ]
        for start, buf in self._bulk:
            view = memoryview(buf)
            lines.extend(
                (start + i, _FULL_MASK, view[i << _LINE_SHIFT : (i + 1) << _LINE_SHIFT])
                for i in range(len(buf) >> _LINE_SHIFT)
            )
        lines.sort(key=_REC_START)
        return lines

    def _durable_pages(self) -> Iterator[Tuple[int, bytes]]:
        """``(page index, bytes)`` of every durable page that is not
        all-zero, ascending.  Only pages this device wrote can be
        non-zero, so only those are looked at; a written page that holds
        zeros again is skipped, which keeps what this yields a function
        of the durable bytes alone (see :func:`crash_digest`)."""
        durable = self._durable
        for page in sorted(self._touched):
            data = bytes(durable[page << _PAGE_SHIFT : (page + 1) << _PAGE_SHIFT])
            if not _ZERO_PAGE.startswith(data):
                yield page, data

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

    def clone_durable(self, seed: Optional[int] = None) -> "NVMDevice":
        """A fresh device with this device's durable media and no overlay.

        The clone starts in the same crashed/running state but with no
        scheduled fail-point.  The checker runs recovery from one
        post-crash image many times (once per nested crash point), which
        needs the image preserved across destructive recovery runs.
        Copies the non-zero pages only — everything else is zero on both
        sides already.
        """
        clone = type(self)(
            self.size,
            model=self.model,
            seed=seed,
            coalesce_flushes=self.coalesce_flushes,
        )
        self._copy_durable_to(clone)
        clone._crashed = self._crashed
        clone.fingerprint_crashes = self.fingerprint_crashes
        if self._media is not None:
            # media state is part of the durable image: a clone must not
            # resurrect dead lines or forget the checksum sidecar
            clone._media = self._media.clone(clone)
        return clone

    def _copy_durable_to(self, clone: "NVMDevice") -> None:
        for page, data in self._durable_pages():
            clone.poke_durable(page << _PAGE_SHIFT, data)

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
