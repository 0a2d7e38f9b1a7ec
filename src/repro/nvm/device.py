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
speed, in the standard library only.  The durable media and the
volatile overlay are two flat byte stores of the device's size, and each
cache line has one dirty-word mask byte (0 == clean); a dirty line's
current bytes sit in the overlay at the line's own address.  A sub-line
access — the dominant case for 64-byte objects — is one mask-byte test
and one ``memoryview`` slice; a window of up to 32 lines is classified
by one combined-integer scan of its mask bytes; a wider window is split
into runs of dirty lines and moves one slice per run.  Copies have a
dedicated internal path that never touches the load/store counters.

The crash checker builds, crashes, fingerprints and clones thousands of
devices per sweep, so those cost the lines a run wrote rather than the
pool: all three stores are lazily-zeroed mappings (:func:`lazy_zeros`),
every persist path records the 4 KiB pages it writes, a set holds the
pages that may hold a dirty line, and :meth:`NVMDevice.crash`,
:meth:`NVMDevice.persist_all`, :meth:`NVMDevice.overlay_fingerprint` and
:meth:`NVMDevice.clone_durable` visit only those.
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
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator, List, Optional, Set, Tuple

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

    #: recorded by perfbench as ``host.nvm_backend`` and kept only for
    #: it (with :mod:`repro.nvm.backend`); both are to be deleted by the
    #: benchmark-only PR (ROADMAP item 1)
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
        # opt-in crash-state fingerprinting (see overlay_fingerprint):
        # when set, crash() records a digest of the pre-resolution state
        # so the crash-consistency checker can prune redundant points
        self.fingerprint_crashes = False
        self.last_crash_fingerprint: Optional[str] = None
        # optional media-fault model (repro.integrity): None costs one
        # is-None test on the read path and nothing anywhere else
        self._media = None
        # one mutex serialises all device access: worker threads and the
        # background syncer share the overlay (cheap under the GIL; the
        # benchmarks run single-threaded traces anyway)
        self._mutex = threading.RLock()
        # scheduled fail-point: crash after N more mutating operations
        self._crash_countdown: Optional[int] = None
        self._crash_policy = CrashPolicy.DROP_ALL
        self._crash_survival = 0.5

    # -- helpers -----------------------------------------------------------

    def _alloc_store(self, size: int) -> None:
        """Allocate the durable media and the volatile overlay.

        ``self._durable`` is the one part of the representation other
        modules see: a byte-addressable, slice-assignable buffer of
        exactly ``size`` bytes that starts out zero *without being
        written* — the media-fault model, the scrubber, and tests read
        it directly; whoever writes it goes through :meth:`poke_durable`.
        """
        self._n_lines = (size + _LINE_MASK) >> _LINE_SHIFT
        self._durable = memoryview(lazy_zeros(size))
        self._overlay = memoryview(lazy_zeros(size))
        #: per-line dirty-word bitmask; 0 == clean line
        self._masks = memoryview(lazy_zeros(self._n_lines))
        #: number of nonzero mask bytes, so the hot paths never scan
        self._dirty_count = 0
        #: pages that may hold a dirty line: a superset, emptied whenever
        #: the count drops to zero, and all that whole-device walks visit
        self._dirty_pages: Set[int] = set()

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

    # -- dirty-line runs ---------------------------------------------------

    def _dirty_runs(self, first: int, last: int) -> List[Tuple[int, int]]:
        """Maximal runs ``[start, end)`` of dirty lines among lines
        ``first..last``, ascending.

        Reads the mask bytes of the pages that may hold a dirty line and
        no others, so a walk over the whole device costs its dirty pages,
        not the pool.  Adjacent pages are scanned as one window, so a run
        never splits at a page boundary (a run is a flush burst).
        """
        pages = self._dirty_pages
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
            while j < len(visit) and visit[j] == visit[j - 1] + 1:
                j += 1
            lo = max(visit[i] << _PAGE_LINE_SHIFT, first)
            hi = min((visit[j - 1] + 1) << _PAGE_LINE_SHIFT, last + 1)
            flags = bytes(masks[lo:hi]).translate(_DIRTY_FLAG)
            pos = flags.find(1)
            while pos >= 0:
                end = flags.find(0, pos)
                if end < 0:
                    end = len(flags)
                runs.append((lo + pos, lo + end))
                pos = flags.find(1, end)
            i = j
        return runs

    def _flush_runs(self, runs: List[Tuple[int, int]]) -> Tuple[int, Optional[List[int]]]:
        """Persist and clean the dirty-line ``runs``, one slice copy
        each; returns the lines flushed and, with media attached, the
        list of them the media hears about."""
        durable = self._durable
        overlay = self._overlay
        masks = self._masks
        flushed = 0
        for start, end in runs:
            lo = start << _LINE_SHIFT
            hi = end << _LINE_SHIFT
            durable[lo:hi] = overlay[lo:hi]
            masks[start:end] = bytes(end - start)
            self._touch(start, end - 1)
            flushed += end - start
        self._dirty_count -= flushed
        if not self._dirty_count:
            self._dirty_pages.clear()
        if self._media is None:
            return flushed, None
        return flushed, [line for start, end in runs for line in range(start, end)]

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
                return bytes(self._overlay[addr : addr + size])
            return bytes(self._durable[addr : addr + size])
        end = addr + size
        durable = self._durable
        overlay = self._overlay
        n = last - first + 1
        if n <= _SWAR_LINES:
            # one buffer scan classifies the whole window: the combined
            # little-endian integer of the per-line mask bytes is 0 iff
            # every line is clean — the dominant case for index reads
            combined = int.from_bytes(masks[first : last + 1], "little")
            if not combined:
                return bytes(durable[addr:end])
            if not ((combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]):
                return bytes(overlay[addr:end])
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
                return bytes(overlay[addr:end])
        out = bytearray(durable[addr:end])
        for start, stop in runs:
            lo = start << _LINE_SHIFT
            if lo < addr:
                lo = addr
            hi = stop << _LINE_SHIFT
            if hi > end:
                hi = end
            out[lo - addr : hi - addr] = overlay[lo:hi]
        return bytes(out)

    def _poke(self, addr: int, data) -> None:
        """Overlay-aware store with no accounting (shared by write/copy)."""
        size = len(data)
        if not size:
            return
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        masks = self._masks
        overlay = self._overlay
        if first == last:
            off = addr & _LINE_MASK
            m = masks[first]
            if not m:
                base = first << _LINE_SHIFT
                overlay[base : base + CACHE_LINE] = self._durable[base : base + CACHE_LINE]
                self._dirty_count += 1
                self._dirty_pages.add(first >> _PAGE_LINE_SHIFT)
                masks[first] = _SPAN_MASKS[off >> _WORD_SHIFT][(off + size - 1) >> _WORD_SHIFT]
            elif m != _FULL_MASK:
                masks[first] = m | _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            overlay[addr : addr + size] = data
            return
        durable = self._durable
        end = addr + size
        n = last - first + 1
        if n <= _SWAR_LINES:
            combined = int.from_bytes(masks[first : last + 1], "little")
            if (combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]:
                # some covered line is clean: fault it in from the media
                if not combined:
                    lo = first << _LINE_SHIFT
                    hi = (last + 1) << _LINE_SHIFT
                    overlay[lo:hi] = durable[lo:hi]
                    self._dirty_count += n
                else:
                    for i in range(n):
                        if not combined & (0xFF << (i << 3)):
                            base = (first + i) << _LINE_SHIFT
                            overlay[base : base + CACHE_LINE] = durable[
                                base : base + CACHE_LINE
                            ]
                            self._dirty_count += 1
                pages = self._dirty_pages
                pages.add(first >> _PAGE_LINE_SHIFT)
                pages.add(last >> _PAGE_LINE_SHIFT)
            if n > 2:
                masks[first + 1 : last] = _FULLS[n - 2]
        else:
            # wide store: interior lines are fully overwritten, so only
            # the partial head/tail lines can need a durable fault-in
            self._dirty_count += bytes(masks[first : last + 1]).count(0)
            if addr & _LINE_MASK and not masks[first]:
                base = first << _LINE_SHIFT
                overlay[base:addr] = durable[base:addr]
            tail_end = (last + 1) << _LINE_SHIFT
            if end < tail_end and not masks[last]:
                overlay[end:tail_end] = durable[end:tail_end]
            masks[first + 1 : last] = bytes([_FULL_MASK]) * (n - 2)
            self._dirty_pages.update(
                range(first >> _PAGE_LINE_SHIFT, (last >> _PAGE_LINE_SHIFT) + 1)
            )
        overlay[addr:end] = data
        masks[first] |= _SPAN_MASKS[(addr & _LINE_MASK) >> _WORD_SHIFT][_WORDS_PER_LINE - 1]
        masks[last] |= _SPAN_MASKS[0][((end - 1) & _LINE_MASK) >> _WORD_SHIFT]

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
                return bytes(self._overlay[addr : addr + size])
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
        if not size:
            return
        first = addr >> _LINE_SHIFT
        if first == (addr + size - 1) >> _LINE_SHIFT:
            # the single-line _poke, inlined
            masks = self._masks
            off = addr & _LINE_MASK
            m = masks[first]
            if not m:
                base = first << _LINE_SHIFT
                self._overlay[base : base + CACHE_LINE] = self._durable[
                    base : base + CACHE_LINE
                ]
                self._dirty_count += 1
                self._dirty_pages.add(first >> _PAGE_LINE_SHIFT)
                masks[first] = _SPAN_MASKS[off >> _WORD_SHIFT][(off + size - 1) >> _WORD_SHIFT]
            elif m != _FULL_MASK:
                masks[first] = m | _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            self._overlay[addr : addr + size] = data
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
        self._poke(dst, self._peek(src, size))

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
        persisted: Optional[List[int]] = None
        if self._dirty_count:
            first = addr >> _LINE_SHIFT
            last = (addr + size - 1) >> _LINE_SHIFT
            n = last - first + 1
            if n > _SWAR_LINES:
                runs = self._dirty_runs(first, last)
                flushed, persisted = self._flush_runs(runs)
                bursts = len(runs)
            else:
                masks = self._masks
                combined = int.from_bytes(masks[first : last + 1], "little")
                if combined:
                    durable = self._durable
                    overlay = self._overlay
                    if not ((combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]):
                        # fully dirty window: one slice copy, one burst
                        lo = first << _LINE_SHIFT
                        hi = (last + 1) << _LINE_SHIFT
                        durable[lo:hi] = overlay[lo:hi]
                        masks[first : last + 1] = _ZEROS[n]
                        # self._touch(first, last), inlined: the hot flush
                        page = first >> _PAGE_LINE_SHIFT
                        if page == last >> _PAGE_LINE_SHIFT:
                            self._touched.add(page)
                        else:
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
                                durable[base : base + CACHE_LINE] = overlay[
                                    base : base + CACHE_LINE
                                ]
                                touch(line >> _PAGE_LINE_SHIFT)
                                masks[line] = 0
                                flushed += 1
                                if line != prev + 1:
                                    bursts += 1
                                prev = line
                                if lines is not None:
                                    lines.append(line)
                        persisted = lines
                    self._dirty_count -= flushed
                    if not self._dirty_count:
                        self._dirty_pages.clear()
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            self._media.on_persist(persisted)

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
        flushed = 0
        bursts = 0
        persisted: Optional[List[int]] = None
        if self._dirty_count:
            runs = self._dirty_runs(0, self._n_lines - 1)
            flushed, persisted = self._flush_runs(runs)
            bursts = len(runs)
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            self._media.on_persist(persisted)

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
        if self.fingerprint_crashes:
            self.last_crash_fingerprint = self.overlay_fingerprint()
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
                    self._touch(start, end - 1)
                    if keep_all and bytes(masks[start:end]).count(_FULL_MASK) == end - start:
                        # every word of the run survives: one slice copy
                        lo = start << _LINE_SHIFT
                        hi = end << _LINE_SHIFT
                        durable[lo:hi] = overlay[lo:hi]
                        continue
                    # the per-word loop is deliberate: RANDOM draws must
                    # match the reference draw for draw
                    for line in range(start, end):
                        mask = masks[line]
                        base = line << _LINE_SHIFT
                        for w in range(_WORDS_PER_LINE):
                            if mask & (1 << w) and (keep_all or rng() < survival_prob):
                                off = base + (w << _WORD_SHIFT)
                                durable[off : off + WORD] = overlay[off : off + WORD]
            for start, end in runs:
                masks[start:end] = bytes(end - start)
            self._dirty_count = 0
            self._dirty_pages.clear()
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
        overlay = self._overlay
        return [
            (line, masks[line], overlay[line << _LINE_SHIFT : (line + 1) << _LINE_SHIFT])
            for start, end in self._dirty_runs(0, self._n_lines - 1)
            for line in range(start, end)
        ]

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
