"""numpy-vectorized :class:`NVMDevice` byte store.

Same simulated semantics, different representation: the durable media
and the volatile overlay are contiguous ``uint8`` arrays (padded to a
cache-line multiple) and dirty-line tracking is a per-line ``uint8``
dirty-word bitmask array, so bulk memmove / compare / flush walks and
crash resolution become array operations instead of per-line dict
churn.  Sub-line operations — the dominant case for 64-byte objects —
go through plain ``memoryview`` aliases of the same buffers, which
keeps them at pure-python dict speed instead of paying numpy's
scalar-indexing overhead; only operations spanning ``_VEC_LINES`` or
more lines take the vectorized paths.

The invariance contract (docs/INTERNALS.md §8) applies with full force:
durable bytes, :class:`~repro.nvm.stats.NVMStats` (including
flush-burst accounting), crash-surviving state under every
:class:`~repro.nvm.device.CrashPolicy`, RNG consumption order for
``RANDOM`` survival, media-hook call sequences, *and*
``overlay_fingerprint`` digests must be bit-identical to the
pure-python device.  The digest has one definition
(:func:`~repro.nvm.device.crash_digest`: non-zero durable pages, then
every dirty line as ``(line, mask, bytes)``), so this class only says
which lines its mask array marks dirty; the fingerprint and the durable
clone themselves are the base class's.

All three arrays sit on lazily-zeroed private mappings
(:func:`~repro.nvm.device.lazy_zeros`) and every persist path records
the pages it writes, so a device costs what its run touched: nothing
here zero-fills, copies, scans or hashes the pool.  The one structure
walked whole is the per-line mask array (1/64 of the pool), and only
while lines are dirty.

Burst accounting note: the pure device's segment walk increments the
burst counter exactly once per maximal run of consecutive dirty lines
inside the flushed window, regardless of whether those lines are dict
entries or bulk-record lines — so counting runs over the mask array is
provably identical.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import DeviceCrashedError
from .device import (
    _FULL_MASK,
    _LINE_MASK,
    _LINE_SHIFT,
    _PAGE_LINE_SHIFT,
    _SPAN_MASKS,
    _WORD_SHIFT,
    _WORDS_PER_LINE,
    CrashPolicy,
    NVMDevice,
    lazy_zeros,
)
from .latency import CACHE_LINE, WORD

#: operations spanning at least this many lines use the vectorized
#: array paths; anything smaller stays on the memoryview fast paths
_VEC_LINES = 8
_VEC_BYTES = _VEC_LINES * CACHE_LINE

#: windows up to this many lines are classified by one combined-integer
#: scan of their mask bytes (see below) instead of numpy reductions —
#: covers every KV-value-sized flush/read (a 1 KB value is 16 lines)
#: where numpy's per-call overhead would dominate the actual work
_PY_LINES = 32

#: SWAR constants for an O(1) "any zero byte in the low n bytes" test on
#: a combined little-endian mask integer: a window of n lines is fully
#: dirty iff none of its n mask bytes is zero, i.e.
#: ``(x - LOW[n]) & ~x & HIGH[n] == 0``
_SWAR_LOW = [0] + [
    int.from_bytes(b"\x01" * n, "little") for n in range(1, _PY_LINES + 1)
]
_SWAR_HIGH = [0] + [
    int.from_bytes(b"\x80" * n, "little") for n in range(1, _PY_LINES + 1)
]

#: preallocated mask-byte runs, so clearing / fully-dirtying a small
#: window is one slice store with no per-call bytes allocation
_ZEROS = [b"\x00" * n for n in range(_PY_LINES + 1)]
_FULLS = [bytes([_FULL_MASK]) * n for n in range(_PY_LINES + 1)]


class NumpyNVMDevice(NVMDevice):
    """Drop-in :class:`NVMDevice` with a numpy byte store.

    Construct via :func:`repro.nvm.backend.make_device` rather than
    directly, so code paths degrade to the pure device when numpy is
    not installed.
    """

    backend = "numpy"

    # -- storage -----------------------------------------------------------

    def _alloc_store(self, size: int) -> None:
        n_lines = (size + _LINE_MASK) >> _LINE_SHIFT
        padded = n_lines << _LINE_SHIFT
        self._n_lines = n_lines
        # durable media and volatile overlay, padded so whole-line slice
        # ops never clamp; padding bytes stay zero on both sides forever
        # (no store can reach them), so copying them around is harmless
        self._np_durable = np.frombuffer(lazy_zeros(padded), dtype=np.uint8)
        self._np_overlay = np.frombuffer(lazy_zeros(padded), dtype=np.uint8)
        #: per-line dirty-word bitmask; 0 == clean line
        self._np_masks = np.frombuffer(lazy_zeros(n_lines), dtype=np.uint8)
        # the same bytes as booleans, for finding the dirty lines:
        # numpy's nonzero scan is ~15x faster over bool than over uint8
        self._np_dirty = self._np_masks.view(np.bool_)
        # memoryview aliases: python-speed scalar/small-slice access to
        # the exact same memory the vectorized paths operate on
        self._mv_durable = memoryview(self._np_durable)
        self._mv_overlay = memoryview(self._np_overlay)
        self._mv_masks = memoryview(self._np_masks)
        # the public durable buffer is clamped to the device size — the
        # media-fault model, the scrubber, and tests index/slice it
        self._durable = self._mv_durable[:size] if padded != size else self._mv_durable
        #: total dirty lines (== np.count_nonzero(self._np_masks)),
        #: maintained incrementally so the hot paths never scan
        self._dirty_count = 0

    # -- raw overlay data path (no stats, no checks) -----------------------

    def _peek(self, addr: int, size: int) -> bytes:
        if not self._dirty_count:
            if size > _VEC_BYTES:
                return self._np_durable[addr : addr + size].tobytes()
            return bytes(self._mv_durable[addr : addr + size])
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        masks = self._mv_masks
        if first == last:
            if masks[first]:
                return bytes(self._mv_overlay[addr : addr + size])
            return bytes(self._mv_durable[addr : addr + size])
        if last - first < _PY_LINES:
            # one buffer scan classifies the whole window: the combined
            # little-endian integer of the per-line mask bytes is 0 iff
            # every line is clean — the dominant case for index reads
            combined = int.from_bytes(masks[first : last + 1], "little")
            dmv = self._mv_durable
            if not combined:
                return bytes(dmv[addr : addr + size])
            end = addr + size
            omv = self._mv_overlay
            n = last - first + 1
            if not ((combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]):
                return bytes(omv[addr:end])
            out = bytearray(dmv[addr:end])
            for i in range(n):
                if combined & (0xFF << (i << 3)):
                    base = (first + i) << _LINE_SHIFT
                    lo = addr if addr > base else base
                    hi = base + CACHE_LINE
                    if end < hi:
                        hi = end
                    out[lo - addr : hi - addr] = omv[lo:hi]
            return bytes(out)
        window = self._np_masks[first : last + 1]
        ndirty = int(np.count_nonzero(window))
        if not ndirty:
            return self._np_durable[addr : addr + size].tobytes()
        if ndirty == last - first + 1:
            return self._np_overlay[addr : addr + size].tobytes()
        return self._compose_arr(addr, size, first, window).tobytes()

    def _compose_arr(self, addr: int, size: int, first: int, window) -> np.ndarray:
        """Mixed clean/dirty multi-line read: durable base + overlay
        bytes for dirty lines, as a fresh array."""
        out = self._np_durable[addr : addr + size].copy()
        sel = np.repeat(window != 0, CACHE_LINE)
        off = addr - (first << _LINE_SHIFT)
        np.copyto(out, self._np_overlay[addr : addr + size], where=sel[off : off + size])
        return out

    def _peek_arr(self, addr: int, size: int) -> np.ndarray:
        """Overlay-aware read as a fresh uint8 array (vectorized)."""
        du = self._np_durable
        if not self._dirty_count:
            return du[addr : addr + size].copy()
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        window = self._np_masks[first : last + 1]
        ndirty = int(np.count_nonzero(window))
        if not ndirty:
            return du[addr : addr + size].copy()
        if ndirty == last - first + 1:
            return self._np_overlay[addr : addr + size].copy()
        return self._compose_arr(addr, size, first, window)

    def _poke(self, addr: int, data) -> None:
        size = len(data)
        if not size:
            return
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        masks = self._mv_masks
        if first == last:
            off = addr & _LINE_MASK
            m = masks[first]
            if not m:
                base = first << _LINE_SHIFT
                self._mv_overlay[base : base + CACHE_LINE] = self._mv_durable[
                    base : base + CACHE_LINE
                ]
                self._dirty_count += 1
                masks[first] = _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            elif m != _FULL_MASK:
                masks[first] = m | _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            self._mv_overlay[addr : addr + size] = data
            return
        n = last - first + 1
        if n <= _PY_LINES:
            omv = self._mv_overlay
            dmv = self._mv_durable
            combined = int.from_bytes(masks[first : last + 1], "little")
            if not combined:
                # every covered line is clean: one window-wide fault-in
                lo = first << _LINE_SHIFT
                hi = (last + 1) << _LINE_SHIFT
                omv[lo:hi] = dmv[lo:hi]
                self._dirty_count += n
            elif (combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]:
                faulted = 0
                for i in range(n):
                    if not combined & (0xFF << (i << 3)):
                        base = (first + i) << _LINE_SHIFT
                        omv[base : base + CACHE_LINE] = dmv[base : base + CACHE_LINE]
                        faulted += 1
                self._dirty_count += faulted
            omv[addr : addr + size] = data
            off = addr & _LINE_MASK
            masks[first] |= _SPAN_MASKS[off >> _WORD_SHIFT][_WORDS_PER_LINE - 1]
            masks[last] |= _SPAN_MASKS[0][((addr + size - 1) & _LINE_MASK) >> _WORD_SHIFT]
            if n > 2:
                masks[first + 1 : last] = _FULLS[n - 2]
            return
        # wide store: interior lines are fully overwritten, so only the
        # partial head/tail lines can need a durable fault-in — O(1)
        # work regardless of span width
        window = self._np_masks[first : last + 1]
        prev_dirty = int(np.count_nonzero(window))
        omv = self._mv_overlay
        end = addr + size
        if addr & _LINE_MASK and not masks[first]:
            base = first << _LINE_SHIFT
            omv[base:addr] = self._mv_durable[base:addr]
        tail_end = (last << _LINE_SHIFT) + CACHE_LINE
        if end != tail_end and not masks[last]:
            omv[end:tail_end] = self._mv_durable[end:tail_end]
        if isinstance(data, np.ndarray):
            self._np_overlay[addr:end] = data
        else:
            omv[addr:end] = data
        window[1:-1] = _FULL_MASK
        off = addr & _LINE_MASK
        masks[first] |= _SPAN_MASKS[off >> _WORD_SHIFT][_WORDS_PER_LINE - 1]
        masks[last] |= _SPAN_MASKS[0][((end - 1) & _LINE_MASK) >> _WORD_SHIFT]
        self._dirty_count += last - first + 1 - prev_dirty

    # -- data path ---------------------------------------------------------

    def _read_locked(self, addr: int, size: int) -> bytes:
        # fused entry point: the base method's bookkeeping plus the
        # single-line/clean _peek fast paths inlined (identical stats
        # and media calls, fewer python frames per 8-byte field read)
        if self._crashed or addr < 0 or size < 0 or addr + size > self.size:
            self._check(addr, size)
        stats = self.stats
        stats.loads += 1
        stats.load_bytes += size
        if self._media is not None:
            self._media.check_read(addr, size)
        if not self._dirty_count:
            if size > _VEC_BYTES:
                return self._np_durable[addr : addr + size].tobytes()
            return bytes(self._mv_durable[addr : addr + size])
        first = addr >> _LINE_SHIFT
        if first == (addr + size - 1) >> _LINE_SHIFT:
            if self._mv_masks[first]:
                return bytes(self._mv_overlay[addr : addr + size])
            return bytes(self._mv_durable[addr : addr + size])
        return self._peek(addr, size)

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
            # inlined single-line _poke
            masks = self._mv_masks
            off = addr & _LINE_MASK
            m = masks[first]
            if not m:
                base = first << _LINE_SHIFT
                self._mv_overlay[base : base + CACHE_LINE] = self._mv_durable[
                    base : base + CACHE_LINE
                ]
                self._dirty_count += 1
                masks[first] = _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            elif m != _FULL_MASK:
                masks[first] = m | _SPAN_MASKS[off >> _WORD_SHIFT][
                    (off + size - 1) >> _WORD_SHIFT
                ]
            self._mv_overlay[addr : addr + size] = data
            return
        self._poke(addr, data)

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
        if size >= _VEC_BYTES:
            self._poke(dst, self._peek_arr(src, size))
        else:
            self._poke(dst, self._peek(src, size))

    # -- persistence -------------------------------------------------------

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
            if last - first < _PY_LINES:
                masks = self._mv_masks
                combined = int.from_bytes(masks[first : last + 1], "little")
                if combined:
                    dmv = self._mv_durable
                    omv = self._mv_overlay
                    n = last - first + 1
                    if not ((combined - _SWAR_LOW[n]) & ~combined & _SWAR_HIGH[n]):
                        # fully dirty window: one memcpy, one burst
                        lo = first << _LINE_SHIFT
                        hi = (last + 1) << _LINE_SHIFT
                        dmv[lo:hi] = omv[lo:hi]
                        masks[first : last + 1] = _ZEROS[n]
                        # self._touch(first, last), inlined: the hot flush
                        page = first >> _PAGE_LINE_SHIFT
                        if page == last >> _PAGE_LINE_SHIFT:
                            self._touched.add(page)
                        else:
                            self._touched.update(
                                range(page, (last >> _PAGE_LINE_SHIFT) + 1)
                            )
                        flushed = n
                        bursts = 1
                        if self._media is not None:
                            persisted = list(range(first, last + 1))
                    else:
                        prev = -2
                        lines = [] if self._media is not None else None
                        touch = self._touched.add
                        for i in range(n):
                            if combined & (0xFF << (i << 3)):
                                ln = first + i
                                base = ln << _LINE_SHIFT
                                dmv[base : base + CACHE_LINE] = omv[
                                    base : base + CACHE_LINE
                                ]
                                touch(ln >> _PAGE_LINE_SHIFT)
                                masks[ln] = 0
                                flushed += 1
                                if ln != prev + 1:
                                    bursts += 1
                                prev = ln
                                if lines is not None:
                                    lines.append(ln)
                        persisted = lines
            else:
                flushed, bursts, persisted = self._flush_window_vec(first, last)
            self._dirty_count -= flushed
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            self._media.on_persist(persisted)

    def _flush_window_vec(
        self, first: int, last: int
    ) -> Tuple[int, int, Optional[List[int]]]:
        window = self._np_masks[first : last + 1]
        flushed = int(np.count_nonzero(window))
        if not flushed:
            return 0, 0, None
        dmv = self._mv_durable
        omv = self._mv_overlay
        if flushed == last - first + 1:
            # fully dirty window — one memcpy, one burst
            lo = first << _LINE_SHIFT
            hi = (last + 1) << _LINE_SHIFT
            dmv[lo:hi] = omv[lo:hi]
            self._touch(first, last)
            persisted = (
                list(range(first, last + 1)) if self._media is not None else None
            )
            window[:] = 0
            return flushed, 1, persisted
        # sparse window: one memcpy per run of consecutive dirty lines
        # (the run count doubles as the burst count)
        idx = np.flatnonzero(self._np_dirty[first : last + 1])
        lines = (idx + first).tolist()
        bursts = 0
        run_start = prev = -2
        for ln in lines:
            if ln != prev + 1:
                if bursts:
                    dmv[run_start << _LINE_SHIFT : (prev + 1) << _LINE_SHIFT] = omv[
                        run_start << _LINE_SHIFT : (prev + 1) << _LINE_SHIFT
                    ]
                    self._touch(run_start, prev)
                bursts += 1
                run_start = ln
            prev = ln
        dmv[run_start << _LINE_SHIFT : (prev + 1) << _LINE_SHIFT] = omv[
            run_start << _LINE_SHIFT : (prev + 1) << _LINE_SHIFT
        ]
        self._touch(run_start, prev)
        persisted = lines if self._media is not None else None
        window[idx] = 0
        return flushed, bursts, persisted

    def _persist_all_locked(self) -> None:
        if self._crashed:
            raise DeviceCrashedError("device crashed; call restart() first")
        flushed = 0
        bursts = 0
        persisted: Optional[List[int]] = None
        if self._dirty_count:
            flushed, bursts, persisted = self._flush_window_vec(0, self._n_lines - 1)
            self._dirty_count = 0
        stats = self.stats
        stats.flushes += 1
        stats.flushed_lines += flushed
        stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted:
            self._media.on_persist(persisted)

    @property
    def dirty_lines(self) -> int:
        return self._dirty_count

    # -- failure injection -------------------------------------------------

    def crash(
        self,
        policy: CrashPolicy = CrashPolicy.DROP_ALL,
        survival_prob: float = 0.5,
    ) -> None:
        if self._crashed:
            return
        if self.fingerprint_crashes:
            self.last_crash_fingerprint = self.overlay_fingerprint()
        media = self._media
        crash_lines: Optional[List[Tuple[int, bool]]] = None
        if self._dirty_count:
            masks = self._np_masks
            idx = np.flatnonzero(self._np_dirty)
            if policy is not CrashPolicy.DROP_ALL:
                lines = idx.tolist()
                mvals = masks[idx].tolist()
                if media is not None:
                    full = policy is CrashPolicy.KEEP_ALL
                    crash_lines = [
                        (ln, full and m == _FULL_MASK) for ln, m in zip(lines, mvals)
                    ]
                self._touched.update(np.unique(idx >> _PAGE_LINE_SHIFT).tolist())
                if policy is CrashPolicy.KEEP_ALL:
                    # dirty lines as (line, word, byte): expand each
                    # line's dirty-word bits to a per-word selector and
                    # copy the selected words, for the dirty lines only
                    shape = (-1, _WORDS_PER_LINE, WORD)
                    durable = self._np_durable.reshape(shape)
                    resolved = durable[idx]
                    np.copyto(
                        resolved,
                        self._np_overlay.reshape(shape)[idx],
                        where=np.unpackbits(masks[idx], bitorder="little")
                        .reshape(-1, _WORDS_PER_LINE, 1)
                        .astype(bool),
                    )
                    durable[idx] = resolved
                else:
                    # RANDOM: the per-word python loop is deliberate — RNG
                    # draws must match the pure device draw-for-draw
                    # (ascending line order, word order within the line)
                    rng = self._rng.random
                    dmv = self._mv_durable
                    omv = self._mv_overlay
                    for ln, m in zip(lines, mvals):
                        base = ln << _LINE_SHIFT
                        for w in range(_WORDS_PER_LINE):
                            if m & (1 << w) and rng() < survival_prob:
                                off = base + (w << _WORD_SHIFT)
                                dmv[off : off + WORD] = omv[off : off + WORD]
            masks[idx] = 0
            self._dirty_count = 0
        if crash_lines:
            media.on_crash(crash_lines)
        self._crashed = True

    def _overlay_lines(self) -> List[Tuple[int, int, object]]:
        if not self._dirty_count:
            return []
        masks = self._np_masks
        idx = np.flatnonzero(self._np_dirty)
        omv = self._mv_overlay
        size = self.size
        return [
            (ln, m, omv[ln << _LINE_SHIFT : min((ln + 1) << _LINE_SHIFT, size)])
            for ln, m in zip(idx.tolist(), masks[idx].tolist())
        ]
