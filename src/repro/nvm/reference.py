"""A deliberately naive NVM device: the oracle for the optimized one.

:class:`ReferenceNVMDevice` implements the exact same device contract as
:class:`~repro.nvm.device.NVMDevice` with none of its fast paths: every
store walks its words in a plain loop, every flush scans its line range,
copies move data line by line, the lock is always taken, a declared
read and a gather are one read per declared load, and the crash
fingerprint and the durable clone walk the whole pool.  It shares no
representation with the device it checks: its media is a plain
``bytearray`` and its overlay a dict of per-line buffers and dirty-word
masks, where :class:`~repro.nvm.device.NVMDevice` keeps a flat media
store, mask bytes and per-page buffers.  It is the executable
specification of the *invariance contract*
(docs/INTERNALS.md §8): the differential tests drive randomized
operation / crash / recovery sequences through both devices and assert
bit-identical durable bytes, crash-surviving state, and
:class:`~repro.nvm.stats.NVMStats`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..errors import DeviceCrashedError
from .device import _FULL_MASK, _WORDS_PER_LINE, PAGE, CrashPolicy, NVMDevice
from .latency import CACHE_LINE, WORD


class ReferenceNVMDevice(NVMDevice):
    """Per-word-loop implementation of the device contract."""

    def _alloc_store(self, size: int) -> None:
        # its own representation, shared with nothing it checks
        self._durable = bytearray(size)
        # line index -> (line buffer, dirty-word bitmask)
        self._dirty: Dict[int, Tuple[bytearray, int]] = {}

    # -- the crash image, naively --------------------------------------------
    #
    # The optimized device remembers which pages it wrote and hashes /
    # copies only those, and carries an overlay over as page buffers.
    # This one keeps no such record: its fingerprint scans every page of
    # the pool, its clone copies all of it and every per-line entry,
    # which is the spec the tracked walk is tested against.

    def _durable_pages(self) -> Iterator[Tuple[int, bytes]]:
        for page in range((self.size + PAGE - 1) // PAGE):
            data = bytes(self._durable[page * PAGE : (page + 1) * PAGE])
            if data != bytes(len(data)):
                yield page, data

    def _copy_durable_to(self, clone: NVMDevice) -> None:
        clone._durable[:] = self._durable

    def _copy_overlay_to(self, clone: NVMDevice) -> None:
        clone._dirty = {line: (bytearray(buf), mask) for line, (buf, mask) in self._dirty.items()}

    # -- raw overlay data path ---------------------------------------------

    def _line_buffer(self, line: int):
        """Return (buffer, mask) for ``line``, faulting it in if clean."""
        entry = self._dirty.get(line)
        if entry is None:
            base = line * CACHE_LINE
            entry = (bytearray(self._durable[base : base + CACHE_LINE]), 0)
            self._dirty[line] = entry
        return entry

    def _peek(self, addr: int, size: int) -> bytes:
        out = bytearray(self._durable[addr : addr + size])
        first = addr // CACHE_LINE
        last = (addr + size - 1) // CACHE_LINE
        for line in range(first, last + 1):
            entry = self._dirty.get(line)
            if entry is None:
                continue
            base = line * CACHE_LINE
            lo = max(addr, base)
            hi = min(addr + size, base + CACHE_LINE)
            out[lo - addr : hi - addr] = entry[0][lo - base : hi - base]
        return bytes(out)

    def _poke(self, addr: int, data) -> None:
        size = len(data)
        pos = 0
        while pos < size:
            at = addr + pos
            line = at // CACHE_LINE
            base = line * CACHE_LINE
            off = at - base
            take = min(CACHE_LINE - off, size - pos)
            buf, mask = self._line_buffer(line)
            buf[off : off + take] = data[pos : pos + take]
            first_word = off // WORD
            last_word = (off + take - 1) // WORD
            for w in range(first_word, last_word + 1):
                mask |= 1 << w
            self._dirty[line] = (buf, mask)
            pos += take

    # -- device contract, naively ------------------------------------------

    def _read_locked(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        self.stats.loads += 1
        self.stats.load_bytes += size
        if self._media is not None:
            self._media.check_read(addr, size)
        return self._peek(addr, size)

    def read_declared(self, addr: int, size: int, loads) -> bytes:
        # the spec of a declared read: one read per declared load, in
        # order, then the block itself uncharged
        with self._mutex:
            for rel, n in loads:
                self._read_locked(addr + rel, n)
            self._check(addr, size)
            return self._peek(addr, size)

    def read_gather(self, addr: int, loads) -> bytes:
        # the spec of a gather: one read per declared load, in order
        with self._mutex:
            return b"".join([self._read_locked(addr + rel, n) for rel, n in loads])

    def _write_locked(self, addr: int, data) -> None:
        self._tick_failpoint()
        self._check(addr, len(data))
        self.stats.stores += 1
        self.stats.store_bytes += len(data)
        self._poke(addr, data)

    def persist(self, addr: int, data) -> None:
        # the spec of a durable store: three calls, three lock holds
        self.write(addr, data)
        self.flush(addr, len(data))
        self.fence()

    def _copy_locked(self, dst: int, src: int, size: int, chunks: int = 1) -> None:
        self._tick_failpoint()
        self._check(src, size)
        self._check(dst, size)
        self.stats.copies += chunks
        self.stats.copy_bytes += size
        if self._media is not None:
            self._media.check_read(src, size)
        self._poke(dst, self._peek(src, size))

    def _flush_locked(self, addr: int, size: int) -> None:
        self._tick_failpoint()
        self._check(addr, size)
        first = addr // CACHE_LINE
        last = (addr + size - 1) // CACHE_LINE
        flushed = 0
        bursts = 0
        in_burst = False
        persisted = []
        partial = []
        for line in range(first, last + 1):
            entry = self._dirty.pop(line, None)
            if entry is None:
                in_burst = False
                continue
            base = line * CACHE_LINE
            self._durable[base : base + CACHE_LINE] = entry[0]
            persisted.append(line)
            if entry[1] != _FULL_MASK:
                partial.append(line)
            flushed += 1
            if not in_burst:
                bursts += 1
                in_burst = True
        self.stats.flushes += 1
        self.stats.flushed_lines += flushed
        self.stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted and self._media is not None:
            self._media.on_persist(persisted, partial)

    def _persist_all_locked(self) -> None:
        if self._crashed:
            raise DeviceCrashedError("device crashed; call restart() first")
        flushed = 0
        bursts = 0
        prev_line = None
        persisted = []
        partial = []
        for line in sorted(self._dirty):
            buf, mask = self._dirty[line]
            base = line * CACHE_LINE
            self._durable[base : base + CACHE_LINE] = buf
            persisted.append(line)
            if mask != _FULL_MASK:
                partial.append(line)
            flushed += 1
            if prev_line is None or line != prev_line + 1:
                bursts += 1
            prev_line = line
        self._dirty.clear()
        self.stats.flushes += 1
        self.stats.flushed_lines += flushed
        self.stats.flush_bursts += bursts if self.coalesce_flushes else flushed
        if persisted and self._media is not None:
            self._media.on_persist(persisted, partial)

    def crash(
        self,
        policy: CrashPolicy = CrashPolicy.DROP_ALL,
        survival_prob: float = 0.5,
    ) -> None:
        if self._crashed:
            return
        crash_lines = None
        if self._media is not None and policy is not CrashPolicy.DROP_ALL:
            full = policy is CrashPolicy.KEEP_ALL
            crash_lines = [
                (line, full and mask == _FULL_MASK)
                for line, (_buf, mask) in self._dirty.items()
            ]
        for line in sorted(self._dirty):
            buf, mask = self._dirty[line]
            base = line * CACHE_LINE
            for w in range(_WORDS_PER_LINE):
                if not mask & (1 << w):
                    continue
                if policy is CrashPolicy.DROP_ALL:
                    survives = False
                elif policy is CrashPolicy.KEEP_ALL:
                    survives = True
                else:
                    survives = self._rng.random() < survival_prob
                if survives:
                    off = w * WORD
                    self._durable[base + off : base + off + WORD] = buf[off : off + WORD]
        if crash_lines:
            self._media.on_crash(crash_lines)
        self._dirty.clear()
        self._crashed = True

    @property
    def dirty_lines(self) -> int:
        return len(self._dirty)

    def _overlay_lines(self) -> List[Tuple[int, int, object]]:
        return [(line, mask, buf) for line, (buf, mask) in sorted(self._dirty.items())]
