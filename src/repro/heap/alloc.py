"""Segregated bitmap slab allocator for the persistent heap.

All *persistent* allocator state is bitmap words and a chunk table —
8-byte, power-fail-atomic units — so allocation and deallocation reduce
to ordinary transactional word writes.  This realises the paper's §6.1:
"allocations and deallocations are simply treated as modifications to
persistent metadata objects that the application atomically modifies
indirectly via the object allocation and deallocation calls made within
transactions."  Abort (or crash rollback) of the metadata word undoes
the allocation; nothing leaks.

Layout of the heap region::

    [header 64B][chunk table][bitmap area][data chunks ...]

Each chunk is dedicated, on first use, to one size class (32 B … 4 KiB).
A chunk's bitmap has one bit per slot.  Volatile mirrors (free counts,
class lists, word caches) accelerate the search and are rebuilt from the
persistent words on reopen.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from ..errors import (
    DoubleFreeError,
    HeapError,
    InvalidPointerError,
    OutOfMemoryError,
    PoolCorruptionError,
)
from ..nvm.pool import PmemRegion
from ..tx.base import IntentKind, Transaction

SIZE_CLASSES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
MIN_BLOCK = SIZE_CLASSES[0]
MAX_BLOCK = SIZE_CLASSES[-1]

ALLOC_MAGIC = 0x534C4142  # "SLAB"
_HDR_FMT = "<QQQQQQ"  # magic, chunk_size, n_chunks, chunktab_off, bitmap_off, data_off
_HDR_SIZE = struct.calcsize(_HDR_FMT)

_WORD_BITS = 64
_ALL_ONES = (1 << _WORD_BITS) - 1


def class_for(nbytes: int) -> int:
    """Smallest size class that fits ``nbytes``; raises if too large."""
    for c in SIZE_CLASSES:
        if nbytes <= c:
            return c
    raise OutOfMemoryError(
        f"allocation of {nbytes} bytes exceeds the largest class ({MAX_BLOCK})"
    )


class SlabAllocator:
    """Transactional slab allocator over one heap region.

    The allocator never touches the device directly for mutations: every
    persistent write goes through ``writer.tx_raw_write`` so the active
    atomicity engine captures it.  ``writer`` is the owning heap.

    Args:
        region: the heap region (shared with object data).
        writer: object providing ``tx_raw_write(tx, off, data, kind)``.
        chunk_size: bytes per chunk; must be a multiple of ``MAX_BLOCK``.
    """

    def __init__(self, region: PmemRegion, writer, chunk_size: int = 64 * 1024):
        if chunk_size % MAX_BLOCK != 0:
            raise HeapError("chunk_size must be a multiple of the largest class")
        self.region = region
        self.writer = writer
        self.chunk_size = chunk_size
        # persistent geometry, fixed at format time
        self.n_chunks = 0
        self.chunktab_off = 0
        self.bitmap_off = 0
        self.data_off = 0
        self._bitmap_stride = chunk_size // MIN_BLOCK // 8  # bytes per chunk bitmap
        # volatile mirrors
        self._chunk_class: List[int] = []
        self._free_counts: List[int] = []
        self._words: List[List[int]] = []  # per chunk, bitmap words
        self._class_chunks: Dict[int, List[int]] = {c: [] for c in SIZE_CLASSES}
        self._unassigned: List[int] = []

    # -- geometry -------------------------------------------------------------

    def _compute_geometry(self) -> None:
        """Split the region into chunk table, bitmaps, and data chunks."""
        per_chunk = 8 + self._bitmap_stride + self.chunk_size
        budget = self.region.size - 64
        n = budget // per_chunk
        if n < 1:
            raise HeapError(
                f"heap region of {self.region.size} bytes too small for one "
                f"{self.chunk_size}-byte chunk"
            )
        self.n_chunks = n
        self.chunktab_off = 64
        self.bitmap_off = self.chunktab_off + 8 * n
        # align data to the chunk size for tidy arithmetic
        data = self.bitmap_off + self._bitmap_stride * n
        self.data_off = (data + 63) // 64 * 64

    # -- lifecycle --------------------------------------------------------------

    def format(self) -> None:
        """Initialise a fresh region (device bytes are already zero)."""
        self._compute_geometry()
        header = struct.pack(
            _HDR_FMT,
            ALLOC_MAGIC,
            self.chunk_size,
            self.n_chunks,
            self.chunktab_off,
            self.bitmap_off,
            self.data_off,
        )
        self.region.write(0, header)
        self.region.flush(0, _HDR_SIZE)
        self.region.pool.device.fence()
        self._reset_mirrors()

    def open(self) -> None:
        """Rebuild volatile mirrors from persistent state after reopen."""
        raw = self.region.read(0, _HDR_SIZE)
        magic, chunk_size, *geometry = struct.unpack(_HDR_FMT, raw)
        if magic != ALLOC_MAGIC:
            raise PoolCorruptionError("heap region has no allocator header")
        # the header is self-validating: its geometry is what the region
        # size derives for the stored chunk size, so rotted fields fail
        # here instead of sizing the mirrors and reads from garbage
        if chunk_size == 0 or chunk_size % MAX_BLOCK:
            raise PoolCorruptionError(f"allocator header chunk size {chunk_size}")
        self.chunk_size = chunk_size
        self._bitmap_stride = chunk_size // MIN_BLOCK // 8
        try:
            self._compute_geometry()
        except HeapError as exc:
            raise PoolCorruptionError(f"allocator header: {exc}") from exc
        derived = [self.n_chunks, self.chunktab_off, self.bitmap_off, self.data_off]
        if geometry != derived:
            raise PoolCorruptionError(
                f"allocator header geometry {geometry} != {derived} derived "
                f"from the region size"
            )
        self._reset_mirrors()
        n = self.n_chunks
        tab = self.region.read(self.chunktab_off, 8 * n)
        for ci in range(n):
            cls = struct.unpack_from("<Q", tab, ci * 8)[0]
            if cls == 0:
                continue
            if cls not in SIZE_CLASSES:
                raise PoolCorruptionError(f"chunk {ci} has invalid class {cls}")
            self._assign_mirror(ci, cls)
            self._reload_chunk_words(ci)

    def _reset_mirrors(self) -> None:
        self._chunk_class = [0] * self.n_chunks
        self._free_counts = [0] * self.n_chunks
        self._words = [[] for _ in range(self.n_chunks)]
        self._class_chunks = {c: [] for c in SIZE_CLASSES}
        self._unassigned = list(range(self.n_chunks - 1, -1, -1))

    def _assign_mirror(self, ci: int, cls: int) -> None:
        self._chunk_class[ci] = cls
        self._class_chunks[cls].append(ci)
        if ci in self._unassigned:
            self._unassigned.remove(ci)
        nslots = self.chunk_size // cls
        self._words[ci] = [0] * ((nslots + _WORD_BITS - 1) // _WORD_BITS)
        self._free_counts[ci] = nslots

    def _reload_chunk_words(self, ci: int) -> None:
        """Re-read a chunk's bitmap words from NVM into the mirror."""
        cls = self._chunk_class[ci]
        if cls == 0:
            return
        nslots = self.chunk_size // cls
        nwords = (nslots + _WORD_BITS - 1) // _WORD_BITS
        raw = self.region.read(self.bitmap_off + ci * self._bitmap_stride, nwords * 8)
        words = list(struct.unpack(f"<{nwords}Q", raw))
        self._words[ci] = words
        used = sum(bin(w).count("1") for w in words)
        self._free_counts[ci] = nslots - used

    # -- queries ----------------------------------------------------------------

    def block_size_of(self, block_off: int) -> int:
        """Size class of the block at ``block_off`` (data-area offset)."""
        # on every transactional read's lock path: only the chunk-class
        # lookup is needed, so the full _locate() validation is deferred
        # to the error branch
        rel = block_off - self.data_off
        if rel >= 0:
            ci = rel // self.chunk_size
            if ci < self.n_chunks:
                cls = self._chunk_class[ci]
                if cls and rel % self.chunk_size % cls == 0:
                    return cls
        _ci, cls, _slot = self._locate(block_off)
        return cls

    def is_allocated(self, block_off: int) -> bool:
        ci, cls, slot = self._locate(block_off)
        word = self._words[ci][slot // _WORD_BITS]
        return bool(word & (1 << (slot % _WORD_BITS)))

    def _locate(self, block_off: int) -> Tuple[int, int, int]:
        if block_off < self.data_off:
            raise InvalidPointerError(f"offset {block_off} before data area")
        rel = block_off - self.data_off
        ci = rel // self.chunk_size
        if ci >= self.n_chunks:
            raise InvalidPointerError(f"offset {block_off} past last chunk")
        cls = self._chunk_class[ci]
        if cls == 0:
            raise InvalidPointerError(f"offset {block_off} in unassigned chunk {ci}")
        within = rel % self.chunk_size
        if within % cls != 0:
            raise InvalidPointerError(
                f"offset {block_off} not aligned to class {cls} in chunk {ci}"
            )
        return ci, cls, within // cls

    def live_ranges(self) -> List[Tuple[int, int]]:
        """(offset, size) of every byte the mirror invariant covers:
        the allocator metadata area plus each allocated block.

        Free data bytes are exempt — rolling back an aborted/crashed
        allocation undoes only the bitmap word (``IntentKind.ALLOC``
        carries no undo data), so a torn store into a block that was
        never successfully allocated legitimately survives in main
        without a backup counterpart.  Adjacent ranges are coalesced.

        Walks bitmap words, not slots: a zero word costs one test, and
        each run of set bits is one range.
        """
        ranges: List[Tuple[int, int]] = [(0, self.data_off)]
        for ci, cls in enumerate(self._chunk_class):
            if cls == 0:
                continue
            base = self.data_off + ci * self.chunk_size
            nslots = self.chunk_size // cls
            for wi, word in enumerate(self._words[ci]):
                if not word:
                    continue
                first = wi * _WORD_BITS
                if nslots - first < _WORD_BITS:
                    word &= (1 << (nslots - first)) - 1  # bits past the chunk
                while word:
                    start = (word & -word).bit_length() - 1
                    run = word >> start
                    length = ((run ^ (run + 1)) >> 1).bit_length()
                    word &= ~(((1 << length) - 1) << start)
                    off = base + (first + start) * cls
                    last_off, last_size = ranges[-1]
                    if last_off + last_size == off:
                        ranges[-1] = (last_off, last_size + length * cls)
                    else:
                        ranges.append((off, length * cls))
        return ranges

    @property
    def allocated_bytes(self) -> int:
        total = 0
        for ci, cls in enumerate(self._chunk_class):
            if cls:
                nslots = self.chunk_size // cls
                total += (nslots - self._free_counts[ci]) * cls
        return total

    @property
    def capacity_bytes(self) -> int:
        return self.n_chunks * self.chunk_size

    # -- allocation ----------------------------------------------------------------

    def alloc(self, tx: Transaction, nbytes: int) -> int:
        """Allocate a block of at least ``nbytes``; returns its offset.

        The bitmap word write is a regular transactional ``WRITE`` so the
        engine can undo it on abort; the block itself is reported as an
        ``ALLOC`` intent (no undo data needed for fresh contents).
        """
        cls = class_for(nbytes)
        ci = self._find_chunk(tx, cls)
        slot = self._find_slot(ci)
        self._set_bit(tx, ci, cls, slot, value=True)
        block_off = self.data_off + ci * self.chunk_size + slot * cls
        tx.add(block_off, cls, IntentKind.ALLOC)
        # zero the block so freshly allocated fields read as defaults
        self.writer.tx_raw_write(tx, block_off, b"\0" * cls, declared=True)
        return block_off

    def _find_chunk(self, tx: Transaction, cls: int) -> int:
        for ci in self._class_chunks[cls]:
            if self._free_counts[ci] > 0:
                return ci
        return self._claim_chunk(tx, cls)

    def _claim_chunk(self, tx: Transaction, cls: int) -> int:
        if not self._unassigned:
            raise OutOfMemoryError(
                f"no free chunk for class {cls}; heap capacity exhausted"
            )
        ci = self._unassigned[-1]
        entry_off = self.chunktab_off + ci * 8
        self.writer.tx_raw_write(tx, entry_off, struct.pack("<Q", cls))
        self._unassigned.pop()
        self._assign_mirror_for_tx(tx, ci, cls)
        return ci

    def _assign_mirror_for_tx(self, tx: Transaction, ci: int, cls: int) -> None:
        self._chunk_class[ci] = cls
        self._class_chunks[cls].append(ci)
        nslots = self.chunk_size // cls
        self._words[ci] = [0] * ((nslots + _WORD_BITS - 1) // _WORD_BITS)
        self._free_counts[ci] = nslots

        def undo_claim() -> None:
            self._chunk_class[ci] = 0
            self._class_chunks[cls].remove(ci)
            self._words[ci] = []
            self._free_counts[ci] = 0
            self._unassigned.append(ci)

        tx.on_abort.append(undo_claim)

    def _find_slot(self, ci: int) -> int:
        cls = self._chunk_class[ci]
        nslots = self.chunk_size // cls
        words = self._words[ci]
        for wi, word in enumerate(words):
            if word == _ALL_ONES:
                continue
            base = wi * _WORD_BITS
            limit = min(_WORD_BITS, nslots - base)
            inv = ~word
            for b in range(limit):
                if inv & (1 << b):
                    return base + b
        raise OutOfMemoryError(f"chunk {ci} unexpectedly full")  # pragma: no cover

    # -- deallocation ---------------------------------------------------------------

    def defer_free(self, tx: Transaction, block_off: int) -> None:
        """Schedule ``block_off`` for deallocation at commit (TX_FREE)."""
        ci, cls, slot = self._locate(block_off)
        word = self._words[ci][slot // _WORD_BITS]
        if not word & (1 << (slot % _WORD_BITS)):
            raise DoubleFreeError(f"block at {block_off} is not allocated")
        for pending_off, _sz in tx.deferred_frees:
            if pending_off == block_off:
                raise DoubleFreeError(f"block at {block_off} freed twice in one tx")
        tx.deferred_frees.append((block_off, cls))
        tx.add(block_off, cls, IntentKind.FREE)

    def apply_free(self, tx: Transaction, block_off: int, size: int) -> None:
        """Clear the bitmap bit; called by the engine at commit time."""
        ci, cls, slot = self._locate(block_off)
        self._set_bit(tx, ci, cls, slot, value=False)

    # -- bit plumbing -----------------------------------------------------------------

    def _set_bit(self, tx: Transaction, ci: int, cls: int, slot: int, value: bool) -> None:
        wi = slot // _WORD_BITS
        bit = 1 << (slot % _WORD_BITS)
        old = self._words[ci][wi]
        new = (old | bit) if value else (old & ~bit)
        word_off = self.bitmap_off + ci * self._bitmap_stride + wi * 8
        self.writer.tx_raw_write(tx, word_off, struct.pack("<Q", new))
        self._words[ci][wi] = new
        self._free_counts[ci] += -1 if value else 1

        def undo_bit() -> None:
            self._words[ci][wi] = old
            self._free_counts[ci] += 1 if value else -1

        tx.on_abort.append(undo_bit)
