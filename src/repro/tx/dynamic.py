"""Kamino-Tx-Dynamic: a partial, LRU-managed backup region (paper §4).

Instead of mirroring the whole heap (2 × dataSize), the dynamic backup
holds copies of only the most frequently *modified* objects in a region
of ``α × dataSize`` (α ∈ (0, 1]), for a total storage requirement of
(1+α) × dataSize.  The structure follows Figure 7:

* a **persistent look-up table** mapping heap offsets to backup slots —
  our implementation is a flat array of self-checksummed 32-byte entries
  (word-atomic state transitions, no transactions needed: the table *is*
  part of the atomicity machinery);
* a **volatile LRU queue** choosing eviction victims;
* objects currently locked by transactions are **pinned** ("locked
  objects are never evicted to ensure safety, that is pending objects
  are never candidates for eviction", §6.4).

A write to an object with no copy pays a critical-path copy-on-miss;
hits proceed exactly like Kamino-Tx-Simple.  Applications with skewed
write working sets therefore get close to full-backup latency at a
fraction of the storage — the trade-off Figures 14–16 quantify.

Recovery rebuilds the volatile index from the table with one *declared*
read (docs/INTERNALS.md §8): the whole table in one block, charged as
the one 32-byte load per entry that a per-entry walk makes, so a reopen
costs the same simulated time and one device call instead of one per
entry.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from itertools import compress
from typing import Dict, List, Optional, Set, Tuple

from ..errors import HeapError, PoolCorruptionError, RecoveryError
from ..nvm.device import DeclaredLoads
from ..nvm.latency import CACHE_LINE
from ..nvm.pool import PmemPool, PmemRegion
from ..runtime.registry import EngineCapabilities, register_engine
from .backup import BackupStrategy
from .base import IntentKind
from .kamino import KaminoEngine

DYN_BACKUP_REGION = "dyn_backup"
DYN_LOOKUP_REGION = "dyn_lookup"

_SLOT_CLASSES = (32, 64, 128, 256, 512, 1024, 2048, 4096)

_ENTRY_SIZE = 32
_ENTRY_FMT = "<QQQQ"  # heap_off, backup_off, size(low32)|slot_size(high32), state_check
_ENTRY = struct.Struct(_ENTRY_FMT)
_STATE_WORD = 3  # the state_check word's index within an entry
#: the look-up table scan skips all-zero runs of this many bytes (a
#: whole number of entries) without decoding them
_ZERO_CHUNK_SIZE = 2048 * _ENTRY_SIZE
_ZERO_CHUNK = bytes(_ZERO_CHUNK_SIZE)

_STATE_VALID = 0xD15C0
_STATE_EMPTY = 0


def _entry_state(heap_off: int, backup_off: int, sizes: int) -> int:
    """Self-checking VALID marker: detects torn entry writes at recovery."""
    mix = (heap_off * 0x9E3779B97F4A7C15 + backup_off * 0x100000001B3 + sizes) & 0xFFFFFFFFFF
    return (_STATE_VALID << 40) | mix


class _LookupTable:
    """The persistent hash/array mapping heap offsets to backup slots.

    A flat array is sufficient (and simpler to make crash-consistent than
    chained buckets): the volatile index on top gives O(1) lookups, and
    recovery rebuilds it with one declared read of the whole table.
    """

    def __init__(self, region: PmemRegion, fresh: bool):
        self.region = region
        self.capacity = region.size // _ENTRY_SIZE
        #: heap_off -> (index, backup_off, size, slot_size)
        self.index: Dict[int, Tuple[int, int, int, int]] = {}
        self._free_indices: List[int] = []
        if fresh:
            self._free_indices = list(range(self.capacity - 1, -1, -1))
        else:
            self.scan()

    def scan(self) -> None:
        """Rebuild the volatile index from persistent entries (reopen).

        One declared read of the whole table, charged as the
        ``capacity`` 32-byte entry loads of a per-entry walk.  Only
        entries whose state word is non-zero are decoded (an empty state
        is free whatever the other words hold), and since entries are
        taken lowest index first, the all-zero tail of a long table is
        skipped a chunk at a time before the state words are looked at.
        """
        capacity = self.capacity
        raw = self.region.read_declared(
            0, capacity * _ENTRY_SIZE, DeclaredLoads.strided(capacity, _ENTRY_SIZE)
        )
        end = len(raw)
        while end >= _ZERO_CHUNK_SIZE and raw[end - _ZERO_CHUNK_SIZE : end] == _ZERO_CHUNK:
            end -= _ZERO_CHUNK_SIZE
        states = memoryview(raw)[:end].cast("Q")[_STATE_WORD :: _ENTRY_SIZE // 8]
        self.index = {}
        valid: List[int] = []
        for i in compress(range(end // _ENTRY_SIZE), states):
            heap_off, backup_off, sizes, state = _ENTRY.unpack_from(raw, i * _ENTRY_SIZE)
            if state != _entry_state(heap_off, backup_off, sizes):
                continue  # torn
            self.index[heap_off] = (i, backup_off, sizes & 0xFFFFFFFF, sizes >> 32)
            valid.append(i)
        # every other index is free, highest first (insert pops the lowest)
        free: List[int] = []
        top = capacity
        for i in reversed(valid):
            free.extend(range(top - 1, i, -1))
            top = i
        free.extend(range(top - 1, -1, -1))
        self._free_indices = free

    def insert(self, heap_off: int, backup_off: int, size: int, slot_size: int) -> int:
        if not self._free_indices:
            raise HeapError("dynamic backup lookup table full")
        i = self._free_indices.pop()
        sizes = (slot_size << 32) | size
        raw = struct.pack(
            _ENTRY_FMT, heap_off, backup_off, sizes, _entry_state(heap_off, backup_off, sizes)
        )
        self.region.write(i * _ENTRY_SIZE, raw)
        self.region.flush(i * _ENTRY_SIZE, _ENTRY_SIZE)
        self.region.pool.device.fence()
        self.index[heap_off] = (i, backup_off, size, slot_size)
        return i

    def remove(self, heap_off: int) -> Tuple[int, int]:
        """Tombstone the entry; returns (backup_off, slot_size) to recycle."""
        i, backup_off, _size, slot_size = self.index.pop(heap_off)
        # zero the state word (word-atomic) — the entry is dead
        self.region.write(i * _ENTRY_SIZE + 24, struct.pack("<Q", _STATE_EMPTY))
        self.region.flush(i * _ENTRY_SIZE + 24, 8)
        self.region.pool.device.fence()
        self._free_indices.append(i)
        return backup_off, slot_size

    def get(self, heap_off: int) -> Optional[Tuple[int, int, int, int]]:
        return self.index.get(heap_off)


class DynamicBackup(BackupStrategy):
    """α-sized partial backup with LRU replacement; see module docstring.

    Args:
        alpha: backup capacity as a fraction of the heap region size.
        lookup_entries: persistent look-up table capacity; defaults to
            one entry per 128 bytes of backup space, enough for the
            smallest objects to fill the region.
    """

    def __init__(self, alpha: float = 0.5, lookup_entries: Optional[int] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._lookup_entries = lookup_entries
        self.region: Optional[PmemRegion] = None
        self.lookup: Optional[_LookupTable] = None
        self.heap_region: Optional[PmemRegion] = None
        self._bump = 0
        self._free_slots: Dict[int, List[int]] = {c: [] for c in _SLOT_CLASSES}
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._pinned: Dict[int, int] = {}  # offset -> pin count
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- attach -----------------------------------------------------------------

    def attach(self, pool: PmemPool, heap_region: PmemRegion, fresh: bool) -> None:
        self.heap_region = heap_region
        cap = max(4096, int(self.alpha * heap_region.size))
        entries = self._lookup_entries or max(64, cap // 128)
        self.region = pool.region_or_create(DYN_BACKUP_REGION, cap)
        lookup_region = pool.region_or_create(DYN_LOOKUP_REGION, entries * _ENTRY_SIZE)
        self.lookup = _LookupTable(lookup_region, fresh)
        if not fresh:
            self._rebuild_slots()
        # LRU starts cold either way; pins are rebuilt by the lock table

    def _rebuild_slots(self) -> None:
        """Recompute bump pointer and free lists from surviving entries."""
        used = sorted(
            (backup_off, slot_size)
            for (_i, backup_off, _size, slot_size) in self.lookup.index.values()
        )
        self._bump = 0
        self._free_slots = {c: [] for c in _SLOT_CLASSES}
        for backup_off, slot_size in used:
            # gaps below the bump line become free slots of unknown class —
            # conservatively skipped; the bump line moves past them
            self._bump = max(self._bump, backup_off + slot_size)
        for heap_off in self.lookup.index:
            self._lru[heap_off] = None

    # -- slot management ------------------------------------------------------------

    @staticmethod
    def _slot_class(size: int) -> int:
        for c in _SLOT_CLASSES:
            if size <= c:
                return c
        raise HeapError(f"object of {size} bytes exceeds largest backup slot")

    def _alloc_slot(self, size: int) -> Tuple[int, int]:
        """Find a backup slot: free list, then bump space, then eviction."""
        cls = self._slot_class(size)
        if self._free_slots[cls]:
            return self._free_slots[cls].pop(), cls
        if self._bump + cls <= self.region.size:
            off = self._bump
            self._bump += cls
            return off, cls
        victim = self._pick_victim(cls)
        backup_off, slot_size = self.lookup.remove(victim)
        self._lru.pop(victim, None)
        self.evictions += 1
        if slot_size == cls:
            return backup_off, cls
        # recycle a larger slot with internal waste; smaller ones go to
        # their class free list and we retry
        if slot_size > cls:
            return backup_off, slot_size
        self._free_slots[slot_size].append(backup_off)
        return self._alloc_slot(size)

    def _pick_victim(self, needed_cls: int) -> int:
        """Least-recently-updated unpinned entry, preferring fitting slots."""
        fallback = None
        for heap_off in self._lru:
            if heap_off in self._pinned:
                continue
            slot_size = self.lookup.index[heap_off][3]
            if slot_size >= needed_cls:
                return heap_off
            if fallback is None:
                fallback = heap_off
        if fallback is not None:
            return fallback
        raise HeapError(
            "dynamic backup exhausted: every copy is pinned by a live "
            "transaction; increase alpha"
        )

    # -- BackupStrategy -------------------------------------------------------------

    def ensure_copy(self, offset: int, size: int) -> None:
        entry = self.lookup.get(offset)
        if entry is not None:
            self.hits += 1
            self._lru.move_to_end(offset)
            return
        self.misses += 1
        self._insert_copy(offset, size)

    def _insert_copy(self, offset: int, size: int) -> Tuple[int, int, int, int]:
        if not self.lookup._free_indices:
            # the lookup table is the scarce resource: evict to free a row
            victim = self._pick_victim(self._slot_class(size))
            v_off, v_slot = self.lookup.remove(victim)
            self._lru.pop(victim, None)
            self.evictions += 1
            self._free_slots.setdefault(v_slot, []).append(v_off)
        backup_off, slot_size = self._alloc_slot(size)
        device = self.region.pool.device
        device.copy(self.region.offset + backup_off, self.heap_region.offset + offset, size)
        self.region.flush(backup_off, size)
        device.fence()
        i = self.lookup.insert(offset, backup_off, size, slot_size)
        self._lru[offset] = None
        self._lru.move_to_end(offset)
        return (i, backup_off, size, slot_size)

    def absorb_entries(self, entries) -> None:
        """Sync-drain with batched flushes.

        Backup slots are scattered, so the copies cannot interval-merge
        like the full mirror's; instead consecutive absorbs defer their
        backup-region flushes into one ``flush_multi`` call.  Deferral is
        only legal while the pending ranges are pairwise line-disjoint
        (two sub-line slots sharing a cache line must flush in program
        order or ``flushed_lines`` drifts), and drains before any FREE
        bookkeeping so the tombstone's flush+fence ordering is untouched.
        """
        device = self.region.pool.device
        pending = []  # region-relative (backup_off, size)
        pending_lines = set()

        def drain() -> None:
            self.region.flush_multi(pending)
            pending.clear()
            pending_lines.clear()

        for entry in entries:
            if entry.kind is IntentKind.FREE:
                if pending:
                    drain()
                self.on_free_synced(entry.offset, entry.size)
                continue
            hit = self.lookup.get(entry.offset)
            if hit is None:
                # no cached copy — same skip as absorb()
                continue
            _i, backup_off, _esize, _slot = hit
            size = entry.size
            lines = range(
                backup_off // CACHE_LINE, (backup_off + size - 1) // CACHE_LINE + 1
            )
            if any(line in pending_lines for line in lines):
                drain()
            device.copy(
                self.region.offset + backup_off,
                self.heap_region.offset + entry.offset,
                size,
            )
            pending.append((backup_off, size))
            pending_lines.update(lines)
            self._lru.move_to_end(entry.offset)
        if pending:
            drain()

    def absorb(self, offset: int, size: int) -> None:
        entry = self.lookup.get(offset)
        if entry is None:
            # No cached copy (a freshly allocated block, or an entry
            # dropped by a committed free): nothing to roll forward.  A
            # later WRITE intent will copy-on-miss, so skipping keeps the
            # α budget for objects that are actually re-modified.
            return
        _i, backup_off, esize, _slot = entry
        device = self.region.pool.device
        device.copy(self.region.offset + backup_off, self.heap_region.offset + offset, size)
        self.region.flush(backup_off, size)
        self._lru.move_to_end(offset)

    def restore(self, offset: int, size: int) -> None:
        entry = self.lookup.get(offset)
        if entry is None:
            raise RecoveryError(
                f"no backup copy for offset {offset}: rollback impossible "
                f"(pinning invariant violated)"
            )
        _i, backup_off, _esize, _slot = entry
        device = self.region.pool.device
        device.copy(self.heap_region.offset + offset, self.region.offset + backup_off, size)
        self.heap_region.flush(offset, size)

    def on_free_synced(self, offset: int, size: int) -> None:
        entry = self.lookup.get(offset)
        if entry is None:
            return
        backup_off, slot_size = self.lookup.remove(offset)
        self._lru.pop(offset, None)
        self._free_slots.setdefault(slot_size, []).append(backup_off)

    def pin(self, offset: int) -> None:
        self._pinned[offset] = self._pinned.get(offset, 0) + 1

    def unpin(self, offset: int) -> None:
        count = self._pinned.get(offset, 0)
        if count <= 1:
            self._pinned.pop(offset, None)
        else:
            self._pinned[offset] = count - 1

    @property
    def storage_bytes(self) -> int:
        total = self.region.size if self.region else 0
        if self.lookup is not None:
            total += self.lookup.region.size
        return total

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@register_engine(
    "kamino-dynamic",
    capabilities=EngineCapabilities(
        description="atomic in-place updates, alpha-sized LRU partial backup (copy-on-miss)",
        copies_in_critical_path=False,
        has_backup=True,
        locks_released_after_sync=True,
        cost_profile="kamino",
        options=("alpha",),
    ),
)
def kamino_dynamic(alpha: float = 0.5, **kwargs) -> KaminoEngine:
    """Kamino-Tx-Dynamic: in-place updates with an α-sized partial backup."""
    engine = KaminoEngine(backup=DynamicBackup(alpha=alpha), **kwargs)
    engine.name = f"kamino-dynamic-{int(alpha * 100)}"
    return engine
