"""Persistent memory pools: named, reopenable regions on an NVM device.

A :class:`PmemPool` plays the role of an NVML/PMDK *pool*: a header with a
magic number and a root-object pointer, plus a small persistent region
table that subsystems (heap, intent log, backup, …) carve their space
from.  Reopening a pool after a crash validates the header and hands each
subsystem back the same region, which is where recovery starts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import OutOfBoundsError, PoolCorruptionError
from .device import NVMDevice
from .latency import CACHE_LINE

MAGIC = 0x4B414D494E4F5458  # "KAMINOTX"
VERSION = 1

_HEADER_FMT = "<QQQQQ"  # magic, version, pool size, root offset, region count
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

_REGION_NAME_LEN = 24
_REGION_FMT = f"<{_REGION_NAME_LEN}sQQ"  # name, offset, size
_REGION_SIZE = struct.calcsize(_REGION_FMT)
MAX_REGIONS = 16

_TABLE_OFF = CACHE_LINE  # region table starts at the second cache line
DATA_START = _TABLE_OFF + MAX_REGIONS * _REGION_SIZE
# round the first allocatable byte up to a cache line
DATA_START = (DATA_START + CACHE_LINE - 1) // CACHE_LINE * CACHE_LINE

#: region holding the quarantine table and spare lines; created lazily on
#: the first :meth:`PmemPool.quarantine_line` call so pools that never see
#: a dead line pay nothing for it.
QUARANTINE_REGION = "quarantine"
SPARE_LINES = 32

_Q_ENTRY_FMT = "<QQ"  # dead absolute line, spare absolute line
_Q_ENTRY_SIZE = struct.calcsize(_Q_ENTRY_FMT)
_Q_TABLE_OFF = CACHE_LINE  # header line, then the table, then the spares


def _q_table_bytes(spares: int) -> int:
    raw = spares * _Q_ENTRY_SIZE
    return (raw + CACHE_LINE - 1) // CACHE_LINE * CACHE_LINE


_Q_REGION_SIZE = _Q_TABLE_OFF + _q_table_bytes(SPARE_LINES) + SPARE_LINES * CACHE_LINE


@dataclass(frozen=True)
class PmemRegion:
    """A named, contiguous slice of a pool with relative addressing."""

    pool: "PmemPool"
    name: str
    offset: int
    size: int

    def __post_init__(self):
        # hot-path bindings: the pool's device binding is fixed for the
        # region's lifetime (reopen builds fresh pool + region objects),
        # so the two-hop ``self.pool.device.<op>`` walk is resolved once
        object.__setattr__(self, "_dev_read", self.pool.device.read)
        object.__setattr__(self, "_dev_read_declared", self.pool.device.read_declared)
        object.__setattr__(self, "_dev_write", self.pool.device.write)
        object.__setattr__(self, "_dev_flush", self.pool.device.flush)
        object.__setattr__(self, "_dev_persist", self.pool.device.persist)

    def _abs(self, addr: int, size: int) -> int:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise OutOfBoundsError(
                f"region '{self.name}': access [{addr}, {addr + size}) "
                f"outside {self.size} bytes"
            )
        return self.offset + addr

    def read(self, addr: int, size: int) -> bytes:
        # hot path: bounds check inlined, _abs only raises
        if 0 <= addr and 0 <= size and addr + size <= self.size:
            return self._dev_read(self.offset + addr, size)
        self._abs(addr, size)
        raise AssertionError("unreachable")

    def read_declared(self, addr: int, size: int, loads) -> bytes:
        """:meth:`read` of a block charged as the field loads ``loads``
        (see :meth:`NVMDevice.read_declared`)."""
        if 0 <= addr and 0 <= size and addr + size <= self.size:
            return self._dev_read_declared(self.offset + addr, size, loads)
        # the field reads fail where they would have, one by one
        for rel, n in loads:
            self.read(addr + rel, n)
        self._abs(addr, size)
        raise AssertionError("unreachable")

    def read_gather(self, addr: int, loads) -> bytes:
        """The loads ``loads`` at ``addr``, concatenated (see
        :meth:`NVMDevice.read_gather`)."""
        if 0 <= addr and addr + loads.span <= self.size:
            return self.pool.device.read_gather(self.offset + addr, loads)
        # the field reads fail where they would have, one by one
        return b"".join([self.read(addr + rel, n) for rel, n in loads])

    def write(self, addr: int, data: bytes) -> None:
        size = len(data)
        if 0 <= addr and addr + size <= self.size:
            self._dev_write(self.offset + addr, data)
            return
        self._abs(addr, size)
        raise AssertionError("unreachable")

    def flush(self, addr: int, size: int) -> None:
        self._dev_flush(self._abs(addr, size), size)

    def flush_multi(self, ranges) -> None:
        """Flush several ``(addr, size)`` ranges in one device call.

        Stat-identical to per-range :meth:`flush` calls in order; only
        the per-call lock/dispatch overhead is amortised.
        """
        self.pool.device.flush_multi(
            [(self._abs(addr, size), size) for addr, size in ranges]
        )

    def copy(self, dst: int, src: int, size: int) -> None:
        self.pool.device.copy(self._abs(dst, size), self._abs(src, size), size)

    def write_and_flush(self, addr: int, data: bytes) -> None:
        """Store then immediately flush+fence — a durable store, in one
        device call (:meth:`NVMDevice.persist`)."""
        size = len(data)
        if 0 <= addr and addr + size <= self.size:
            self._dev_persist(self.offset + addr, data)
            return
        self._abs(addr, size)
        raise AssertionError("unreachable")

    def durable_read(self, addr: int, size: int) -> bytes:
        return self.pool.device.durable_read(self._abs(addr, size), size)


class PmemPool:
    """A pool of persistent memory with a root pointer and region table.

    Use :meth:`create` on a fresh device and :meth:`open` after a restart.
    """

    def __init__(self, device: NVMDevice):
        self.device = device
        self._regions: Dict[str, PmemRegion] = {}
        self._next_free = DATA_START

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(cls, device: NVMDevice) -> "PmemPool":
        """Format ``device`` as an empty pool."""
        pool = cls(device)
        header = struct.pack(_HEADER_FMT, MAGIC, VERSION, device.size, 0, 0)
        device.write(0, header)
        device.flush(0, _HEADER_SIZE)
        device.fence()
        return pool

    @classmethod
    def open(cls, device: NVMDevice) -> "PmemPool":
        """Open an existing pool, validating its header and region table."""
        raw = device.read(0, _HEADER_SIZE)
        magic, version, size, _root, count = struct.unpack(_HEADER_FMT, raw)
        if magic != MAGIC:
            raise PoolCorruptionError(f"bad magic {magic:#x}")
        if version != VERSION:
            raise PoolCorruptionError(f"unsupported pool version {version}")
        if size != device.size:
            raise PoolCorruptionError(
                f"pool formatted for {size} bytes but device is {device.size}"
            )
        if count > MAX_REGIONS:
            raise PoolCorruptionError(f"region count {count} exceeds {MAX_REGIONS}")
        pool = cls(device)
        for i in range(count):
            entry = device.read(_TABLE_OFF + i * _REGION_SIZE, _REGION_SIZE)
            name_b, offset, rsize = struct.unpack(_REGION_FMT, entry)
            name = name_b.rstrip(b"\0").decode("ascii")
            pool._regions[name] = PmemRegion(pool, name, offset, rsize)
            pool._next_free = max(pool._next_free, offset + rsize)
        return pool

    # -- header fields ---------------------------------------------------------

    @property
    def root_offset(self) -> int:
        """Offset of the application root object (0 = unset)."""
        raw = self.device.read(24, 8)
        return struct.unpack("<Q", raw)[0]

    def set_root_offset(self, offset: int) -> None:
        self.device.write(24, struct.pack("<Q", offset))
        self.device.flush(24, 8)
        self.device.fence()

    # -- regions -----------------------------------------------------------------

    def create_region(self, name: str, size: int) -> PmemRegion:
        """Reserve ``size`` bytes under ``name`` (persisted; reopenable)."""
        if name in self._regions:
            raise ValueError(f"region '{name}' already exists")
        if len(self._regions) >= MAX_REGIONS:
            raise ValueError("region table full")
        if len(name.encode("ascii")) > _REGION_NAME_LEN:
            raise ValueError(f"region name '{name}' too long")
        size = (size + CACHE_LINE - 1) // CACHE_LINE * CACHE_LINE
        offset = self._next_free
        if offset + size > self.device.size:
            raise OutOfBoundsError(
                f"pool exhausted: need {size} bytes at {offset}, "
                f"device has {self.device.size}"
            )
        region = PmemRegion(self, name, offset, size)
        index = len(self._regions)
        entry = struct.pack(_REGION_FMT, name.encode("ascii"), offset, size)
        self.device.write(_TABLE_OFF + index * _REGION_SIZE, entry)
        self.device.flush(_TABLE_OFF + index * _REGION_SIZE, _REGION_SIZE)
        # Persist the new region count after the entry itself (ordering).
        self.device.fence()
        self._regions[name] = region
        self._next_free = offset + size
        self.device.write(32, struct.pack("<Q", len(self._regions)))
        self.device.flush(32, 8)
        self.device.fence()
        return region

    def region(self, name: str) -> PmemRegion:
        """Look up an existing region by name."""
        try:
            return self._regions[name]
        except KeyError:
            raise KeyError(f"no region named '{name}'") from None

    def has_region(self, name: str) -> bool:
        return name in self._regions

    def region_or_create(self, name: str, size: int) -> PmemRegion:
        """Fetch ``name`` if present (reopen path) else reserve it."""
        if name in self._regions:
            return self._regions[name]
        return self.create_region(name, size)

    @property
    def regions(self) -> Dict[str, PmemRegion]:
        return dict(self._regions)

    @property
    def free_bytes(self) -> int:
        return self.device.size - self._next_free

    # -- quarantine: dead-line remapping ------------------------------------

    def quarantine_line(self, line: int) -> Optional[int]:
        """Persistently retire absolute ``line`` and assign it a spare.

        Returns the spare's absolute line index, the previously assigned
        spare if ``line`` is already quarantined, or ``None`` when the
        table is full or the pool has no room left for it.  The entry is
        durable before the count that publishes it (same ordering as the
        region table), so a crash mid-quarantine loses at most the
        not-yet-published entry.
        """
        try:
            region = self.region_or_create(QUARANTINE_REGION, _Q_REGION_SIZE)
        except (ValueError, OutOfBoundsError):
            return None
        count = struct.unpack("<Q", region.read(0, 8))[0]
        capacity = (region.size - _Q_TABLE_OFF) // (_Q_ENTRY_SIZE + CACHE_LINE)
        spares_off = _Q_TABLE_OFF + _q_table_bytes(capacity)
        for i in range(count):
            dead, spare = struct.unpack(
                _Q_ENTRY_FMT, region.read(_Q_TABLE_OFF + i * _Q_ENTRY_SIZE, _Q_ENTRY_SIZE)
            )
            if dead == line:
                return spare
        if count >= capacity:
            return None
        spare_line = (region.offset + spares_off) // CACHE_LINE + count
        region.write_and_flush(
            _Q_TABLE_OFF + count * _Q_ENTRY_SIZE,
            struct.pack(_Q_ENTRY_FMT, line, spare_line),
        )
        region.write_and_flush(0, struct.pack("<Q", count + 1))
        return spare_line

    def quarantine_table(self) -> List[Tuple[int, int]]:
        """All persisted ``(dead_line, spare_line)`` remappings."""
        if QUARANTINE_REGION not in self._regions:
            return []
        region = self._regions[QUARANTINE_REGION]
        count = struct.unpack("<Q", region.read(0, 8))[0]
        out: List[Tuple[int, int]] = []
        for i in range(count):
            dead, spare = struct.unpack(
                _Q_ENTRY_FMT, region.read(_Q_TABLE_OFF + i * _Q_ENTRY_SIZE, _Q_ENTRY_SIZE)
            )
            out.append((dead, spare))
        return out

    def load_quarantine(self, media) -> int:
        """Replay the persisted quarantine table into a media model after
        reopen, so retired lines stay retired across restarts.  Returns
        the number of entries applied."""
        entries = self.quarantine_table()
        for dead, _spare in entries:
            media.retire(dead)
        return len(entries)
