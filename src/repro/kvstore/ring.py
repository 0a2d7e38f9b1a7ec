"""Crash-consistent persistent ring buffer of variable-size records.

Chain replicas "buffer such calls in an input queue in non-volatile
memory before the receipt is acknowledged upstream" (§5.1); this is that
queue as a reusable structure.  It is engine-independent — the ring *is*
its own atomicity mechanism:

* a record is ``[length u32][crc u32][payload][pad to 8]``, written and
  flushed *before* the producer index advances;
* the producer/consumer indices are 8-byte words, each updated with a
  single power-fail-atomic durable store;
* on reopen, a record at the tail whose CRC fails (torn append) is
  simply not visible, because the durable tail still points before it.

Because the produce index only advances after the record it covers is
flushed and fenced, a CRC failure *below* the durable produce index is
not a torn append — it is media corruption.  The consumer classifies the
two cases: a failing record whose extent ends exactly at the produce
index is treated as a torn tail (the produce index is durably truncated
back and the record dropped); any other failure raises
:class:`~repro.errors.RingCorruptionError` carrying the record's region
offset and logical index, and :meth:`PersistentRing.scrub` can route it
through a repair callback (peer/backup bytes) instead.

Wraparound uses a ``SKIP`` sentinel record when a record does not fit
contiguously before the end of the data area.

:class:`Journal` is the ring as a replayable, self-compacting record
log: the placement service and the procedure store are its two owners.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Callable, Iterable, Iterator, List, Optional

from ..errors import HeapError, PoolCorruptionError, RingCorruptionError
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool, PmemRegion

RING_MAGIC = 0x52494E47  # "RING"

_HDR_FMT = "<IIQQ"  # magic, reserved, produce_off, consume_off
_HDR_SIZE = 64  # one cache line: indices are word-atomic
_REC_HDR = struct.Struct("<II")  # length, crc32
_SKIP = 0xFFFFFFFF


def _pad(n: int) -> int:
    return (n + 7) // 8 * 8


class PersistentRing:
    """Single-producer/single-consumer durable FIFO over one region."""

    def __init__(self, region: PmemRegion):
        if region.size < _HDR_SIZE + 64:
            raise HeapError("ring region too small")
        self.region = region
        self._data_size = region.size - _HDR_SIZE
        self._produce = 0  # logical offsets into the data area
        self._consume = 0

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, region: PmemRegion) -> "PersistentRing":
        ring = cls(region)
        region.write_and_flush(0, struct.pack(_HDR_FMT, RING_MAGIC, 0, 0, 0))
        return ring

    @classmethod
    def open(cls, region: PmemRegion) -> "PersistentRing":
        raw = region.read(0, struct.calcsize(_HDR_FMT))
        magic, _r, produce, consume = struct.unpack(_HDR_FMT, raw)
        if magic != RING_MAGIC:
            raise PoolCorruptionError("region holds no ring header")
        ring = cls(region)
        ring._produce = produce
        ring._consume = consume
        return ring

    # -- geometry ---------------------------------------------------------------

    def _addr(self, logical: int) -> int:
        return _HDR_SIZE + logical % self._data_size

    @property
    def used_bytes(self) -> int:
        return self._produce - self._consume

    @property
    def free_bytes(self) -> int:
        return self._data_size - self.used_bytes

    def __len__(self) -> int:
        n = 0
        for _ in self.peek_all():
            n += 1
        return n

    # -- producer ----------------------------------------------------------------

    def append(self, payload: bytes) -> None:
        """Durably enqueue ``payload``; visible only once fully written."""
        need = _pad(_REC_HDR.size + len(payload))
        if need > self._data_size // 2:
            raise HeapError(f"record of {len(payload)} bytes too large for this ring")
        room_to_end = self._data_size - (self._produce % self._data_size)
        total = need + (room_to_end if room_to_end < need else 0)
        if total > self.free_bytes:
            raise HeapError("ring full; consumer has fallen behind")
        if room_to_end < need:
            self._write_skip(room_to_end)
        addr = self._addr(self._produce)
        record = _REC_HDR.pack(len(payload), zlib.crc32(payload)) + payload
        self.region.write(addr, record)
        self.region.flush(addr, len(record))
        self.region.pool.device.fence()
        self._advance_produce(need)

    def _write_skip(self, room: int) -> None:
        """Burn the space to the end of the data area with a sentinel."""
        addr = self._addr(self._produce)
        self.region.write(addr, _REC_HDR.pack(_SKIP, 0))
        self.region.flush(addr, _REC_HDR.size)
        self.region.pool.device.fence()
        self._advance_produce(room)

    def _advance_produce(self, by: int) -> None:
        self._produce += by
        self._persist_word(8, self._produce)

    def _persist_word(self, offset: int, value: int) -> None:
        """One power-fail-atomic durable store of a header index word."""
        self.region.write(offset, struct.pack("<Q", value))
        self.region.flush(offset, 8)
        self.region.pool.device.fence()

    # -- consumer ------------------------------------------------------------------

    def _read_record(self, logical: int) -> Optional[tuple]:
        """(payload, next_logical) at ``logical``, or None for torn data."""
        if logical >= self._produce:
            return None
        addr = self._addr(logical)
        length, crc = _REC_HDR.unpack(self.region.read(addr, _REC_HDR.size))
        if length == _SKIP:
            room = self._data_size - logical % self._data_size
            return self._read_record(logical + room)
        if length > self._data_size:
            raise RingCorruptionError(
                f"ring record length corrupt at region offset {addr}",
                offset=addr,
                record_index=self._index_of(logical),
            )
        payload = self.region.read(addr + _REC_HDR.size, length)
        if zlib.crc32(payload) != crc:
            nxt = logical + _pad(_REC_HDR.size + length)
            if nxt == self._produce:
                # torn tail: the failing record is the last one the
                # produce index covers — truncate it away durably
                self._truncate_tail(logical)
                return None
            raise RingCorruptionError(
                f"ring record failed its checksum "
                f"(record {self._index_of(logical)} at region offset {addr}: "
                f"mid-ring media corruption, not a torn append)",
                offset=addr,
                record_index=self._index_of(logical),
            )
        return payload, logical + _pad(_REC_HDR.size + length)

    def _index_of(self, logical: int) -> int:
        """Logical record index (from the consume pointer) of ``logical``,
        walking headers without CRC validation — error-path only."""
        at = self._consume
        index = 0
        while at < logical:
            length = _REC_HDR.unpack(
                self.region.read(self._addr(at), _REC_HDR.size)
            )[0]
            if length == _SKIP:
                at += self._data_size - at % self._data_size
                continue
            if length > self._data_size:
                break
            at += _pad(_REC_HDR.size + length)
            index += 1
        return index

    def _truncate_tail(self, logical: int) -> None:
        """Durably move the produce index back to ``logical``, dropping
        the torn record(s) past it."""
        self._produce = logical
        self._persist_word(8, self._produce)

    def scrub(self, repair: Optional[Callable[[int, int], Optional[bytes]]] = None) -> int:
        """Verify every pending record's CRC; returns records repaired.

        A failing tail record is truncated (same rule as
        :meth:`_read_record`).  A failing mid-ring record is rewritten
        from ``repair(region_offset, size) -> bytes|None`` when the
        callback supplies bytes that themselves verify (a backup or
        replication peer holding the same queue); otherwise
        :class:`~repro.errors.RingCorruptionError` propagates.
        """
        repaired = 0
        logical = self._consume
        index = 0
        while logical < self._produce:
            addr = self._addr(logical)
            length, crc = _REC_HDR.unpack(self.region.read(addr, _REC_HDR.size))
            if length == _SKIP:
                logical += self._data_size - logical % self._data_size
                continue
            if length > self._data_size:
                raise RingCorruptionError(
                    f"ring record length corrupt at region offset {addr}",
                    offset=addr,
                    record_index=index,
                )
            nxt = logical + _pad(_REC_HDR.size + length)
            payload = self.region.read(addr + _REC_HDR.size, length)
            if zlib.crc32(payload) != crc:
                if nxt == self._produce:
                    self._truncate_tail(logical)
                    return repaired
                size = _REC_HDR.size + length
                data = repair(addr, size) if repair is not None else None
                if data is not None and len(data) == size:
                    length2, crc2 = _REC_HDR.unpack(data[: _REC_HDR.size])
                    if length2 == length and zlib.crc32(data[_REC_HDR.size :]) == crc2:
                        self.region.write_and_flush(addr, data)
                        repaired += 1
                        logical = nxt
                        index += 1
                        continue
                raise RingCorruptionError(
                    f"ring record failed its checksum "
                    f"(record {index} at region offset {addr}: "
                    f"mid-ring media corruption, not a torn append)",
                    offset=addr,
                    record_index=index,
                )
            logical = nxt
            index += 1
        return repaired

    def consume(self) -> Optional[bytes]:
        """Dequeue the oldest record durably; None if empty."""
        rec = self._read_record(self._consume)
        if rec is None:
            return None
        payload, nxt = rec
        self.release(nxt)
        return payload

    @property
    def end(self) -> int:
        """Logical offset one past the newest record (a :meth:`release`
        mark)."""
        return self._produce

    def release(self, upto: int) -> None:
        """Durably drop every record before logical offset ``upto`` (an
        :attr:`end` taken earlier) with one store of the consume word."""
        self._consume = upto
        self._persist_word(16, upto)

    def peek_all(self) -> Iterator[bytes]:
        """Iterate pending records without consuming them."""
        logical = self._consume
        while True:
            rec = self._read_record(logical)
            if rec is None:
                return
            payload, logical = rec
            yield payload

    def drain(self) -> List[bytes]:
        out = []
        while True:
            item = self.consume()
            if item is None:
                return out
            out.append(item)


#: size of the private device a journal gets when its owner passes none
DEVICE_BYTES = 1 << 20
#: room kept beyond a checkpoint's worth for the record being appended
#: and a wraparound ``SKIP``
_HEADROOM = 4096


def _encode(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True).encode("utf-8")


class Journal:
    """A crash-atomic log of JSON records on its own little pool.

    The durable state machines that live beside the cluster — the
    placement service's shard map and the serving layer's procedure
    frames — are each a subclass: a fold (:meth:`_load`, which rebuilds
    the owner's state from its records) and a checkpoint
    (:meth:`_checkpoint`, the records that rebuild the current state).
    A mutation appends its record, then applies it; a reboot replays
    the ring.

    Compaction is checkpoint-then-truncate, in that order: the
    checkpoint is appended behind the history it summarises, and only
    then does one durable store of the consume word retire that history.
    A power failure anywhere in between leaves history plus part of a
    checkpoint, so each fold must treat re-applied checkpoint records as
    no-ops.  The checkpoint needs as much free room as the history it
    replaces can hold, so the ring compacts once history would fill half
    of it (the live state must stay under that).
    """

    #: the log's region name in the journal's pool (set by each owner)
    REGION: str

    def __init__(self, device: Optional[NVMDevice], log_bytes: int):
        self.device = device if device is not None else NVMDevice(DEVICE_BYTES, seed=0)
        self.pool = PmemPool.create(self.device)
        self.ring = PersistentRing.create(self.pool.create_region(self.REGION, log_bytes))
        self.recoveries = 0
        self.compactions = 0

    @classmethod
    def open(cls, device: NVMDevice) -> "Journal":
        """Rebuild the owner from its durable log (a reboot)."""
        journal = cls.__new__(cls)
        journal.device = device
        journal.recoveries = 0
        journal.compactions = 0
        journal._reopen()
        return journal

    def crash_and_recover(self) -> "Journal":
        """Power-fail (a no-op if a fail-point already crashed the
        device), restart and replay in place, so holders of this object
        keep their reference."""
        self.device.crash()
        self.device.restart()
        self._reopen()
        self.recoveries += 1
        return self

    def _reopen(self) -> None:
        self.pool = PmemPool.open(self.device)
        self.ring = PersistentRing.open(self.pool.region(self.REGION))
        self._load(json.loads(payload.decode("utf-8")) for payload in self.ring.peek_all())

    def _append(self, record: dict) -> None:
        """Durably log ``record``, compacting first if history has
        outgrown half the ring."""
        payload = _encode(record)
        ring = self.ring
        if ring.free_bytes < ring.used_bytes + len(payload) + _HEADROOM:
            self.compactions += 1
            history_end = ring.end
            for checkpoint in self._checkpoint():
                ring.append(_encode(checkpoint))
            ring.release(history_end)
        ring.append(payload)

    # -- the owner's half --------------------------------------------------

    def _load(self, records: Iterable[dict]) -> None:
        """Replace the owner's state with the fold of ``records``."""
        raise NotImplementedError

    def _checkpoint(self) -> Iterable[dict]:
        """Records whose fold is the owner's current state."""
        raise NotImplementedError
