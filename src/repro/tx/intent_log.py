"""The Log Manager: persistent intent logs (paper §3, §6.2, Figure 11).

Kamino-Tx's log is deliberately tiny: it records *which* ranges a
transaction intends to modify (addresses and sizes), never the data
itself — that is the whole trick that keeps copying off the critical
path.  The same log structure also serves the undo and CoW baselines,
which additionally store old/new data in a per-slot data area.

Layout of the ``intent_log`` region::

    [region header 64B]
    [slot 0][slot 1]...[slot N-1]

    slot := [slot header 64B][entry 0..max_entries-1][data area]

Each entry is 32 bytes (two per cache line) and self-checksummed — with
the owning txid folded into the check — so a torn entry, or a stale one
left by the slot's previous owner, is detectable; the slot header's
durable ``n_entries`` count
gates recovery, and is only flushed together with the entries it counts
(:meth:`TxLog.make_durable`) — one flush per declared batch, matching
the paper's "fine-grained logging of fixed-size write intents with
minimum number of cache flushes".

Slot states form the commit protocol:

* ``FREE → RUNNING`` with the first durable intent batch;
* ``RUNNING → COMMITTED`` is the durable commit point;
* ``RUNNING/ABORTED`` at crash means roll back;
* ``→ FREE`` once post-commit work (backup sync / log discard) is done.
"""

from __future__ import annotations

import struct
import threading
from enum import IntEnum
from typing import Iterator, List, NamedTuple, Optional

from ..errors import LogFullError, PoolCorruptionError, TxError
from ..nvm.device import DeclaredLoads
from ..nvm.pool import PmemPool, PmemRegion
from .base import IntentKind

LOG_REGION = "intent_log"

LOG_MAGIC = 0x4C4F474D  # "LOGM"

_REGION_HDR_FMT = "<IIQQQQ"  # magic, checksum, n_slots, max_entries, data_bytes, reserved
_REGION_HDR_SIZE = struct.calcsize(_REGION_HDR_FMT)

_SLOT_HDR_FMT = "<IIQQQ"  # magic, state, txid, n_entries, reserved
_SLOT_HDR_SIZE = 64  # padded to one cache line
_SLOT_HDR = struct.Struct(_SLOT_HDR_FMT + f"{_SLOT_HDR_SIZE - struct.calcsize(_SLOT_HDR_FMT)}x")

#: txids at or above this in a slot header are rot, not history (the
#: header word is 64 bits; numbering above one would overflow it)
_TXID_LIMIT = 1 << 63

ENTRY_SIZE = 32
_ENTRY_FMT = "<QIHHQQ"  # offset, size, kind, flags, data_off, check
_ENTRY = struct.Struct(_ENTRY_FMT)


class SlotState(IntEnum):
    FREE = 0
    RUNNING = 1
    COMMITTED = 2
    ABORTED = 3


class IntentEntry(NamedTuple):
    """One durable write intent."""

    offset: int
    size: int
    kind: IntentKind
    data_off: int  # slot-data-area offset of captured bytes (undo/CoW), or 0


def _entry_check(offset: int, size: int, kind: int, data_off: int, txid: int) -> int:
    """Cheap self-check so a torn (partially persisted) entry is detectable.

    The owning transaction's id is folded in (never stored) so a *stale*
    entry — durably valid, but written by the slot's previous owner — is
    rejected exactly like a torn one when checked against the header's
    txid.  Without this, a reused slot whose new header write tears under
    word-granular crash resolution (new ``state`` word survives, old
    ``txid``/``n_entries`` words remain) would resurrect the previous,
    already-committed transaction's intents and roll them back over
    committed data.
    """
    return (
        offset * 0x9E3779B97F4A7C15
        + size * 0x100000001B3
        + kind
        + data_off
        + txid * 0xC2B2AE3D27D4EB4F
        + 1
    ) & ((1 << 64) - 1)


class TxLog:
    """Volatile handle to one persistent log slot, owned by one transaction."""

    def __init__(self, manager: "LogManager", index: int, txid: int):
        self.manager = manager
        self.index = index
        self.txid = txid
        self.entries: List[IntentEntry] = []
        self._durable_entries = 0
        self._state = SlotState.RUNNING
        self._data_used = 0
        # the slot is lazily materialised: a slot taken but never
        # written touches NVM zero times (NVML likewise builds its undo
        # log only at the first TX_ADD)
        self._touched_nvm = False
        # slot geometry is fixed for the handle's lifetime; computing it
        # once here keeps append/make_durable off the property + method
        # chain (these two sit on every transaction's critical path)
        self._base = manager.slot_offset(index)
        self._entries_base = self._base + _SLOT_HDR_SIZE
        self.data_base = self._entries_base + manager.max_entries * ENTRY_SIZE

    # -- building ----------------------------------------------------------------

    def append(self, offset: int, size: int, kind: IntentKind, data_off: int = 0) -> None:
        """Record a write intent (volatile until :meth:`make_durable`)."""
        if len(self.entries) >= self.manager.max_entries:
            raise LogFullError(
                f"transaction exceeds {self.manager.max_entries} write intents"
            )
        entry = IntentEntry(offset, size, kind, data_off)
        raw = _ENTRY.pack(
            offset,
            size,
            kind.value,
            0,
            data_off,
            _entry_check(offset, size, kind.value, data_off, self.txid),
        )
        self.manager.region.write(
            self._entries_base + len(self.entries) * ENTRY_SIZE, raw
        )
        self.entries.append(entry)

    def reserve_data(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of the slot data area; returns region offset."""
        if self._data_used + nbytes > self.manager.data_bytes:
            raise LogFullError(
                f"transaction exceeds {self.manager.data_bytes} bytes of log data"
            )
        off = self.data_base + self._data_used
        self._data_used += nbytes
        return off

    @property
    def dirty(self) -> bool:
        return len(self.entries) > self._durable_entries

    def make_durable(self) -> None:
        """Flush pending entries + header count; one flush+fence per batch."""
        n = len(self.entries)
        if n <= self._durable_entries:
            return
        region = self.manager.region
        first = self._entries_base + self._durable_entries * ENTRY_SIZE
        region.flush(first, (n - self._durable_entries) * ENTRY_SIZE)
        self._persist_header()
        self._durable_entries = n
        self._touched_nvm = True

    def _persist_header(self) -> None:
        """Write, flush and fence the slot header in one device call."""
        raw = _SLOT_HDR.pack(
            LOG_MAGIC, int(self._state), self.txid, len(self.entries), 0
        )
        self.manager.region.write_and_flush(self._base, raw)

    # -- state transitions -----------------------------------------------------------

    @property
    def state(self) -> SlotState:
        return self._state

    def set_state(self, state: SlotState) -> None:
        """Durably record a state transition (the commit/abort record)."""
        self._state = state
        self._persist_header()
        self._touched_nvm = True

    def release(self) -> None:
        """Mark the slot FREE (durable) and return it to the free pool.

        A slot that never reached NVM is still durably FREE from its
        previous release, so nothing is written.
        """
        if self._touched_nvm:
            self.set_state(SlotState.FREE)
        self.manager._release_slot(self.index)


class RecoveredLog(NamedTuple):
    """A non-FREE slot found during crash recovery."""

    index: int
    state: SlotState
    txid: int
    entries: List[IntentEntry]


class LogManager:
    """Allocates, persists, and scans intent-log slots.

    Args:
        region: the persistent region backing the log.
        n_slots: concurrent transaction capacity (begin blocks when the
            syncer falls this far behind — natural backpressure).
        max_entries: write intents per transaction.
        data_bytes: per-slot capture area for undo/CoW engines (0 for
            Kamino, whose log stores addresses only).
    """

    def __init__(
        self,
        region: PmemRegion,
        n_slots: int = 64,
        max_entries: int = 128,
        data_bytes: int = 0,
    ):
        self.region = region
        self.n_slots = n_slots
        self.max_entries = max_entries
        self.data_bytes = data_bytes
        self._mutex = threading.Lock()
        self._free_cond = threading.Condition(self._mutex)
        self._free: List[int] = list(range(n_slots - 1, -1, -1))
        #: acquirers inside ``_free_cond.wait``; guarded by ``_mutex``
        self._waiters = 0
        #: largest txid in any slot header the last :meth:`scan` read
        #: (0 before a scan): a restarted engine numbers above it
        self.max_txid = 0

    # -- sizing ----------------------------------------------------------------

    @staticmethod
    def required_size(n_slots: int, max_entries: int, data_bytes: int = 0) -> int:
        slot = _SLOT_HDR_SIZE + max_entries * ENTRY_SIZE + data_bytes
        slot = (slot + 63) // 64 * 64
        return 64 + n_slots * slot

    def slot_size(self) -> int:
        slot = _SLOT_HDR_SIZE + self.max_entries * ENTRY_SIZE + self.data_bytes
        return (slot + 63) // 64 * 64

    def slot_offset(self, index: int) -> int:
        return 64 + index * self.slot_size()

    # -- lifecycle ------------------------------------------------------------------

    def format(self) -> None:
        """Initialise a fresh region; all slots are FREE (state 0 = zeroed)."""
        hdr = struct.pack(
            _REGION_HDR_FMT,
            LOG_MAGIC,
            self._config_checksum(),
            self.n_slots,
            self.max_entries,
            self.data_bytes,
            0,
        )
        self.region.write_and_flush(0, hdr)

    def open(self) -> None:
        """Validate the header and adopt the persisted geometry."""
        raw = self.region.read(0, _REGION_HDR_SIZE)
        magic, checksum, n_slots, max_entries, data_bytes, _ = struct.unpack(
            _REGION_HDR_FMT, raw
        )
        if magic != LOG_MAGIC:
            raise PoolCorruptionError("intent log region has no valid header")
        self.n_slots = n_slots
        self.max_entries = max_entries
        self.data_bytes = data_bytes
        if checksum != self._config_checksum():
            raise PoolCorruptionError("intent log header checksum mismatch")
        with self._mutex:
            self._free = list(range(n_slots - 1, -1, -1))

    def _config_checksum(self) -> int:
        return (
            self.n_slots * 2654435761 + self.max_entries * 40503 + self.data_bytes
        ) & 0xFFFFFFFF

    # -- slot pool ----------------------------------------------------------------------

    def acquire(self, txid: int, timeout: float = 10.0) -> TxLog:
        """Grab a FREE slot for a transaction (blocks while none is free).

        A free slot costs one hold of the pool mutex.  Only an acquirer
        that finds the pool empty counts itself in ``_waiters`` and
        waits, so a release notifies only when someone is waiting, the
        discipline of :class:`~repro.tx.locks.ObjectLockTable`.
        """
        with self._mutex:
            if not self._free:
                self._waiters += 1
                try:
                    if not self._free_cond.wait_for(lambda: bool(self._free), timeout=timeout):
                        raise TxError("no free intent-log slots (syncer stalled?)")
                finally:
                    self._waiters -= 1
            index = self._free.pop()
        return TxLog(self, index, txid)

    def _release_slot(self, index: int) -> None:
        with self._mutex:
            self._free.append(index)
            if self._waiters:
                self._free_cond.notify()

    def claim(self, index: int) -> None:
        """Take slot ``index`` out of the free pool (a recovered slot
        that stays occupied until its deferred work lands)."""
        with self._mutex:
            if index in self._free:
                self._free.remove(index)

    @property
    def free_slots(self) -> int:
        with self._mutex:
            return len(self._free)

    # -- recovery ----------------------------------------------------------------------------

    def scan(self) -> List[RecoveredLog]:
        """Read every non-FREE slot from durable state (crash recovery).

        Entries beyond the durable ``n_entries`` count are ignored; an
        entry whose self-check fails (torn write of the entry itself,
        possible under adversarial cache eviction before the batch flush)
        terminates the scan of that slot — data writes covered by it can
        never have happened, because intents are made durable before the
        stores they cover.

        Entry checks are bound to the header's ``txid``, which also
        defuses slot reuse: ``make_durable`` flushes each entry batch
        *before* the header store, so whenever the state word durably
        reads non-FREE the new owner's entries are already durable from
        entry 0 — any resolution of the torn header (old or new txid /
        ``n_entries``) therefore validates at most a prefix of exactly
        one transaction's entries, never a mix and never a stale tail.

        That argument needs txids not to repeat, so the scan also records
        :attr:`max_txid` over *every* header, FREE ones included, for a
        restarted engine to number above: a released slot keeps its last
        owner's txid and entries, which a reissued txid would validate
        again.

        The headers are read first, in one gather (charged as one load
        per header, and faulting in no page the device never wrote);
        then each live slot's entries, one load each.
        """
        found: List[RecoveredLog] = []
        self.max_txid = 0
        headers = self.region.read_gather(
            self.slot_offset(0),
            DeclaredLoads.strided(self.n_slots, _SLOT_HDR_SIZE, self.slot_size()),
        )
        for index, (magic, state_v, txid, n_entries, _) in enumerate(
            _SLOT_HDR.iter_unpack(headers)
        ):
            if magic != LOG_MAGIC:
                continue
            if self.max_txid < txid < _TXID_LIMIT:
                self.max_txid = txid
            if state_v == int(SlotState.FREE):
                continue
            try:
                state = SlotState(state_v)
            except ValueError:
                continue  # torn header word: never reached RUNNING durably
            entries: List[IntentEntry] = []
            n_entries = min(n_entries, self.max_entries)
            base = self.slot_offset(index)
            for i in range(n_entries):
                eraw = self.region.read(base + _SLOT_HDR_SIZE + i * ENTRY_SIZE, ENTRY_SIZE)
                off, size, kind_v, _flags, data_off, check = struct.unpack(_ENTRY_FMT, eraw)
                if check != _entry_check(off, size, kind_v, data_off, txid) or size == 0:
                    break
                entries.append(IntentEntry(off, size, IntentKind(kind_v), data_off))
            found.append(RecoveredLog(index, state, txid, entries))
        return found

    def free_slot_by_index(self, index: int) -> None:
        """Durably mark a recovered slot FREE (end of its recovery)."""
        base = self.slot_offset(index)
        self.region.write(base, _SLOT_HDR.pack(LOG_MAGIC, int(SlotState.FREE), 0, 0, 0))
        self.region.flush(base, _SLOT_HDR_SIZE)
        self.region.pool.device.fence()
