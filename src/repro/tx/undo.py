"""Undo-logging engine: the paper's baseline (unmodified Intel NVML).

``TX_ADD`` copies the object's *current* bytes into the log's data area
**in the critical path** — exactly the overhead Kamino-Tx eliminates.
Commit point: the slot's durable transition to FREE after the modified
data is flushed (NVML discards the undo log to commit).  Any non-FREE
slot found at recovery is an incomplete transaction and is rolled back
from its captured undo data.
"""

from __future__ import annotations

from ..errors import TxError
from ..runtime.registry import EngineCapabilities, register_engine
from .base import IntentKind, RecoveryReport, Transaction
from ._common import LockingLogEngine


@register_engine(
    "undo",
    capabilities=EngineCapabilities(
        description="NVML-style undo logging: old bytes captured in the critical path",
    ),
)
class UndoLogEngine(LockingLogEngine):
    """NVML-style undo logging; see module docstring."""

    name = "undo"
    uses_log = True

    def __init__(
        self,
        n_slots: int = 64,
        max_entries: int = 256,
        log_data_bytes: int = 64 * 1024,
    ):
        super().__init__(n_slots, max_entries)
        self.log_data_bytes = log_data_bytes

    # -- intents -----------------------------------------------------------------

    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        if kind is IntentKind.WRITE:
            # critical-path copy: allocate log space, copy old data, flush
            self._phase("lock_data")
            log = self._txlog(tx)
            data_off = log.reserve_data(size)
            log_region = self.log.region
            device = log_region.pool.device
            device.copy(
                log_region.offset + data_off, self.heap_region.offset + offset, size
            )
            log_region.flush(data_off, size)
            device.fence()
            self._phase("copy_data")
            self._record_intent(tx, offset, size, kind, data_off)
        else:
            # fresh allocations and frees capture no old data
            self._record_intent(tx, offset, size, kind, 0)

    # -- outcomes -------------------------------------------------------------------

    def commit(self, tx: Transaction) -> None:
        self._apply_deferred_frees(tx)
        log = self._taken_log(tx)  # none for a read-only transaction
        if log is not None:
            log.make_durable()
        self._phase("edit_orig")
        self._flush_modified_ranges(tx)
        self._phase("flush_data")
        # durable FREE is the commit point: the undo data is discarded
        self._release_log(tx)
        self._phase("delete_copy")
        self._release_all(tx)
        self._phase("unlock_data")

    def abort(self, tx: Transaction) -> None:
        log = self._taken_log(tx)
        entries = log.entries if log is not None else ()
        device = self.heap_region.pool.device
        restored = False
        for entry in entries:
            if entry.kind is not IntentKind.WRITE:
                continue
            device.copy(
                self.heap_region.offset + entry.offset,
                self.log.region.offset + entry.data_off,
                entry.size,
            )
            self.heap_region.flush(entry.offset, entry.size)
            restored = True
        if restored:
            device.fence()
        self._release_log(tx)
        self._release_all(tx)

    # -- recovery ------------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        report = RecoveryReport()
        device = self.heap_region.pool.device
        for rec in self._scan_log():
            for entry in rec.entries:
                if entry.kind is not IntentKind.WRITE:
                    continue
                device.copy(
                    self.heap_region.offset + entry.offset,
                    self.log.region.offset + entry.data_off,
                    entry.size,
                )
                self.heap_region.flush(entry.offset, entry.size)
                report.restored_ranges.append((entry.offset, entry.size))
            device.fence()
            self.log.free_slot_by_index(rec.index)
            report.rolled_back += 1
        return report


@register_engine(
    "nolog",
    capabilities=EngineCapabilities(
        description="in-place writes with no atomicity (crash-unsafe cost floor)",
        recoverable=False,
    ),
)
class NoLoggingEngine(LockingLogEngine):
    """Unsafe baseline for the Figure 1 motivation: no atomicity at all.

    Writes go in place with no captured state, so aborts are impossible
    and a crash mid-transaction leaves a torn heap.  Only suitable for
    measuring the raw cost floor of the data path.
    """

    name = "nolog"
    uses_log = False

    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        if size <= 0:
            raise TxError(f"write intent must have positive size, got {size}")
        self.locks.acquire_write(tx.txid, offset)
        tx.intents.append((offset, size, kind))
        tx.write_set.add(offset)

    def commit(self, tx: Transaction) -> None:
        self._apply_deferred_frees(tx)
        self._flush_modified_ranges(tx)
        self._release_all(tx)

    def abort(self, tx: Transaction) -> None:
        raise TxError("the no-logging engine cannot roll back; aborts are unsupported")

    def recover(self) -> RecoveryReport:
        return RecoveryReport()
