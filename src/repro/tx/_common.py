"""Shared plumbing for engines built on the lock table + intent log.

Every concrete scheme (undo, CoW, no-logging, Kamino simple/dynamic)
acquires the same object-level locks and — except no-logging — records
the same intent-log entries; they differ only in *what data is copied,
where, and when*.  Factoring the common motions here keeps each engine
file focused on exactly that difference, which mirrors how the paper's
implementation swaps atomicity schemes under an unchanged NVML surface.
"""

from __future__ import annotations

from typing import Optional

from ..errors import TxError
from ..nvm.pool import PmemPool, PmemRegion
from .base import AtomicityEngine, IntentKind, Transaction
from .intent_log import LOG_REGION, LogManager, TxLog
from .locks import ObjectLockTable


class LockingLogEngine(AtomicityEngine):
    """Base for engines using the lock table and (optionally) the log.

    Subclasses set ``uses_log`` and ``log_data_bytes`` and implement the
    abstract scheme methods of :class:`AtomicityEngine`.
    """

    uses_log: bool = True
    #: per-slot capture area (0 = address-only log, the Kamino case)
    log_data_bytes: int = 0

    def __init__(
        self,
        n_slots: int = 64,
        max_entries: int = 256,
        lock_timeout: float = 10.0,
    ):
        self.n_slots = n_slots
        self.max_entries = max_entries
        self.locks = ObjectLockTable(timeout=lock_timeout)
        self.pool: Optional[PmemPool] = None
        self.heap_region: Optional[PmemRegion] = None
        self.log: Optional[LogManager] = None
        #: optional callback fired at named protocol phases (used by the
        #: Figure 2/5/6 timeline regenerator); signature: hook(phase_name)
        self.phase_hook = None

    def _phase(self, name: str) -> None:
        hook = self.phase_hook
        if hook is not None:
            hook(name)

    # -- attach ---------------------------------------------------------------

    def attach(self, pool: PmemPool, heap_region: PmemRegion) -> None:
        self.pool = pool
        self.heap_region = heap_region
        fresh = True
        if self.uses_log:
            size = LogManager.required_size(
                self.n_slots, self.max_entries, self.log_data_bytes
            )
            fresh = not pool.has_region(LOG_REGION)
            region = pool.region_or_create(LOG_REGION, size)
            self.log = LogManager(
                region, self.n_slots, self.max_entries, self.log_data_bytes
            )
            if fresh:
                self.log.format()
            else:
                self.log.open()
        self._attach_extra(fresh=fresh)

    def _attach_extra(self, fresh: bool) -> None:
        """Hook for subclasses to reserve additional regions.

        ``fresh`` is True on the create path, False on reopen.
        """

    # -- transaction plumbing ----------------------------------------------------

    def begin(self) -> Transaction:
        tx = Transaction(self)
        if self.uses_log:
            tx.engine_state["log"] = self.log.acquire(tx.txid)
        return tx

    def _txlog(self, tx: Transaction) -> TxLog:
        return tx.engine_state["log"]

    def on_read(self, tx: Transaction, offset: int, size: int) -> None:
        self.locks.acquire_read(tx.txid, offset)
        tx.read_set.add(offset)

    def before_data_write(self, tx: Transaction) -> None:
        if self.uses_log:
            self._txlog(tx).make_durable()

    def _record_intent(
        self, tx: Transaction, offset: int, size: int, kind: IntentKind, data_off: int = 0
    ) -> None:
        """Lock the range and append the intent to tx + log."""
        if size <= 0:
            raise TxError(f"write intent must have positive size, got {size}")
        self.locks.acquire_write(tx.txid, offset)
        tx.intents.append((offset, size, kind))
        tx.write_set.add(offset)
        if self.uses_log:
            self._txlog(tx).append(offset, size, kind, data_off)

    # -- lock release helpers --------------------------------------------------------

    def _release_reads(self, tx: Transaction) -> None:
        for off in tx.read_set - tx.write_set:
            self.locks.release_read(tx.txid, off)

    def _release_writes(self, tx: Transaction) -> None:
        for off in tx.write_set:
            self.locks.release_write(tx.txid, off)

    def _release_all(self, tx: Transaction) -> None:
        self._release_reads(tx)
        self._release_writes(tx)

    # -- data-range helpers ------------------------------------------------------------

    def _flush_modified_ranges(self, tx: Transaction) -> None:
        """Flush every in-place-modified range, then fence (commit step 1)."""
        region = self.heap_region
        ranges = [(off, size) for off, size, kind in tx.intents if kind is not IntentKind.FREE]
        if ranges:
            region.flush_multi(ranges)
            region.pool.device.fence()
