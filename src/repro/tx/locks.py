"""Volatile object-level reader-writer locks with deferred release.

Kamino-Tx's safety argument (§3, Safety 1 & 2) rests on the Transaction
Coordinator holding each object's lock until the main and backup copies
agree on that object.  This lock table implements that discipline:

* write locks are taken when a write intent is declared (``TX_ADD``);
* read locks are taken on transactional reads;
* at commit, a Kamino engine marks its write locks *pending* instead of
  releasing them — the lock is only released once the asynchronous
  backup sync for that object completes;
* a later transaction that touches a pending object is a **dependent
  transaction**; it either waits for the syncer or triggers an on-demand
  sync (the "copy in the critical path if not already copied" case).

Locks are deliberately volatile (the paper keeps them in DRAM, §3):
after a crash they are rebuilt from the persistent intent logs during
recovery.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from ..errors import LockTimeoutError


@dataclass
class LockStats:
    """Counters describing contention, exposed to benchmarks."""

    write_acquires: int = 0
    read_acquires: int = 0
    dependent_waits: int = 0  # acquisitions that found the object pending
    conflict_waits: int = 0  # acquisitions that found an active holder
    on_demand_syncs: int = 0  # pending conflicts resolved synchronously


@dataclass(slots=True)
class _Entry:
    writer: Optional[int] = None  # holding txid
    readers: Set[int] = field(default_factory=set)
    pending_sync: bool = False  # writer committed, backup not yet caught up


class ObjectLockTable:
    """Per-offset reader-writer locks keyed by range start offset.

    Args:
        resolver: optional callable ``resolver(offset) -> None`` invoked
            when an acquisition hits a *pending* lock; it must complete
            the backup sync for that offset (on-demand sync).  When no
            resolver is installed the acquirer blocks until a background
            syncer releases the lock.
        timeout: seconds to wait on a conflicting holder before raising
            :class:`~repro.errors.LockTimeoutError` (deadlock escape).
    """

    def __init__(self, resolver: Optional[Callable[[int], None]] = None, timeout: float = 10.0):
        self._mutex = threading.Lock()
        self._cond = threading.Condition(self._mutex)
        self._entries: Dict[int, _Entry] = {}
        self._resolver = resolver
        self._timeout = timeout
        self.stats = LockStats()

    def set_resolver(self, resolver: Optional[Callable[[int], None]]) -> None:
        self._resolver = resolver

    # -- acquisition ---------------------------------------------------------

    def acquire_write(self, txid: int, offset: int) -> None:
        """Take the exclusive lock on ``offset`` for ``txid``.

        Reentrant for the same transaction and upgrades a sole read lock.
        Blocks (or resolves on demand) while the object is pending sync.
        """
        deadline = None
        with self._cond:
            self.stats.write_acquires += 1
            entry = self._entries.get(offset)
            if entry is None:
                # uncontested claim: the dominant case by far
                self._entries[offset] = _Entry(writer=txid)
                return
            if entry.writer == txid and not entry.pending_sync:
                return  # reentrant
            while True:
                entry = self._entries.get(offset)
                if entry is None:
                    self._entries[offset] = _Entry(writer=txid)
                    return
                if entry.writer == txid and not entry.pending_sync:
                    return  # reentrant
                other_readers = entry.readers - {txid}
                if entry.pending_sync:
                    self.stats.dependent_waits += 1
                    if self._resolver is not None:
                        self.stats.on_demand_syncs += 1
                        self._run_resolver(offset)
                        continue
                elif entry.writer is None and not other_readers:
                    # sole reader (or free): upgrade / claim
                    entry.readers.discard(txid)
                    entry.writer = txid
                    return
                else:
                    self.stats.conflict_waits += 1
                deadline = self._wait(deadline, offset)

    def acquire_read(self, txid: int, offset: int) -> None:
        """Take a shared lock on ``offset`` for ``txid``."""
        deadline = None
        with self._cond:
            self.stats.read_acquires += 1
            entry = self._entries.get(offset)
            if entry is None:
                # uncontested claim: the dominant case by far
                self._entries[offset] = _Entry(readers={txid})
                return
            if entry.writer == txid:
                return  # writer may read
            if not entry.pending_sync and entry.writer is None:
                entry.readers.add(txid)
                return
            while True:
                entry = self._entries.get(offset)
                if entry is None:
                    self._entries[offset] = _Entry(readers={txid})
                    return
                if entry.writer == txid:
                    return  # writer may read
                if entry.pending_sync:
                    self.stats.dependent_waits += 1
                    if self._resolver is not None:
                        self.stats.on_demand_syncs += 1
                        self._run_resolver(offset)
                        continue
                elif entry.writer is None:
                    entry.readers.add(txid)
                    return
                else:
                    self.stats.conflict_waits += 1
                deadline = self._wait(deadline, offset)

    def _run_resolver(self, offset: int) -> None:
        """Invoke the on-demand sync outside the table mutex."""
        resolver = self._resolver
        self._cond.release()
        try:
            resolver(offset)
        finally:
            self._cond.acquire()

    def _wait(self, deadline: Optional[float], offset: int) -> float:
        import time

        now = time.monotonic()
        if deadline is None:
            deadline = now + self._timeout
        if now >= deadline:
            raise LockTimeoutError(f"timed out waiting for lock on offset {offset}")
        self._cond.wait(timeout=min(0.05, deadline - now))
        return deadline

    def acquire_write_many(self, txid: int, offsets) -> None:
        """Take several write locks in canonical (ascending) order.

        The deadlock-avoidance discipline shared with
        :class:`~repro.tx.striped_locks.StripedLockTable`: every
        multi-lock acquirer climbs the same global offset order, so the
        waits-for graph cannot contain a cycle.
        """
        for offset in sorted(set(offsets)):
            self.acquire_write(txid, offset)

    # -- release ---------------------------------------------------------------

    def release_write_many(self, txid: int, offsets) -> None:
        for offset in sorted(set(offsets)):
            self.release_write(txid, offset)

    def release_read(self, txid: int, offset: int) -> None:
        with self._cond:
            entry = self._entries.get(offset)
            if entry is None:
                return
            entry.readers.discard(txid)
            self._gc(offset, entry)
            self._cond.notify_all()

    def release_write(self, txid: int, offset: int) -> None:
        """Fully release a write lock (undo/CoW engines at tx end)."""
        with self._cond:
            entry = self._entries.get(offset)
            if entry is None or entry.writer != txid:
                return
            entry.writer = None
            entry.pending_sync = False
            self._gc(offset, entry)
            self._cond.notify_all()

    def mark_pending(self, txid: int, offset: int) -> None:
        """Keep the write lock held after commit until the sync lands."""
        with self._cond:
            entry = self._entries.get(offset)
            if entry is not None and entry.writer == txid:
                entry.pending_sync = True

    def release_pending(self, offset: int) -> None:
        """Release a pending lock once the backup is consistent."""
        with self._cond:
            entry = self._entries.get(offset)
            if entry is None or not entry.pending_sync:
                return
            entry.writer = None
            entry.pending_sync = False
            self._gc(offset, entry)
            self._cond.notify_all()

    def force_pending(self, offset: int) -> None:
        """Recreate a pending lock during crash recovery (no owner tx)."""
        with self._cond:
            self._entries[offset] = _Entry(writer=-1, pending_sync=True)

    def _gc(self, offset: int, entry: _Entry) -> None:
        if entry.writer is None and not entry.readers and not entry.pending_sync:
            self._entries.pop(offset, None)

    # -- introspection -----------------------------------------------------------

    def is_pending(self, offset: int) -> bool:
        with self._mutex:
            entry = self._entries.get(offset)
            return bool(entry and entry.pending_sync)

    def is_locked(self, offset: int) -> bool:
        with self._mutex:
            entry = self._entries.get(offset)
            return bool(entry and (entry.writer is not None or entry.readers))

    def holder(self, offset: int) -> Optional[int]:
        with self._mutex:
            entry = self._entries.get(offset)
            return entry.writer if entry else None

    def __len__(self) -> int:
        with self._mutex:
            return len(self._entries)
