"""Kamino-Tx: atomic in-place updates with an asynchronous backup.

This is the paper's primary contribution (§3).  The critical path of a
transaction contains **no data copying**:

1. ``TX_ADD`` takes the object lock and appends a 32-byte address-only
   intent entry (plus, for the dynamic backup only, a copy-on-miss).
2. Stores modify the main heap in place; the intent batch is flushed
   once before the first store.
3. Commit flushes the modified ranges, then durably marks the log slot
   ``COMMITTED`` — that is the commit point.
4. The modified objects are copied to the backup *after* commit, off the
   critical path; write locks are held (``pending``) until then, which
   is what delays *dependent* transactions (Safety 1).
5. Abort copies the untouched backup values over the main heap
   (Safety 2), then releases everything.

Crash recovery replays this decision per surviving log slot: COMMITTED
slots roll the backup forward; RUNNING/ABORTED slots roll the main heap
back.  Both directions are idempotent, so a crash during recovery is
handled by running recovery again.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from ..errors import BothCopiesLostError, IntegrityError
from ..nvm.pool import PmemPool, PmemRegion
from ..runtime.registry import EngineCapabilities, register_engine
from .base import IntentKind, RecoveryReport, Transaction
from .backup import BackupStrategy, FullBackup
from ._common import LockingLogEngine
from .intent_log import IntentEntry, SlotState, TxLog


class _SyncTask:
    """A committed transaction awaiting its backup roll-forward."""

    __slots__ = ("log", "entries", "write_offsets")

    def __init__(self, log: TxLog, entries: List[IntentEntry], write_offsets: Set[int]):
        self.log = log
        self.entries = entries
        self.write_offsets = write_offsets


class KaminoEngine(LockingLogEngine):
    """The Kamino-Tx Transaction Coordinator + Log Manager glue.

    Parametrised by a :class:`~repro.tx.backup.BackupStrategy`:
    :class:`~repro.tx.backup.FullBackup` gives Kamino-Tx-Simple,
    :class:`~repro.tx.dynamic.DynamicBackup` gives Kamino-Tx-Dynamic.

    Args:
        backup: the backup strategy (defaults to a full mirror).
        eager_sync: when True, the backup is rolled forward synchronously
            inside commit — a degenerate mode used by tests and by the
            analytic worst-case experiments; the normal mode defers sync
            to :meth:`sync_pending` (a background thread or the
            simulator's async events).
        coalesce_sync: drain each committed transaction's backup sync
            through the strategy's interval-coalescing
            :meth:`~repro.tx.backup.BackupStrategy.absorb_entries` path
            (adjacent pending ranges become one bulk ``device.copy``).
            Simulated results — durable bytes, ``NVMStats``, virtual
            time — are bit-identical either way; ``False`` keeps the
            entry-at-a-time loop, the reference leg of the equivalence
            suites.
    """

    name = "kamino"
    copies_in_critical_path = False
    uses_log = True
    log_data_bytes = 0

    def __init__(
        self,
        backup: Optional[BackupStrategy] = None,
        n_slots: int = 64,
        max_entries: int = 256,
        lock_timeout: float = 10.0,
        eager_sync: bool = False,
        lazy_recovery: bool = False,
        coalesce_sync: bool = True,
    ):
        super().__init__(n_slots, max_entries, lock_timeout)
        self.backup = backup if backup is not None else FullBackup()
        self.eager_sync = eager_sync
        self.lazy_recovery = lazy_recovery
        self.coalesce_sync = coalesce_sync
        self._queue: Deque[_SyncTask] = deque()
        self._sync_mutex = threading.Lock()
        self.locks.set_resolver(self._resolve_pending)

    # -- attach -----------------------------------------------------------------

    def _attach_extra(self, fresh: bool) -> None:
        self.backup.attach(self.pool, self.heap_region, fresh)

    # -- begin (with backpressure) ------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction, helping the syncer if the log is full.

        When every slot is held by committed-but-unsynced transactions,
        the beginning transaction drains some sync work itself — the
        backpressure a saturated coordinator applies in a real system.
        """
        if self.log is not None and self.log.free_slots == 0:
            self.sync_pending(limit=max(1, self.n_slots // 4))
        return super().begin()

    # -- intents ------------------------------------------------------------------

    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        # Lock first: acquiring may block on (or resolve) a pending sync,
        # after which the backup is consistent for this object.
        self._phase("lock_data")
        self.locks.acquire_write(tx.txid, offset)
        if kind is IntentKind.WRITE:
            # full backup: no-op; dynamic backup: copy-on-miss
            self.backup.ensure_copy(offset, size)
        self.backup.pin(offset)
        tx.intents.append((offset, size, kind))
        tx.write_set.add(offset)
        self._txlog(tx).append(offset, size, kind, 0)

    # -- outcomes -------------------------------------------------------------------

    def commit(self, tx: Transaction) -> None:
        log = self._txlog(tx)
        if not tx.intents and not tx.deferred_frees:
            # read-only: nothing durable happened, nothing to sync
            log.release()
            self._release_reads(tx)
            return
        self._apply_deferred_frees(tx)
        log.make_durable()
        self._phase("edit_orig")
        self._flush_modified_ranges(tx)
        self._phase("flush_data")
        log.set_state(SlotState.COMMITTED)  # durable commit point
        self._phase("commit_record")
        for off in tx.write_set:
            self.locks.mark_pending(tx.txid, off)
        self._release_reads(tx)
        task = _SyncTask(log, list(log.entries), set(tx.write_set))
        self._queue.append(task)
        if self.eager_sync:
            self.sync_pending()

    def abort(self, tx: Transaction) -> None:
        log = self._txlog(tx)
        log.set_state(SlotState.ABORTED)
        device = self.heap_region.pool.device
        restored = False
        for offset, size, kind in tx.intents:
            if kind is IntentKind.WRITE:
                self.backup.restore(offset, size)
                restored = True
        if restored:
            device.fence()
        log.release()
        for off in tx.write_set:
            self.backup.unpin(off)
        self._release_all(tx)

    # -- asynchronous backup sync ----------------------------------------------------

    def sync_pending(self, limit: Optional[int] = None) -> int:
        """Roll forward up to ``limit`` committed transactions.

        This is the Transaction Coordinator's background duty; in a
        deployment it runs on a dedicated thread, in the simulator it is
        scheduled as deferred events, and a dependent transaction may run
        it on demand from the lock table's resolver.
        """
        done = 0
        with self._sync_mutex:
            while self._queue and (limit is None or done < limit):
                task = self._queue.popleft()
                self._sync_task(task)
                done += 1
        return done

    def _sync_task(self, task: _SyncTask) -> None:
        device = self.heap_region.pool.device
        if self.coalesce_sync:
            self.backup.absorb_entries(task.entries)
        else:
            for entry in task.entries:
                if entry.kind is IntentKind.FREE:
                    self.backup.on_free_synced(entry.offset, entry.size)
                else:
                    self.backup.absorb(entry.offset, entry.size)
        device.fence()
        self._phase("copy_to_backup")
        task.log.release()
        for off in task.write_offsets:
            self.backup.unpin(off)
            self.locks.release_pending(off)
        self._phase("unlock_data")

    def _resolve_pending(self, offset: int) -> None:
        """On-demand sync: a dependent transaction hit a pending object.

        Processes the queue in order until the offset's sync has landed —
        the paper's "copied in the critical path if not already copied
        asynchronously" case.
        """
        with self._sync_mutex:
            while self._queue:
                task = self._queue.popleft()
                self._sync_task(task)
                if offset in task.write_offsets:
                    return

    @property
    def pending_count(self) -> int:
        return len(self._queue)

    def pending_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Heap-relative ranges whose backup roll-forward is still queued.

        Inside these ranges the backup holds *pre-commit* bytes — the
        scrubber must not use it to "repair" main, and a crash summary
        reports them as the repairs a restarted syncer will perform.
        """
        out: List[Tuple[int, int]] = []
        for task in list(self._queue):
            for entry in task.entries:
                if entry.kind is IntentKind.FREE:
                    continue
                out.append((entry.offset, entry.size))
        return tuple(out)

    # -- recovery ----------------------------------------------------------------------

    def recover(self, lazy: Optional[bool] = None) -> RecoveryReport:
        """Scan intent logs; roll back incomplete work, roll forward
        committed work (paper §3, Log Manager uses (1)/(2) by state).

        Rollbacks run first so a dynamic backup never evicts an entry a
        later rollback still needs.

        With ``lazy`` (or the engine's ``lazy_recovery`` flag), committed
        slots are *not* synced during recovery: the main heap is already
        correct, so their backup roll-forward is re-queued for the
        background syncer, and the affected objects are re-locked as
        *pending* — §6.2's "write intents are enough to recover the lock
        information needed".  Recovery time then does not grow with the
        sync backlog at the crash.
        """
        if lazy is None:
            lazy = self.lazy_recovery
        report = RecoveryReport()
        device = self.heap_region.pool.device
        records = self.log.scan()
        if getattr(device, "media", None) is not None:
            self._verify_recovery_sources(device, records)
        for rec in records:
            if rec.state is SlotState.COMMITTED:
                continue
            for entry in rec.entries:
                if entry.kind is IntentKind.WRITE:
                    self.backup.restore(entry.offset, entry.size)
                    report.restored_ranges.append((entry.offset, entry.size))
            device.fence()
            self.log.free_slot_by_index(rec.index)
            report.rolled_back += 1
        for rec in records:
            if rec.state is not SlotState.COMMITTED:
                continue
            if lazy:
                self._requeue_committed(rec, report)
                continue
            if self.coalesce_sync:
                self.backup.absorb_entries(rec.entries)
            else:
                for entry in rec.entries:
                    if entry.kind is IntentKind.FREE:
                        self.backup.on_free_synced(entry.offset, entry.size)
                    else:
                        self.backup.absorb(entry.offset, entry.size)
            device.fence()
            self.log.free_slot_by_index(rec.index)
            report.rolled_forward += 1
        return report

    def _verify_recovery_sources(self, device, records) -> None:
        """Checksum-verify every line recovery is about to copy *from*.

        Rollback copies backup→main, roll-forward copies main→backup;
        blindly replaying either from a decayed source would launder
        media corruption into "recovered" state.  A corrupt rollback
        source raises :class:`IntegrityError` (the backup can still be
        rebuilt from a peer); a corrupt roll-forward source raises
        :class:`BothCopiesLostError` (the backup is stale for committed
        data, so no local copy is good).
        """
        from ..integrity.scrub import verify_ranges

        heap = self.heap_region
        mirror = getattr(self.backup, "region", None)
        if mirror is not None and mirror.size != heap.size:
            mirror = None  # not a full offset-identity mirror
        back_ranges: List[Tuple[int, int]] = []
        main_ranges: List[Tuple[int, int]] = []
        for rec in records:
            if rec.state is SlotState.COMMITTED:
                for entry in rec.entries:
                    if entry.kind is not IntentKind.FREE:
                        main_ranges.append((heap.offset + entry.offset, entry.size))
            elif mirror is not None:
                for entry in rec.entries:
                    if entry.kind is IntentKind.WRITE:
                        back_ranges.append((mirror.offset + entry.offset, entry.size))
        bad = verify_ranges(device, back_ranges)
        if bad:
            raise IntegrityError(
                f"recovery rollback source (backup) failed checksum on "
                f"{len(bad)} line(s): {bad[:8]}",
                lines=bad,
            )
        bad = verify_ranges(device, main_ranges)
        if bad:
            raise BothCopiesLostError(
                f"recovery roll-forward source (main) failed checksum on "
                f"{len(bad)} line(s) of committed data; backup is stale: {bad[:8]}",
                lines=bad,
            )

    def _requeue_committed(self, rec, report: RecoveryReport) -> None:
        """Rebuild the sync task + pending locks for a committed slot."""
        log = TxLog(self.log, rec.index, rec.txid)
        log._state = SlotState.COMMITTED
        log.entries = list(rec.entries)
        log._durable_entries = len(rec.entries)
        log._touched_nvm = True
        # the slot stays occupied until its sync lands; remove it from
        # the free pool the LogManager rebuilt at open()
        with self.log._free_cond:
            if rec.index in self.log._free:
                self.log._free.remove(rec.index)
        write_offsets = set()
        for entry in rec.entries:
            write_offsets.add(entry.offset)
            self.backup.pin(entry.offset)
            self.locks.force_pending(entry.offset)
        self._queue.append(_SyncTask(log, list(rec.entries), write_offsets))
        report.rolled_forward += 1


@register_engine(
    "kamino-simple",
    capabilities=EngineCapabilities(
        description="atomic in-place updates, full heap mirror synced off the critical path",
        copies_in_critical_path=False,
        has_backup=True,
        locks_released_after_sync=True,
        cost_profile="kamino",
    ),
)
def kamino_simple(**kwargs) -> KaminoEngine:
    """Kamino-Tx-Simple: in-place updates with a full heap mirror."""
    engine = KaminoEngine(backup=FullBackup(), **kwargs)
    engine.name = "kamino-simple"
    return engine
