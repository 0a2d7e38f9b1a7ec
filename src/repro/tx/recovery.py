"""Recovery driver and consistency checking utilities.

Engines own their recovery logic (:meth:`AtomicityEngine.recover`); this
module provides the orchestration used by operators and tests: reopening
a crashed pool end-to-end, and verifying the Kamino invariant that main
and backup agree wherever no transaction is in flight.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import RecoveryError
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool
from .base import AtomicityEngine, RecoveryReport


def reopen_after_crash(device: NVMDevice, engine_factory: Callable[[], AtomicityEngine]):
    """Restart a crashed device and reopen its heap, running recovery.

    Returns ``(heap, engine, report)``; ``engine_factory`` must build an
    engine configured identically to the one in use before the crash
    (same scheme and α — just as a real system restarts with the same
    binary and config).

    When a protected :class:`~repro.integrity.model.MediaFaultModel` is
    attached to the device, recovery checksum-verifies the lines it is
    about to copy from (inside :meth:`KaminoEngine.recover`, raising
    typed :class:`~repro.errors.MediaError`\\ s rather than replaying
    corrupt bytes) and a full scrub pass runs right after the heap
    opens; its report is stashed as ``engine.last_scrub_report``.
    """
    from ..heap.heap import PersistentHeap

    if device.crashed:
        device.restart()
    pool = PmemPool.open(device)
    engine = engine_factory()
    media = getattr(device, "media", None)
    if media is not None:
        pool.load_quarantine(media)
        if media.tree is not None:
            # land on a verifiable integrity tree before any recovery
            # copy consults it: replay the pending leaf log, rebuild the
            # (volatile) interior, and check the rebuilt root against
            # the published root — raises RootMismatchError rather than
            # proceeding with a tree it cannot verify.
            media.tree.recover(device._durable)
    heap = PersistentHeap.open(pool, engine)
    report = getattr(engine, "last_recovery_report", None)
    if report is None:
        # PersistentHeap.open already ran recover(); run again (idempotent)
        # to obtain a report object for callers that want one.
        report = engine.recover()
    if media is not None and media.protected:
        from ..integrity.scrub import Scrubber

        engine.last_scrub_report = Scrubber(
            device, pool=pool, engine=engine
        ).scrub_once()
    return heap, engine, report


def verify_backup_consistency(heap) -> None:
    """Assert main == backup over all *live* heap bytes (Kamino invariant).

    Only valid while no transactions are in flight and the sync queue is
    drained.  The full mirror is compared over the allocator metadata and
    every allocated block (:meth:`SlabAllocator.live_ranges`) — free
    space is exempt, because rolling back a crashed allocation restores
    only the bitmap word, legitimately leaving the never-allocated
    block's torn contents behind in main.  For the dynamic backup, each
    cached entry is checked against its main-heap bytes.  Raises
    :class:`RecoveryError` on any divergence — this is the workhorse of
    the property-based crash tests and the crash checker's backup oracle.
    """
    engine = heap.engine
    backup = getattr(engine, "backup", None)
    if backup is None:
        return  # engine has no backup to be consistent with
    if engine.pending_count:
        raise RecoveryError("verify called with pending sync work")
    from .backup import FullBackup

    if isinstance(backup, FullBackup):
        allocator = getattr(heap, "allocator", None)
        ranges = (
            allocator.live_ranges()
            if allocator is not None
            else [(0, heap.region.size)]
        )
        for start, length in ranges:
            for off in range(start, start + length, 4096):
                size = min(4096, start + length - off)
                if backup.region.read(off, size) != heap.region.read(off, size):
                    raise RecoveryError(f"backup diverges from main at offset {off}")
        return
    # dynamic backup: validate every cached copy
    for heap_off, (_i, backup_off, size, _slot) in backup.lookup.index.items():
        main = heap.region.read(heap_off, size)
        copy = backup.region.read(backup_off, size)
        if main != copy:
            raise RecoveryError(
                f"dynamic backup copy of offset {heap_off} diverges from main"
            )
