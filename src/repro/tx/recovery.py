"""Recovery driver and consistency checking utilities.

Engines own their recovery logic (:meth:`AtomicityEngine.recover`); this
module provides the orchestration used by operators and tests: reopening
a crashed pool end-to-end, and verifying the Kamino invariant that main
and backup agree wherever no transaction is in flight.
"""

from __future__ import annotations

from typing import Callable

from ..errors import RecoveryError
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool
from .base import AtomicityEngine


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
    media = device.media
    if media is not None:
        pool.load_quarantine(media)
        if media.tree is not None:
            # land on a verifiable integrity tree before any recovery
            # copy consults it: replay the pending leaf log, rebuild the
            # (volatile) interior, and check the rebuilt root against
            # the published root — raises RootMismatchError rather than
            # proceeding with a tree it cannot verify.
            media.tree.recover()
    heap = PersistentHeap.open(pool, engine)
    if media is not None and media.protected:
        from ..integrity.scrub import Scrubber

        engine.last_scrub_report = Scrubber(
            device, pool=pool, engine=engine
        ).scrub_once()
    return heap, engine, engine.last_recovery_report


def verify_backup_consistency(heap) -> None:
    """Assert main == backup over all *live* heap bytes (Kamino invariant).

    Only valid while no transactions are in flight and the sync queue is
    drained.  Every copy the backup strategy holds of the allocator
    metadata and the allocated blocks (:meth:`SlabAllocator.live_ranges`,
    through :meth:`~repro.tx.backup.BackupStrategy.copies`) is compared
    with main — the whole live heap for the full mirror, the cached
    slots for the dynamic backup.  Free space is exempt, because rolling
    back a crashed allocation restores only the bitmap word, legitimately
    leaving the never-allocated block's torn contents behind in main.
    Raises :class:`RecoveryError` on any divergence — this is the
    workhorse of the property-based crash tests and the crash checker's
    backup oracle.
    """
    engine = heap.engine
    if engine.backup is None:
        return  # engine has no backup to be consistent with
    if engine.pending_count:
        raise RecoveryError("verify called with pending sync work")
    read = heap.pool.device.read
    base = heap.region.offset
    for main, copy, size in engine.backup.copies(heap.allocator.live_ranges()):
        for at in range(0, size, 4096):
            n = min(4096, size - at)
            if read(copy + at, n) != read(main + at, n):
                raise RecoveryError(f"backup diverges from main at offset {main + at - base}")
