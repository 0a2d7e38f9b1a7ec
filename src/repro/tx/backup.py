"""Backup strategies: the full mirror (Kamino-Tx-Simple) and the
strategy interface the dynamic variant also implements.

The backup is the other half of Kamino-Tx's bargain: transactions write
the main heap in place, and this component holds the consistent copy
used to roll back aborts/crashes and is rolled forward asynchronously
after commits.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import DeviceCrashedError
from ..nvm.latency import CACHE_LINE
from ..nvm.pool import PmemPool, PmemRegion
from .base import IntentKind

BACKUP_REGION = "backup"

_LINE_SHIFT = CACHE_LINE.bit_length() - 1


class BackupSyncer:
    """A background thread draining an engine's deferred backup syncs.

    This is the Transaction Coordinator's "background thread which
    utilizes the information maintained by Log Manager to keep backup
    version consistent with the main version" (§6.3).  The benchmark
    harness instead pumps :meth:`~repro.tx.base.AtomicityEngine.
    sync_pending` from virtual-time events; this thread exists for
    *live* (real-thread) deployments and the threaded integration tests.

    Use as a context manager::

        with BackupSyncer(engine):
            ... transactions on other threads ...
    """

    def __init__(self, engine, poll_interval: float = 0.0005,
                 max_lag: Optional[int] = None):
        self.engine = engine
        self.poll_interval = poll_interval
        #: backlog bound for producer-side back-pressure: when set,
        #: :meth:`throttle` blocks writers while the engine's deferred
        #: sync queue is longer than this (the chain head applies the
        #: same idea in virtual time via ``ChainCluster.max_backup_lag``)
        self.max_lag = max_lag
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.synced = 0
        #: number of :meth:`throttle` calls that actually had to wait
        self.throttled = 0
        #: set when the device power-failed under the syncer; holds a
        #: human-readable summary instead of letting ``DeviceCrashedError``
        #: escape from ``stop()`` / ``__exit__`` during test teardown
        self.crash_summary: Optional[str] = None
        #: heap-relative ranges whose backup repair was still pending at
        #: the crash (``engine.pending_ranges()`` snapshot) — the work
        #: recovery's roll-forward will redo
        self.pending_repair_ranges: Tuple[Tuple[int, int], ...] = ()

    def start(self) -> "BackupSyncer":
        if self._thread is not None:
            raise RuntimeError("syncer already started")
        self._stop.clear()
        self.crash_summary = None
        self.pending_repair_ranges = ()
        self._thread = threading.Thread(target=self._run, name="backup-syncer", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                done = self.engine.sync_pending(limit=16)
            except DeviceCrashedError as exc:
                self._note_crash(exc)
                return
            self.synced += done
            if done == 0:
                self._stop.wait(self.poll_interval)

    def throttle(self, timeout: float = 10.0) -> bool:
        """Block the calling (writer) thread until the deferred backlog
        is within :attr:`max_lag` — back-pressure instead of unbounded
        lag.  Returns False if the wait timed out, the syncer stopped,
        or the device crashed (the backlog then belongs to recovery);
        True when the writer may proceed.  No-op without a bound."""
        if self.max_lag is None or self.engine.pending_count <= self.max_lag:
            return True
        self.throttled += 1
        deadline = time.monotonic() + timeout
        while self.engine.pending_count > self.max_lag:
            if self._stop.is_set() or self.crashed:
                return False
            if time.monotonic() >= deadline:
                return False
            time.sleep(self.poll_interval)
        return True

    def _note_crash(self, exc: BaseException) -> None:
        ranges = self.engine.pending_ranges()
        self.pending_repair_ranges = ranges
        detail = ""
        if ranges:
            shown = ", ".join(f"[{off}, {off + size})" for off, size in ranges[:4])
            more = f" (+{len(ranges) - 4} more)" if len(ranges) > 4 else ""
            detail = f"; pending repair ranges: {shown}{more}"
        self.crash_summary = (
            f"device crashed under backup syncer ({exc}); "
            f"{self.engine.pending_count} sync task(s) left for recovery{detail}"
        )

    def stop(self, drain: bool = True) -> None:
        """Stop the thread; by default drain remaining work first.

        If the device crashed mid-run (a fail-point fired on another
        thread, or the syncer itself hit one), the drain is skipped and
        the crash is recorded in :attr:`crash_summary` rather than
        raised — the pending roll-forwards now belong to crash recovery,
        and ``with BackupSyncer(...):`` blocks in crash tests must not
        explode out of ``__exit__`` during teardown.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if not drain:
            return
        device = getattr(self.engine, "heap_region", None)
        device = device.pool.device if device is not None else None
        if device is not None and device.crashed:
            if self.crash_summary is None:
                self._note_crash(DeviceCrashedError("device crashed before drain"))
            return
        try:
            self.synced += self.engine.sync_pending()
        except DeviceCrashedError as exc:
            self._note_crash(exc)

    @property
    def crashed(self) -> bool:
        """True if the device power-failed while this syncer was live."""
        return self.crash_summary is not None

    def __enter__(self) -> "BackupSyncer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


class BackupStrategy(ABC):
    """What a Kamino engine needs from its backup copy.

    Offsets are heap-region-relative; implementations map them to their
    own storage (identity for the full mirror, slot lookup for the
    dynamic partial backup).  That mapping is this class's to answer:
    recovery, the scrubber, the crash checker's rot and the consistency
    oracle ask :meth:`copies` and :meth:`partner_line` which bytes back
    up which, and :attr:`region` where the copies live.
    """

    #: the pool region holding the copies (set by :meth:`attach`)
    region: Optional[PmemRegion] = None

    @abstractmethod
    def copies(self, ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
        """``(main_abs, copy_abs, size)`` device-absolute pieces of the
        heap-relative ``(offset, size)`` ``ranges`` that have a copy, in
        range order: the rollback sources of those bytes, and the rot
        targets behind them."""

    def partner_line(self, line: int) -> Optional[int]:
        """The cache line holding the same bytes on the other side of a
        line-for-line mirror (main ↔ copy), or None.  A partial backup
        has no partners: its slots are not line-aligned with main."""
        return None

    @abstractmethod
    def attach(self, pool: PmemPool, heap_region: PmemRegion, fresh: bool) -> None:
        """Reserve/reopen backing regions; seed the mirror when fresh."""

    @abstractmethod
    def ensure_copy(self, offset: int, size: int) -> None:
        """Guarantee a consistent copy of ``[offset, offset+size)`` exists
        *before* the caller modifies the main heap in place.

        Free for the full mirror (the invariant always holds); for the
        dynamic backup a miss costs a critical-path copy — the price the
        paper pays for (1+α)× instead of 2× storage.
        """

    @abstractmethod
    def absorb(self, offset: int, size: int) -> None:
        """Roll the backup forward: copy main → backup (post-commit)."""

    @abstractmethod
    def absorb_entries(self, entries: Sequence) -> None:
        """Drain one committed transaction's intent entries in order:
        :meth:`absorb` each WRITE/ALLOC range, :meth:`on_free_synced`
        each FREE.  Strategies batch the device work (bulk copies,
        grouped flushes) but must keep :class:`~repro.nvm.stats.NVMStats`
        and durable bytes bit-identical to that entry-at-a-time loop;
        the sync-coalescing equivalence tests hold them to it."""

    @abstractmethod
    def restore(self, offset: int, size: int) -> None:
        """Roll the main heap back: copy backup → main (abort/recovery)."""

    def on_free_synced(self, offset: int, size: int) -> None:
        """A freed block's commit has fully synced; drop any copy of it."""

    def pin(self, offset: int) -> None:
        """Forbid eviction of the copy at ``offset`` (object is locked)."""

    def unpin(self, offset: int) -> None:
        """Allow eviction again (lock released, backup consistent)."""

    @property
    @abstractmethod
    def storage_bytes(self) -> int:
        """Provisioned NVM the strategy consumes (for the TCO model)."""


class FullBackup(BackupStrategy):
    """A byte-for-byte mirror of the heap region (Kamino-Tx-Simple).

    Storage requirement: 2 × dataSize, all of it provisioned on the
    device.  Resident host memory is what was written: the seeding copy
    and flush of a freshly formatted heap move no page that is zero on
    both sides (see :mod:`repro.nvm.device`), so a fresh mirror costs
    the heap's written pages, not a second heap.  ``ensure_copy`` is a
    no-op — the mirror is consistent for every object whose lock is
    free, which is exactly the paper's invariant.
    """

    def __init__(self):
        self.region: Optional[PmemRegion] = None
        self.heap_region: Optional[PmemRegion] = None

    def attach(self, pool: PmemPool, heap_region: PmemRegion, fresh: bool) -> None:
        self.heap_region = heap_region
        self.region = pool.region_or_create(BACKUP_REGION, heap_region.size)
        if fresh:
            # seed the mirror with the freshly formatted heap image
            device = pool.device
            device.copy(self.region.offset, heap_region.offset, heap_region.size)
            device.flush(self.region.offset, heap_region.size)
            device.fence()

    def copies(self, ranges: Iterable[Tuple[int, int]]) -> List[Tuple[int, int, int]]:
        """Every range, at the mirror's offset."""
        main, copy = self.heap_region.offset, self.region.offset
        return [(main + off, copy + off, size) for off, size in ranges]

    def partner_line(self, line: int) -> Optional[int]:
        addr = line << _LINE_SHIFT
        main, copy = self.heap_region, self.region
        if main.offset <= addr < main.offset + main.size:
            return (copy.offset + addr - main.offset) >> _LINE_SHIFT
        if copy.offset <= addr < copy.offset + copy.size:
            return (main.offset + addr - copy.offset) >> _LINE_SHIFT
        return None

    def ensure_copy(self, offset: int, size: int) -> None:
        """No-op: the mirror always holds a consistent copy."""

    def absorb(self, offset: int, size: int) -> None:
        device = self.region.pool.device
        device.copy(self.region.offset + offset, self.heap_region.offset + offset, size)
        self.region.flush(offset, size)

    def absorb_entries(self, entries: Sequence) -> None:
        """Interval-coalescing drain: runs of exactly-adjacent entries
        become one bulk ``device.copy``.

        The mirror is offset-identity, so entries whose heap ranges abut
        are abutting in the backup too.  A run is extended only while the
        boundary between members is cache-line aligned: then no line is
        shared between members, and flushing each member's range in the
        original order pops exactly the lines the uncoalesced loop would
        have popped — every ``NVMStats`` counter (``copies`` via the
        device's ``chunks`` accounting, ``flushes`` via ``flush_multi``,
        ``flushed_lines``, ``flush_bursts``) stays bit-identical.
        """
        device = self.region.pool.device
        backup_off = self.region.offset
        heap_off = self.heap_region.offset
        run: List[Tuple[int, int]] = []
        run_end = 0

        def drain_run() -> None:
            start = run[0][0]
            device.copy(
                backup_off + start, heap_off + start, run_end - start, chunks=len(run)
            )
            device.flush_multi([(backup_off + o, s) for o, s in run])
            run.clear()

        for entry in entries:
            if entry.kind is IntentKind.FREE:
                if run:
                    drain_run()
                self.on_free_synced(entry.offset, entry.size)
                continue
            offset, size = entry.offset, entry.size
            if run and offset == run_end and offset % CACHE_LINE == 0:
                run.append((offset, size))
                run_end = offset + size
            else:
                if run:
                    drain_run()
                run.append((offset, size))
                run_end = offset + size
        if run:
            drain_run()

    def restore(self, offset: int, size: int) -> None:
        device = self.region.pool.device
        device.copy(self.heap_region.offset + offset, self.region.offset + offset, size)
        self.heap_region.flush(offset, size)

    @property
    def storage_bytes(self) -> int:
        return self.region.size if self.region else 0

    # -- test hooks ---------------------------------------------------------

    def mirror_equals_main(self, offset: int, size: int) -> bool:
        """True if backup and main agree on the given range (tests)."""
        return self.region.read(offset, size) == self.heap_region.read(offset, size)
