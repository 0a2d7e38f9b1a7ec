"""Transaction core: the engine interface every atomicity scheme implements.

The paper's implementation hooks Intel NVML's transactional primitives
(Table 2): ``TX_BEGIN``, ``TX_ADD`` (declare write intent), ``TX_ZALLOC``,
``TX_FREE``, ``TX_COMMIT``, ``TX_ABORT``.  This module defines the same
hook surface as an abstract :class:`AtomicityEngine`; the undo-logging
baseline, the copy-on-write baseline, and the two Kamino-Tx engines are
drop-in implementations, so the heap, data structures, and workloads above
them are byte-for-byte identical across schemes — exactly the experimental
methodology of the paper.

Engines operate on *ranges* ``(offset, size)`` of the heap region rather
than typed objects: allocator metadata words, object headers, and object
payloads all participate in atomicity uniformly ("allocations and
deallocations are simply treated as modifications to persistent metadata
objects", §6.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import TxAborted, TxError
from ..nvm.pool import PmemPool, PmemRegion


class IntentKind(Enum):
    """What a declared write intent means for rollback/roll-forward.

    ``WRITE`` — an in-place modification of existing bytes; rollback must
    restore the old contents, roll-forward must propagate the new ones.
    ``ALLOC`` — a freshly allocated block; its *contents* need no undo
    data (rollback is handled by undoing the allocator bitmap write, which
    is itself a ``WRITE`` intent), but roll-forward must still propagate
    the initialised contents to the backup.
    ``FREE`` — a block freed by this transaction; the actual bitmap clear
    is applied at commit time as a ``WRITE``.
    """

    WRITE = 1
    ALLOC = 2
    FREE = 3


class TxState(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """A single atomic unit of work against one heap.

    Created by :meth:`AtomicityEngine.begin`; applications normally use
    the heap's context-manager API instead of touching this directly.
    ``txid`` is issued by the engine, above every txid its log holds,
    never from process-global state, so a replay writes the same bytes.
    """

    def __init__(self, engine: "AtomicityEngine", txid: int):
        self.engine = engine
        self.txid: int = txid
        self.state: TxState = TxState.ACTIVE
        self.depth: int = 1  # flat nesting, NVML-style
        #: ordered write intents: (offset, size, kind)
        self.intents: List[Tuple[int, int, IntentKind]] = []
        #: offsets (range starts) this transaction write-locked
        self.write_set: Set[int] = set()
        #: offsets this transaction read-locked
        self.read_set: Set[int] = set()
        #: blocks scheduled for deallocation at commit: (block_off, size)
        self.deferred_frees: List[Tuple[int, int]] = []
        #: callbacks run after an abort (volatile bookkeeping rollback)
        self.on_abort: List[Callable[[], None]] = []
        #: scratch area engines may hang per-transaction state on
        self.engine_state: Dict[str, object] = {}

    # -- intent declaration --------------------------------------------------

    def add(self, offset: int, size: int, kind: IntentKind = IntentKind.WRITE) -> None:
        """Declare a write intent for ``[offset, offset+size)`` (TX_ADD)."""
        self._require_active()
        self.engine.on_add(self, offset, size, kind)

    def has_intent(self, offset: int) -> bool:
        """True if a write intent starting at ``offset`` was declared."""
        return offset in self.write_set

    def covers_write(self, offset: int, size: int) -> bool:
        """True if ``[offset, offset+size)`` lies inside a declared intent."""
        for ioff, isize, _kind in self.intents:
            if ioff <= offset and offset + size <= ioff + isize:
                return True
        return False

    # -- outcome ---------------------------------------------------------------

    def commit(self) -> None:
        """Commit (outermost level of a flat-nested transaction)."""
        self._require_active()
        if self.depth > 1:
            self.depth -= 1
            return
        self.engine.commit(self)
        self.state = TxState.COMMITTED
        hook = self.engine.trace_hook
        if hook is not None:
            hook(self)

    def abort(self) -> None:
        """Abort and roll back; raises :class:`TxAborted` on nested abort."""
        self._require_active()
        self.engine.abort(self)
        self.mark_aborted()

    def mark_aborted(self) -> None:
        """End the transaction aborted and undo its volatile bookkeeping
        (an engine that refuses the rollback still ends it)."""
        self.state = TxState.ABORTED
        # reverse order: later volatile changes undone first, like a log
        for cb in reversed(self.on_abort):
            cb()

    def _require_active(self) -> None:
        if self.state is not TxState.ACTIVE:
            raise TxError(f"transaction {self.txid} is {self.state.value}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tx {self.txid} {self.state.value} intents={len(self.intents)}>"


class AtomicityEngine(ABC):
    """Interface between the persistent heap and an atomicity scheme.

    Lifecycle: construct → :meth:`attach` (reserve regions on the pool;
    also the reopen path) → optionally :meth:`recover` → serve
    transactions.  ``sync_pending`` drains any asynchronous work the
    scheme defers off the critical path (a no-op for critical-path
    schemes like undo logging).
    """

    #: short identifier used in benchmark output
    name: str = "abstract"

    #: optional callback invoked with each committed Transaction — the
    #: benchmark harness uses it to capture read/write sets
    trace_hook = None

    #: the :class:`~repro.tx.backup.BackupStrategy` holding the rollback
    #: copy, for schemes that keep one (Kamino); None for the rest
    backup = None

    #: what the last :meth:`recover` on reopen did, and the scrub pass
    #: that followed it on protected media (set by the reopen path)
    last_recovery_report: Optional["RecoveryReport"] = None
    last_scrub_report = None

    @abstractmethod
    def attach(self, pool: PmemPool, heap_region: PmemRegion) -> None:
        """Bind to ``pool``, reserving/reopening the engine's regions."""

    @abstractmethod
    def begin(self) -> Transaction:
        """Start a transaction."""

    @abstractmethod
    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        """Handle a declared write intent (lock + scheme-specific capture)."""

    def on_read(self, tx: Transaction, offset: int, size: int) -> None:
        """Handle a declared read (shared lock); default: no isolation."""

    def before_data_write(self, tx: Transaction) -> None:
        """Called before each in-place store of ``tx``.

        Kamino engines use this to make freshly appended intent-log
        entries durable before the data they cover is modified, batching
        to one flush per add-batch ("minimum number of cache flushes",
        §6.2).  Default: nothing.
        """

    def translate_write(
        self, tx: Optional[Transaction], offset: int, size: int
    ) -> Optional[Tuple[object, int]]:
        """Redirect a store; ``None`` means write the heap in place.

        Copy-on-write engines return ``(region, shadow_offset)`` so edits
        land in the transaction's private copy (Figure 2, middle column).
        In-place engines (undo, Kamino) keep the default.
        """
        return None

    #: True only for engines whose ``translate_read`` can return non-None;
    #: lets the heap's per-load hot path skip the virtual call entirely
    #: for in-place engines (undo, Kamino)
    translates_reads = False

    def translate_read(
        self, tx: Optional[Transaction], offset: int, size: int
    ) -> Optional[Tuple[object, int]]:
        """Redirect a load so a transaction observes its own shadow writes.

        ``None`` means read the heap in place (the default for in-place
        engines and for reads outside any transaction).
        """
        return None

    @abstractmethod
    def commit(self, tx: Transaction) -> None:
        """Make ``tx`` durable and atomic; apply deferred frees."""

    @abstractmethod
    def abort(self, tx: Transaction) -> None:
        """Roll the heap back to the state before ``tx`` started."""

    @abstractmethod
    def recover(self) -> "RecoveryReport":
        """Repair the heap after a crash using persistent log state."""

    def sync_pending(self, limit: Optional[int] = None) -> int:
        """Drain up to ``limit`` units of deferred (off-critical-path) work.

        Returns the number of work items processed.  Engines that do all
        work in the critical path return 0.
        """
        return 0

    @property
    def pending_count(self) -> int:
        """Deferred work items not yet drained."""
        return 0

    def pending_ranges(self) -> Tuple[Tuple[int, int], ...]:
        """Heap-relative ``(offset, size)`` ranges whose backup copy is
        stale (committed but not yet synced).  The scrubber must not
        "repair" main from the backup inside these ranges, and the crash
        summary reports them as pending repairs.  Engines with no
        deferred mirror work have none."""
        return ()

    def register_free_handler(self, fn: Callable[["Transaction", int, int], None]) -> None:
        """Install the allocator callback used to apply deferred frees.

        The heap calls this at attach time; engines invoke the handler at
        commit for every ``TX_FREE``'d block (the bitmap clear becomes an
        ordinary transactional write just before the commit record).
        """
        self._free_handler = fn

    def _apply_deferred_frees(self, tx: Transaction) -> None:
        handler = getattr(self, "_free_handler", None)
        if handler is None:
            if tx.deferred_frees:
                raise TxError("deferred frees present but no free handler installed")
            return
        for block_off, size in tx.deferred_frees:
            handler(tx, block_off, size)


class RecoveryReport:
    """Outcome of crash recovery, for tests and operator logging."""

    def __init__(self):
        self.rolled_forward: int = 0
        self.rolled_back: int = 0
        self.incomplete: int = 0
        self.restored_ranges: List[Tuple[int, int]] = []

    def __repr__(self) -> str:
        return (
            f"<Recovery forward={self.rolled_forward} back={self.rolled_back} "
            f"incomplete={self.incomplete}>"
        )


def run_transaction(engine: AtomicityEngine, body: Callable[[Transaction], None]) -> Transaction:
    """Execute ``body`` inside a transaction, committing on success.

    Any exception aborts the transaction;  :class:`TxAborted` is swallowed
    (an intentional abort), everything else propagates after rollback.
    """
    tx = engine.begin()
    try:
        body(tx)
    except TxAborted:
        if tx.state is TxState.ACTIVE:
            tx.abort()
        return tx
    except BaseException:
        if tx.state is TxState.ACTIVE:
            tx.abort()
        raise
    if tx.state is TxState.ACTIVE:
        tx.commit()
    return tx
