"""The non-head replica engine: in-place updates, intent log, no backup.

§5's storage argument hinges on this: replicas other than the head
"modify the objects in place without creating any copies of data or
maintaining backup versions of data".  They still keep a Log Manager —
the intent logs identify the write sets of incomplete transactions after
a quick reboot, which the chain protocol then repairs by copying those
ranges from a neighbour (roll forward from the predecessor, or roll back
from the successor when acting as the new head).

Consequences, faithfully reproduced:

* a local abort cannot roll back (the head never forwards aborts, so
  this never happens in normal operation): it is refused with a
  :class:`TxError`, yet the transaction still ends and releases its
  locks, its slot stays ``RUNNING`` and its write ranges join
  ``incomplete_ranges``, and every later transaction is refused until
  the chain has repaired them (:meth:`IntentOnlyEngine.ack_repaired`);
* commit durably marks the slot ``COMMITTED``; the slot is only freed
  when the chain's clean-up acknowledgment arrives;
* recovery cannot repair the heap alone — it *reports* the incomplete
  ranges for the chain recovery protocol (Figure 9) to fix.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from ..errors import TxError
from ..runtime.registry import EngineCapabilities, register_engine
from ._common import LockingLogEngine
from .base import IntentKind, RecoveryReport, Transaction
from .intent_log import SlotState, TxLog


@register_engine(
    "intent-only",
    capabilities=EngineCapabilities(
        description="chain replica: in-place updates + intent log; repair needs a neighbour",
        recoverable=False,
        needs_chain_repair=True,
    ),
)
class IntentOnlyEngine(LockingLogEngine):
    """In-place updates guarded only by a persistent intent log."""

    name = "intent-only"
    uses_log = True
    log_data_bytes = 0

    def __init__(self, n_slots: int = 128, max_entries: int = 256):
        super().__init__(n_slots, max_entries)
        #: committed transactions whose chain clean-up has not arrived
        self._awaiting_cleanup: Dict[int, TxLog] = {}
        self._cleanup_order: Deque[int] = deque()
        #: write ranges of transactions that were in flight at the crash
        #: or aborted here: unrepaired until :meth:`ack_repaired`
        self.incomplete_ranges: List[Tuple[int, int]] = []
        #: the slots of those transactions: recovered ones by index (a
        #: reopened log lists them free), aborted ones by the handle
        #: that returns them to the free pool
        self._repair_slots: List[int] = []
        self._aborted_logs: List[TxLog] = []

    def _refuse_unrepaired(self) -> None:
        raise TxError(
            f"heap ranges {self.incomplete_ranges} are unrepaired: the chain "
            "must copy them from a neighbour (ack_repaired) before this "
            "replica runs another transaction"
        )

    # -- transactions ----------------------------------------------------------

    def begin(self) -> Transaction:
        if self.incomplete_ranges:
            self._refuse_unrepaired()
        return super().begin()

    def on_read(self, tx: Transaction, offset: int, size: int) -> None:
        self.locks.acquire_read(tx.txid, offset)
        tx.read_set.add(offset)
        # a transaction that waited on an aborted one's lock must not
        # read the stores it left behind
        if self.incomplete_ranges:
            self._refuse_unrepaired()

    # -- intents ---------------------------------------------------------------

    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        self._record_intent(tx, offset, size, kind, 0)
        if self.incomplete_ranges:
            self._refuse_unrepaired()

    # -- outcomes -----------------------------------------------------------------

    def commit(self, tx: Transaction) -> None:
        log = self._txlog(tx)
        self._apply_deferred_frees(tx)
        log.make_durable()
        self._flush_modified_ranges(tx)
        log.set_state(SlotState.COMMITTED)
        if tx.intents:
            # the slot outlives the transaction until the clean-up ack
            self._awaiting_cleanup[tx.txid] = log
            self._cleanup_order.append(tx.txid)
        else:
            # read-only transaction: nothing for the chain to clean up
            log.release()
        self._release_all(tx)

    def abort(self, tx: Transaction) -> None:
        """End ``tx`` without rolling it back; refused with a
        :class:`TxError` if it declared a write or alloc intent.

        Its in-place stores stay in the heap: its slot is left durably
        ``RUNNING``, as a crash would leave it, so :meth:`recover` lists
        its ranges too, and they join :attr:`incomplete_ranges` until
        the chain repairs them from a neighbour.  Its locks are
        released, so no other transaction hangs on them; they are
        refused instead.
        """
        ranges = [(off, size) for off, size, kind in tx.intents if kind is not IntentKind.FREE]
        log = self._taken_log(tx)
        if ranges:
            log.make_durable()
            self._aborted_logs.append(log)
            self.incomplete_ranges.extend(ranges)
        elif log is not None:
            # only FREE intents, applied at commit: nothing is stored in place
            log.release()
        self._release_all(tx)
        tx.mark_aborted()
        if ranges:
            raise TxError(
                "a chain replica without a backup cannot roll back locally; "
                "aborts are decided at the head and never forwarded"
            )

    def release_committed(self, txid: int) -> None:
        """Clean-up ack for the transaction arrived: drop its intent log."""
        log = self._awaiting_cleanup.pop(txid, None)
        if log is not None:
            try:
                self._cleanup_order.remove(txid)
            except ValueError:
                pass
            log.release()

    def release_all_committed(self) -> None:
        """Drop every awaiting slot — used for setup-time transactions
        committed before the replica enters the chain protocol."""
        while self._cleanup_order:
            self.release_committed(self._cleanup_order[0])

    def release_oldest_committed(self) -> None:
        """Clean-up acks arrive in commit order (FIFO links); drop the
        oldest awaiting slot.  The tail calls this for itself at commit
        time — it originates the clean-up acks and receives none."""
        if self._cleanup_order:
            self.release_committed(self._cleanup_order[0])

    @property
    def cleanup_backlog(self) -> int:
        return len(self._awaiting_cleanup)

    # -- recovery --------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Classify surviving slots; repair is the chain's job.

        ``COMMITTED`` slots are locally complete (their data was flushed
        before the commit record) and are freed.  ``RUNNING`` slots are
        incomplete: their write ranges are published via
        ``incomplete_ranges`` so the node can roll them forward/back from
        a neighbour, after which :meth:`ack_repaired` frees the slots.
        """
        report = RecoveryReport()
        self.incomplete_ranges = []
        self._repair_slots = []
        for rec in self._scan_log():
            if rec.state is SlotState.COMMITTED:
                self.log.free_slot_by_index(rec.index)
                report.rolled_forward += 1
                continue
            for entry in rec.entries:
                if entry.kind is not IntentKind.FREE:
                    self.incomplete_ranges.append((entry.offset, entry.size))
            self._repair_slots.append(rec.index)
            report.incomplete += 1
        return report

    def ack_repaired(self) -> None:
        """The chain repaired every incomplete range: free their slots."""
        for index in self._repair_slots:
            self.log.free_slot_by_index(index)
        for log in self._aborted_logs:
            log.release()
        self._repair_slots = []
        self._aborted_logs = []
        self.incomplete_ranges = []
