"""Copy-on-write engine: the second baseline family (Figure 2, middle).

``TX_ADD`` copies the object into a private shadow **in the critical
path**; all edits go to the shadow; commit durably records the redo
decision and then copies every shadow back over the original — also in
the critical path, before locks release (Figure 5's ``copy_to_orig``).
Aborts are cheap ("simply deleting the copy is enough") and a crash
before the commit record leaves the original bytes untouched.

Recovery: a ``COMMITTED`` slot re-applies its shadows (roll forward,
idempotent); ``RUNNING``/``ABORTED`` slots are discarded.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..nvm.pool import PmemRegion
from ..runtime.registry import EngineCapabilities, register_engine
from .base import IntentKind, RecoveryReport, Transaction
from ._common import LockingLogEngine
from .intent_log import SlotState


@register_engine(
    "cow",
    capabilities=EngineCapabilities(
        description="copy-on-write shadows, redo-applied at commit",
    ),
)
class CoWEngine(LockingLogEngine):
    """Copy-on-write / redo-style baseline; see module docstring."""

    name = "cow"
    uses_log = True

    def __init__(
        self,
        n_slots: int = 64,
        max_entries: int = 256,
        log_data_bytes: int = 64 * 1024,
    ):
        super().__init__(n_slots, max_entries)
        self.log_data_bytes = log_data_bytes

    # -- shadow bookkeeping -----------------------------------------------------

    @staticmethod
    def _shadows(tx: Transaction) -> Dict[int, Tuple[int, int]]:
        """tx-private map: intent offset -> (size, shadow region offset)."""
        return tx.engine_state.setdefault("shadows", {})

    def _find_shadow(self, tx: Transaction, offset: int, size: int) -> Optional[int]:
        """Shadow address covering ``[offset, offset+size)``, if any."""
        for ioff, (isize, shadow_off) in self._shadows(tx).items():
            if ioff <= offset and offset + size <= ioff + isize:
                return shadow_off + (offset - ioff)
        return None

    # -- intents --------------------------------------------------------------------

    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        if kind is IntentKind.FREE:
            self._record_intent(tx, offset, size, kind, 0)
            return
        self._phase("lock_data")
        log = self._txlog(tx)
        shadow_off = log.reserve_data(size)
        device = self.log.region.pool.device
        if kind is IntentKind.WRITE:
            # critical-path copy of the current contents into the shadow
            device.copy(
                self.log.region.offset + shadow_off,
                self.heap_region.offset + offset,
                size,
            )
        else:  # ALLOC: the shadow starts as zeroes, like a fresh block
            self.log.region.write(shadow_off, b"\0" * size)
        self.log.region.flush(shadow_off, size)
        device.fence()
        self._phase("copy_data")
        self._record_intent(tx, offset, size, kind, shadow_off)
        self._shadows(tx)[offset] = (size, shadow_off)

    # -- translation: edits and reads hit the shadow ------------------------------------

    translates_reads = True

    def translate_write(
        self, tx: Optional[Transaction], offset: int, size: int
    ) -> Optional[Tuple[PmemRegion, int]]:
        if tx is None:
            return None
        shadow = self._find_shadow(tx, offset, size)
        if shadow is None:
            return None
        return (self.log.region, shadow)

    def translate_read(
        self, tx: Optional[Transaction], offset: int, size: int
    ) -> Optional[Tuple[PmemRegion, int]]:
        return self.translate_write(tx, offset, size)

    # -- outcomes ------------------------------------------------------------------------

    def commit(self, tx: Transaction) -> None:
        # even a read-only transaction takes a slot here: the durable
        # COMMITTED record is this scheme's commit point
        log = self._txlog(tx)
        self._apply_deferred_frees(tx)
        # make shadows + intents durable, then the redo decision
        for offset, size, kind in tx.intents:
            if kind is IntentKind.FREE:
                continue
            _size, shadow_off = self._shadows(tx)[offset]
            self.log.region.flush(shadow_off, size)
        log.make_durable()
        self._phase("edit_copy")
        log.set_state(SlotState.COMMITTED)
        self._phase("commit_record")
        # apply shadows to the originals — still the critical path
        device = self.heap_region.pool.device
        for offset, size, kind in tx.intents:
            if kind is IntentKind.FREE:
                continue
            _size, shadow_off = self._shadows(tx)[offset]
            device.copy(
                self.heap_region.offset + offset,
                self.log.region.offset + shadow_off,
                size,
            )
            self.heap_region.flush(offset, size)
        device.fence()
        self._phase("copy_to_orig")
        log.release()
        self._phase("delete_copy")
        self._release_all(tx)
        self._phase("unlock_data")

    def abort(self, tx: Transaction) -> None:
        # the originals were never touched: discard the shadows
        self._release_log(tx)
        self._release_all(tx)

    # -- recovery ----------------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        report = RecoveryReport()
        device = self.heap_region.pool.device
        for rec in self._scan_log():
            if rec.state is SlotState.COMMITTED:
                for entry in rec.entries:
                    if entry.kind is IntentKind.FREE:
                        continue
                    device.copy(
                        self.heap_region.offset + entry.offset,
                        self.log.region.offset + entry.data_off,
                        entry.size,
                    )
                    self.heap_region.flush(entry.offset, entry.size)
                    report.restored_ranges.append((entry.offset, entry.size))
                device.fence()
                report.rolled_forward += 1
            else:
                report.rolled_back += 1
            self.log.free_slot_by_index(rec.index)
        return report
