"""NVTraverse-style engine: defer persistence until the "destination".

*NVTraverse* (PAPERS.md) observes that in a traversal data structure the
path walked to reach a modification site does not need to be persisted
— only the final ("destination") writes do, and they can all be flushed
together right before the linearisation point.  This engine encodes
that discipline on top of the Kamino machinery:

* **Traversal phase** (``begin`` → ``commit``): every write lands in a
  *volatile DRAM shadow buffer*; no intent-log slot is taken yet (a
  slot is taken at its first use, here the commit), the full-mirror
  backup needs no copy-on-miss, and locks are volatile.  The phase
  therefore performs **zero NVM stores, flushes, fences, or copies** —
  only loads (to seed shadows and serve reads).
* **Destination phase** (``commit``): the entire intent set is appended
  and made durable in one batch (fence 1), the shadows are applied to
  the main heap in place and flushed together (fence 2), and the slot
  is durably marked ``COMMITTED`` (fence 3) — the linearisation point.
  Exactly three fences per update transaction, independent of how many
  objects the traversal touched.
* **Abort** discards the shadows and releases locks — zero NVM traffic
  (no slot was taken, so there is no FREE write either).

Correctness argument, encoded as oracles in ``tests/tx/test_nvtraverse.py``
and swept by CrashExplorer:

1. A crash before fence 1 leaves the slot durably FREE and the main
   heap untouched → recovery ignores it (atomicity: nothing happened).
2. A crash between fence 1 and fence 3 finds a durable ``RUNNING``
   slot; the main heap holds an arbitrary prefix of the destination
   stores, but the full mirror still holds every pre-transaction byte
   (it is only rolled forward *after* commit), so the inherited Kamino
   rollback restores exactly the pre-transaction state.
3. After fence 3 the inherited roll-forward path syncs the mirror —
   the same idempotent machinery as ``kamino-simple``.

The backup must be the :class:`~repro.tx.backup.FullBackup` mirror: a
dynamic backup's copy-on-miss would reintroduce critical-path NVM
copies during traversal, violating the store-free oracle.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import LogFullError
from ..runtime.registry import EngineCapabilities, register_engine
from .backup import FullBackup
from .base import IntentKind, Transaction
from .intent_log import SlotState
from .kamino import KaminoEngine


class _ShadowBuffer:
    """Volatile DRAM staging buffer with the region read/write surface.

    The heap only ever calls ``.write(off, data)``, ``.read(off, size)``
    and ``.read_declared(off, size, loads)`` on a translation target, so
    a plain bytearray wrapper is a drop-in —
    and, unlike the CoW engine's log-region shadows, costs no NVM ops.
    """

    __slots__ = ("buf",)

    def __init__(self, data: bytes):
        self.buf = bytearray(data)

    def write(self, offset: int, data: bytes) -> None:
        self.buf[offset : offset + len(data)] = data

    def read(self, offset: int, size: int) -> bytes:
        return bytes(self.buf[offset : offset + size])

    def read_declared(self, offset: int, size: int, loads) -> bytes:
        # DRAM: no field load of a shadow was ever charged
        return bytes(self.buf[offset : offset + size])


class NVTraverseEngine(KaminoEngine):
    """Traversal-deferred persistence over the full-mirror Kamino base."""

    name = "nvtraverse"
    translates_reads = True

    def __init__(self, **kwargs):
        backup = kwargs.pop("backup", None)
        super().__init__(backup=backup if backup is not None else FullBackup(), **kwargs)

    # -- shadow bookkeeping -----------------------------------------------------

    @staticmethod
    def _shadows(tx: Transaction) -> Dict[int, "_ShadowBuffer"]:
        return tx.engine_state.setdefault("shadows", {})

    def _find_shadow(
        self, tx: Transaction, offset: int, size: int
    ) -> Optional[Tuple["_ShadowBuffer", int]]:
        for ioff, shadow in self._shadows(tx).items():
            if ioff <= offset and offset + size <= ioff + len(shadow.buf):
                return shadow, offset - ioff
        return None

    # -- traversal phase: volatile only -------------------------------------------

    def on_add(self, tx: Transaction, offset: int, size: int, kind: IntentKind) -> None:
        if len(tx.intents) >= self.max_entries:
            # fail where the base engine would (its log.append overflows here)
            raise LogFullError(
                f"transaction exceeds {self.max_entries} intents "
                f"(log slot capacity)"
            )
        self._phase("lock_data")
        self.locks.acquire_write(tx.txid, offset)
        if kind is IntentKind.WRITE:
            # full mirror: consistent for unlocked objects, no copy needed
            self.backup.ensure_copy(offset, size)
        self.backup.pin(offset)
        tx.intents.append((offset, size, kind))
        tx.write_set.add(offset)
        if kind is IntentKind.FREE:
            return
        shadows = self._shadows(tx)
        if offset not in shadows:
            if kind is IntentKind.WRITE:
                # seed from the current main bytes (loads are allowed
                # during traversal; stores are not)
                shadows[offset] = _ShadowBuffer(self.heap_region.read(offset, size))
            else:  # ALLOC starts zeroed, like a fresh block
                shadows[offset] = _ShadowBuffer(bytes(size))

    def before_data_write(self, tx: Transaction) -> None:
        # the base flushes the intent batch before the first in-place
        # store; here stores go to volatile shadows, so nothing to do
        pass

    def translate_write(
        self, tx: Optional[Transaction], offset: int, size: int
    ) -> Optional[Tuple["_ShadowBuffer", int]]:
        if tx is None:
            return None
        return self._find_shadow(tx, offset, size)

    def translate_read(
        self, tx: Optional[Transaction], offset: int, size: int
    ) -> Optional[Tuple["_ShadowBuffer", int]]:
        if tx is None:
            return None
        return self._find_shadow(tx, offset, size)

    # -- destination phase ---------------------------------------------------------

    def commit(self, tx: Transaction) -> None:
        if not tx.intents and not tx.deferred_frees:
            # read-only: no slot was ever taken
            self._release_reads(tx)
            return
        self._apply_deferred_frees(tx)
        # the slot is taken here, at the destination: the traversal
        # declared its intents into volatile shadows only
        log = self._txlog(tx)
        # destination reached: publish the whole intent set in one batch
        for offset, size, kind in tx.intents:
            log.append(offset, size, kind, 0)
        log.make_durable()  # fence 1: intents durable before any main store
        self._phase("log_intents")
        shadows = self._shadows(tx)
        region = self.heap_region
        for offset, size, kind in tx.intents:
            if kind is IntentKind.FREE:
                continue
            shadow = shadows.get(offset)
            if shadow is not None:
                region.write(offset, bytes(shadow.buf))
        self._phase("edit_orig")
        self._flush_modified_ranges(tx)  # fence 2: destination stores durable
        self._phase("flush_data")
        log.set_state(SlotState.COMMITTED)  # fence 3: linearisation point
        self._phase("commit_record")
        self._defer_sync(tx, log)

    def abort(self, tx: Transaction) -> None:
        # the main heap and the log slot were never touched during
        # traversal (the slot is taken only at commit): dropping the
        # volatile shadows IS the rollback
        self._release_log(tx)
        for off in tx.write_set:
            self.backup.unpin(off)
        self._release_all(tx)


@register_engine(
    "nvtraverse",
    capabilities=EngineCapabilities(
        description=(
            "traversal-deferred persistence: volatile shadows during the "
            "walk, one batched flush+commit at the destination, full mirror"
        ),
    ),
)
def nvtraverse(**kwargs) -> NVTraverseEngine:
    """NVTraverse-style destination-only persistence engine."""
    return NVTraverseEngine(**kwargs)
