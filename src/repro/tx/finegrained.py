"""``kamino-finegrained``: Kamino-Tx-Dynamic over a striped lock table.

The baseline Kamino engines are already *logically* fine-grained — the
lock table holds one entry per object offset — but every entry shares a
single mutex/condition, so concurrent clients serialise through the
table even when their write sets are disjoint.  This registration builds
the one :class:`~repro.tx.kamino.KaminoEngine` over the dynamic
(α-sized) backup and swaps in a
:class:`~repro.tx.striped_locks.StripedLockTable`: disjoint transactions
take disjoint stripe mutexes and proceed truly in parallel, the
*Persistent HyTM fast-path fine-grained locking* design point
(PAPERS.md).

Everything durable is the engine's: the intent log, the in-place stores,
the commit record, the asynchronous backup sync, and recovery.  Locks
are volatile, so under a single uncontended client this engine is
**bit-identical** to ``kamino-dynamic`` — same durable bytes, same
``NVMStats``, same crash fingerprints — which the differential test
(``tests/tx/test_finegrained_differential.py``) pins.  The win is pure
software-serialisation cost, modelled by the lock op cost of the table
the engine holds (:attr:`StripedLockTable.cost`, mostly stripe-local)
and measured by the contended-YCSB battery.

Deadlock discipline: only acquisitions can wait.  Incremental
single-lock acquisition keeps the table's timeout escape, and any batch
acquisition climbs the canonical ascending-offset order
(:meth:`~repro.tx.striped_locks.StripedLockTable.acquire_write_many`).
Commit and sync need no order: ``mark_pending`` and the ``release_*``
methods take one stripe mutex and never wait, and no table method holds
two stripe mutexes.
"""

from __future__ import annotations

from ..runtime.registry import EngineCapabilities, register_engine
from .dynamic import DynamicBackup
from .kamino import KaminoEngine
from .striped_locks import StripedLockTable


@register_engine(
    "kamino-finegrained",
    capabilities=EngineCapabilities(
        description=(
            "kamino-dynamic with a striped per-object lock table: disjoint "
            "write sets never serialise on lock-table internals"
        ),
        options=("alpha", "stripes"),
    ),
)
def kamino_finegrained(alpha: float = 0.5, stripes: int = 16, **kwargs) -> KaminoEngine:
    """Kamino-Tx with fine-grained striped locking over an α-sized backup."""
    engine = KaminoEngine(backup=DynamicBackup(alpha=alpha), **kwargs)
    engine.locks = StripedLockTable(stripes, resolver=engine._resolve_pending)
    engine.name = "kamino-finegrained"
    return engine
