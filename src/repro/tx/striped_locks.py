"""Striped object-lock table: the fine-grained concurrency fast path.

The baseline :class:`~repro.tx.locks.ObjectLockTable` guards *every*
offset's entry with one global mutex/condition — correct, but every
acquire and release serialises through it, which is exactly the
software cost *Persistent HyTM via Fast Path Fine-Grained Locking*
(PAPERS.md) attributes the global-lock slowdown to.  This table keeps
the identical locking *logic* (reader/writer entries, ``pending_sync``
deferral, on-demand sync resolution) but shards the entries over N
independent stripes, each with its own mutex, condition, and stats —
two transactions touching different stripes never contend on table
internals.

Three properties make the sharding safe and testable:

* **Stripe-count invariance** — an offset's entry lives in exactly one
  stripe and every operation on it takes only that stripe's mutex, so
  the observable lock behaviour (grants, waits, pending deferral, stats
  counters) is bit-identical for any stripe count, including 1 (which
  degenerates to the global table).  The property suite
  (``tests/property/test_finegrained_locks.py``) sweeps this.
* **Deadlock-avoiding ordered acquisition** — a transaction that needs
  several locks at once acquires them through
  :meth:`acquire_write_many`, which sorts the batch into canonical
  (ascending-offset) order.  All multi-lock holders climb the same
  global order, so the waits-for graph cannot contain a cycle.
  Single-lock incremental acquisition (the heap's ``TX_ADD`` path)
  keeps the baseline's timeout escape.
* **No cross-stripe operations** — no table method ever holds two
  stripe mutexes, so the stripes themselves cannot deadlock.

:attr:`StripedLockTable.stats` sums the stripes' own
:class:`~repro.tx.locks.LockStats`, so callers read one counter shape
whichever table an engine runs.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..sim.resources import LockCost
from .locks import LockStats, ObjectLockTable

#: 2^64 / phi — spreads consecutive block offsets across stripes
_GOLDEN_64 = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1


class StripedLockTable:
    """Drop-in for :class:`ObjectLockTable` sharded over N stripes.

    Args:
        nstripes: number of independent stripes (mutex + entries each).
        resolver: on-demand sync callback, as in the baseline table.
        timeout: per-acquisition deadlock-escape timeout in seconds.
    """

    #: the global table's 40 ns, split: only the slot-pool handoff stays
    #: serialized, so the gap opens only under contention
    cost = LockCost(serial_ns=8.0, local_ns=32.0)

    def __init__(
        self,
        nstripes: int = 16,
        resolver: Optional[Callable[[int], None]] = None,
        timeout: float = 10.0,
    ):
        if nstripes < 1:
            raise ValueError("nstripes must be at least 1")
        self.nstripes = nstripes
        self._tables = [
            ObjectLockTable(resolver=resolver, timeout=timeout)
            for _ in range(nstripes)
        ]

    def _stripe(self, offset: int) -> ObjectLockTable:
        # golden-ratio mix of the block index (offsets are >=32-byte
        # block starts) so dense neighbouring blocks spread evenly
        return self._tables[(((offset >> 5) * _GOLDEN_64) & _MASK_64) % self.nstripes]

    # -- configuration (propagated to every stripe) ---------------------------

    def set_resolver(self, resolver: Optional[Callable[[int], None]]) -> None:
        for table in self._tables:
            table.set_resolver(resolver)

    # -- acquisition -----------------------------------------------------------

    def acquire_write(self, txid: int, offset: int) -> None:
        self._stripe(offset).acquire_write(txid, offset)

    def acquire_read(self, txid: int, offset: int) -> None:
        self._stripe(offset).acquire_read(txid, offset)

    def acquire_write_many(self, txid: int, offsets: Iterable[int]) -> None:
        """Take several write locks in canonical (ascending) order.

        Every multi-lock acquirer climbs the same global offset order,
        so no waits-for cycle can form regardless of which stripes the
        offsets hash to — the deadlock-avoidance discipline of the
        fine-grained engine family.
        """
        for offset in sorted(set(offsets)):
            self.acquire_write(txid, offset)

    # -- release ------------------------------------------------------------------

    def release_read(self, txid: int, offset: int) -> None:
        self._stripe(offset).release_read(txid, offset)

    def release_read_many(self, txid: int, offsets: Iterable[int]) -> None:
        for offset in offsets:
            self._stripe(offset).release_read(txid, offset)

    def release_write(self, txid: int, offset: int) -> None:
        self._stripe(offset).release_write(txid, offset)

    def release_write_many(self, txid: int, offsets: Iterable[int]) -> None:
        for offset in sorted(set(offsets)):
            self.release_write(txid, offset)

    def mark_pending(self, txid: int, offset: int) -> None:
        self._stripe(offset).mark_pending(txid, offset)

    def release_pending(self, offset: int) -> None:
        self._stripe(offset).release_pending(offset)

    def force_pending(self, offset: int) -> None:
        self._stripe(offset).force_pending(offset)

    # -- introspection ----------------------------------------------------------------

    def is_pending(self, offset: int) -> bool:
        return self._stripe(offset).is_pending(offset)

    def is_locked(self, offset: int) -> bool:
        return self._stripe(offset).is_locked(offset)

    def holder(self, offset: int) -> Optional[int]:
        return self._stripe(offset).holder(offset)

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables)

    # -- stats ---------------------------------------------------------------------------

    @property
    def stats(self) -> LockStats:
        """Aggregate counters, shape-compatible with the baseline table."""
        total = LockStats()
        for table in self._tables:
            s = table.stats
            total.write_acquires += s.write_acquires
            total.read_acquires += s.read_acquires
            total.dependent_waits += s.dependent_waits
            total.conflict_waits += s.conflict_waits
            total.on_demand_syncs += s.on_demand_syncs
        return total
