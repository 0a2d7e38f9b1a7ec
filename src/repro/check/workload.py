"""Instrumented workloads for the crash-consistency checker.

A :class:`CheckWorkload` is a deterministic script the explorer can
replay any number of times: a committed *setup* phase, a sequence of
*steps* (each one transaction), and an *observe* function projecting the
heap onto a comparable logical state.  The explorer runs the script once
uncrashed to record the **committed-transaction ledger** — the logical
state after setup and after each step — and then replays it with a
power failure scheduled at every mutating device operation, checking
each recovered heap against that ledger (see :mod:`repro.check.oracle`).

Determinism contract: given the same engine factory and device seed, a
workload must issue the same allocations and device operations on every
replay.  Handles recorded during ``setup`` (object ids) may be stored on
the instance — each replay re-runs ``setup`` on a fresh stack and
re-records them identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..heap import FixedStr, Int64, PersistentHeap, PersistentStruct
from ..kvstore import KVStore, PersistentList, PersistentRing
from ..nvm.backend import make_device
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool

#: the pool must fit every engine's worst-case footprint (undo's
#: data-carrying log region, kamino's full mirror); it costs nothing to
#: oversize — a device costs the pages a run writes, not its capacity.
#: The heap is kept small because the full mirror seeds (copies and
#: flushes) all of it in every replay.
POOL_SIZE = 8 << 20
HEAP_SIZE = 1 << 20


class CheckPair(PersistentStruct):
    """Two dependent fields: tearing one against the other is the bug."""

    fields = [("key", Int64()), ("value", FixedStr(48))]


def build_stack(
    engine_factory: Callable[[], Any],
    seed: int = 0,
    pool_size: int = POOL_SIZE,
    heap_size: int = HEAP_SIZE,
    media: str = "off",
    tree: str = "off",
) -> Tuple[PersistentHeap, Any, NVMDevice]:
    """Fresh device + pool + heap bound to a new engine instance.

    ``media`` attaches a :class:`~repro.integrity.model.MediaFaultModel`
    before the pool is formatted: ``"protected"`` maintains the checksum
    sidecar (scrub/repair works), ``"unprotected"`` injects without
    detection (the demonstration configuration), ``"off"`` attaches
    nothing.  ``tree`` (``"streamed"``/``"eager"``, protected media
    only) additionally maintains the persistent integrity tree, enabling
    detection of consistent stale-CRC replays the sidecar alone misses.
    """
    if tree != "off" and media != "protected":
        raise ValueError("integrity tree requires media='protected'")
    device = make_device(pool_size, seed=seed)
    if media != "off":
        device.attach_media(
            seed=seed,
            protect=media == "protected",
            tree=None if tree == "off" else tree,
        )
    pool = PmemPool.create(device)
    engine = engine_factory()
    heap = PersistentHeap.create(pool, engine, heap_size=heap_size)
    return heap, engine, device


class CheckWorkload:
    """Base class: subclasses define setup/steps/observe (+ validators)."""

    name = "workload"

    @property
    def n_steps(self) -> int:
        raise NotImplementedError

    def setup(self, heap: PersistentHeap) -> None:
        """Commit the baseline state (drained by the explorer)."""
        raise NotImplementedError

    def step(self, heap: PersistentHeap, i: int) -> None:
        """Apply step ``i`` as one transaction."""
        raise NotImplementedError

    def observe(self, heap: PersistentHeap) -> Any:
        """Project the heap onto a comparable logical state."""
        raise NotImplementedError

    def validate(self, heap: PersistentHeap) -> None:
        """Assert structure invariants beyond logical-state equality."""


class PairsWorkload(CheckWorkload):
    """N two-field structs updated by multi-object transactions.

    The canonical canned workload: each transaction updates ``key`` and
    the derived ``value`` of several objects, so any torn or partial
    outcome is visible either across objects (state not in the ledger)
    or within one object (``value`` disagreeing with ``key``).
    """

    name = "pairs"

    #: default transaction script: (object index, new key value) lists
    DEFAULT_TXS: Sequence[Sequence[Tuple[int, int]]] = (
        [(0, 11), (1, 12)],
        [(2, 21)],
        [(0, 31), (2, 32), (3, 33)],
        [(1, 41)],
    )

    def __init__(
        self,
        txs: Optional[Sequence[Sequence[Tuple[int, int]]]] = None,
        n_objects: int = 4,
    ):
        self.txs = [list(tx) for tx in (txs if txs is not None else self.DEFAULT_TXS)]
        self.n_objects = max(
            n_objects, 1 + max((i for tx in self.txs for i, _v in tx), default=0)
        )
        self._oids: List[int] = []

    @property
    def n_steps(self) -> int:
        return len(self.txs)

    def setup(self, heap: PersistentHeap) -> None:
        with heap.transaction():
            objs = [heap.alloc(CheckPair) for _ in range(self.n_objects)]
            for i, o in enumerate(objs):
                o.key = i
                o.value = f"v{i}"
            heap.set_root(objs[0])
        self._oids = [o.oid for o in objs]

    def step(self, heap: PersistentHeap, i: int) -> None:
        with heap.transaction():
            for idx, val in self.txs[i]:
                o = heap.deref(self._oids[idx], CheckPair)
                o.tx_add()
                o.key = val
                o.value = f"v{val}"

    def observe(self, heap: PersistentHeap) -> Dict[int, int]:
        return {
            i: heap.deref(oid, CheckPair).key for i, oid in enumerate(self._oids)
        }

    def validate(self, heap: PersistentHeap) -> None:
        for i, oid in enumerate(self._oids):
            o = heap.deref(oid, CheckPair)
            assert o.value == f"v{o.key}", (
                f"object {i} torn inside: key={o.key} value={o.value!r}"
            )


class KVWorkload(CheckWorkload):
    """B+Tree KV store: puts, overwrites, and a delete.

    ``observe`` is the full logical key→value map; ``validate`` runs the
    tree's own structural invariant checker (sortedness, separator
    bounds, leaf chain).
    """

    name = "kv"

    def __init__(self, n_base: int = 6, value_size: int = 64):
        self.n_base = n_base
        self.value_size = value_size
        self._steps: List[Tuple[str, int, int]] = [
            ("put", n_base, 101),        # insert a new key (splits possible)
            ("put", 0, 102),             # overwrite in place
            ("put", n_base + 1, 103),    # another insert
            ("delete", 1, 0),            # remove + free the blob
            ("put", 2, 104),             # overwrite after the delete
        ]

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def _value(self, tag: int) -> bytes:
        return bytes([tag % 256]) * 16

    def setup(self, heap: PersistentHeap) -> None:
        kv = KVStore.create(heap, value_size=self.value_size)
        for k in range(self.n_base):
            kv.put(k, self._value(k + 1))
        self._kv = kv

    def _reopen(self, heap: PersistentHeap) -> KVStore:
        if self._kv.heap is not heap:
            self._kv = KVStore.open(heap)
        return self._kv

    def step(self, heap: PersistentHeap, i: int) -> None:
        op, key, tag = self._steps[i]
        kv = self._reopen(heap)
        if op == "put":
            kv.put(key, self._value(tag))
        else:
            kv.delete(key)

    def observe(self, heap: PersistentHeap) -> Dict[int, bytes]:
        kv = self._reopen(heap)
        return {k: heap.read_blob(p) for k, p in kv.tree.items()}

    def validate(self, heap: PersistentHeap) -> None:
        self._reopen(heap).tree.check_invariants()


class ListWorkload(CheckWorkload):
    """Sorted doubly-linked list: splices and unlinks (paper Figure 4).

    ``validate`` asserts forward/backward link agreement, sortedness,
    and the length counter — the reachability invariants a torn splice
    breaks.
    """

    name = "list"

    def __init__(self):
        self._steps: List[Tuple[str, int]] = [
            ("insert", 25),
            ("insert", 5),
            ("delete", 20),
            ("update", 30),
            ("insert", 27),
        ]

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def setup(self, heap: PersistentHeap) -> None:
        plist = PersistentList.create(heap)
        for key in (10, 20, 30):
            plist.insert(key, float(key))
        heap.set_root(plist.root)
        self._root_oid = plist.root.oid
        self._plist = plist

    def _reopen(self, heap: PersistentHeap) -> PersistentList:
        if self._plist.heap is not heap:
            self._plist = PersistentList.open(heap, self._root_oid)
        return self._plist

    def step(self, heap: PersistentHeap, i: int) -> None:
        op, key = self._steps[i]
        plist = self._reopen(heap)
        if op == "insert":
            plist.insert(key, float(key))
        elif op == "delete":
            plist.delete(key)
        else:
            plist.update(key, float(key) + 0.5)

    def observe(self, heap: PersistentHeap) -> Tuple[Tuple[int, float], ...]:
        return tuple((n.key, n.value) for n in self._reopen(heap))

    def validate(self, heap: PersistentHeap) -> None:
        self._reopen(heap).check_invariants()


class RingWorkload(CheckWorkload):
    """Persistent ring appends: the engine-independent durability case.

    The ring is its own atomicity mechanism (record CRC + word-atomic
    index publication), so each append either becomes fully visible or
    stays invisible — exactly the committed-prefix contract the oracle
    checks.  ``validate`` re-opens the ring, which re-parses every
    record header and CRC.
    """

    name = "ring"

    REGION = "check_ring"

    def __init__(self, n_appends: int = 5):
        self.n_appends = n_appends

    @property
    def n_steps(self) -> int:
        return self.n_appends

    def setup(self, heap: PersistentHeap) -> None:
        region = heap.pool.create_region(self.REGION, 64 << 10)
        self._ring = PersistentRing.create(region)

    def _reopen(self, heap: PersistentHeap) -> PersistentRing:
        if self._ring.region.pool is not heap.pool:
            self._ring = PersistentRing.open(heap.pool.region(self.REGION))
        return self._ring

    def step(self, heap: PersistentHeap, i: int) -> None:
        self._reopen(heap).append(bytes([i + 1]) * (24 + 8 * i))

    def observe(self, heap: PersistentHeap) -> Tuple[bytes, ...]:
        return tuple(self._reopen(heap).peek_all())

    def validate(self, heap: PersistentHeap) -> None:
        # re-parse every surviving record (header + CRC) from scratch
        ring = PersistentRing.open(heap.pool.region(self.REGION))
        for payload in ring.peek_all():
            assert len(payload) > 0


#: name -> zero-arg factory for the canned workloads the CLI exposes
CANNED_WORKLOADS: Dict[str, Callable[[], CheckWorkload]] = {
    "pairs": PairsWorkload,
    "kv": KVWorkload,
    "list": ListWorkload,
    "ring": RingWorkload,
}
