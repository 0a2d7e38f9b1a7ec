"""The key-value store the paper benchmarks: a B+Tree of value blobs.

"We have designed and implemented a key-value store that uses a NVML
based persistent B+Tree that we implement" (§7).  Keys are 64-bit
integers (the YCSB driver hashes its string keys); values are
fixed-capacity blobs overwritten in place, so an update's write set is
one leaf + one value blob — small byte ranges in large objects, the
regime where logging overhead is worst for the baseline.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import HeapError
from ..heap import Int64, PNULL, PPtr, PersistentHeap, PersistentStruct
from ..tx.base import AtomicityEngine
from .btree import DEFAULT_FANOUT, BPlusTree


class KVMeta(PersistentStruct):
    """Persistent store header published as the pool root."""

    fields = [("tree_meta", PPtr()), ("value_size", Int64())]


class KVStore:
    """Transactional KV interface over the persistent B+Tree.

    Every public method is one transaction (composable by opening an
    outer transaction first).  Values larger than ``value_size`` are
    rejected; smaller values are zero-padded, matching the fixed-record
    YCSB setup (1 KB records in the paper).
    """

    def __init__(self, heap: PersistentHeap, meta: KVMeta, tree: BPlusTree):
        self.heap = heap
        self.meta = meta
        self.tree = tree
        self.value_size = meta.value_size

    @classmethod
    def create(
        cls,
        heap: PersistentHeap,
        value_size: int = 1024,
        fanout: int = DEFAULT_FANOUT,
    ) -> "KVStore":
        if value_size <= 0:
            raise ValueError("value_size must be positive")
        tree = BPlusTree.create(heap, fanout=fanout)
        with heap.transaction():
            meta = heap.alloc(KVMeta)
            meta.tree_meta = tree.meta.oid
            meta.value_size = value_size
            heap.set_root(meta)
        return cls(heap, meta, tree)

    @classmethod
    def open(cls, heap: PersistentHeap, meta_oid: Optional[int] = None) -> "KVStore":
        """Reopen from the pool root (or an explicit meta pointer)."""
        meta = (
            heap.root(KVMeta) if meta_oid is None else heap.deref(meta_oid, KVMeta)
        )
        if meta is None:
            raise HeapError("pool has no KV store root")
        tree = BPlusTree.open(heap, meta.tree_meta)
        return cls(heap, meta, tree)

    # -- operations ------------------------------------------------------------

    def _check_value(self, value: bytes) -> bytes:
        if len(value) > self.value_size:
            raise ValueError(
                f"value of {len(value)} bytes exceeds record size {self.value_size}"
            )
        return value

    def put(self, key: int, value: bytes) -> bool:
        """Insert or update; returns True if the key already existed.

        Updates overwrite the value blob *in place* — no reallocation —
        so the transaction's write set is {leaf?, blob} for updates and
        {allocator words, leaf(s), blob} for inserts.
        """
        value = self._check_value(value)
        with self.heap.transaction():
            vptr = self.tree.get(key)
            if vptr is not None:
                self.heap.write_blob_at(vptr, 0, value)
                return True
            new_ptr = self.heap.alloc_blob(self.value_size)
            self.heap.write_blob_at(new_ptr, 0, value)
            self.tree.put(key, new_ptr)
            return False

    def get(self, key: int) -> Optional[bytes]:
        """The stored record (zero-padded to ``value_size``), or None."""
        with self.heap.transaction():
            vptr = self.tree.get(key)
            if vptr is None:
                return None
            return self.heap.read_blob(vptr)

    def delete(self, key: int) -> bool:
        """Remove the key and free its value blob."""
        with self.heap.transaction():
            vptr = self.tree.delete(key)
            if vptr is None:
                return False
            self.heap.free(vptr)
            return True

    def scan(self, start_key: int, limit: int) -> List[Tuple[int, bytes]]:
        """Range scan: up to ``limit`` records with key >= start_key."""
        with self.heap.transaction():
            return [
                (k, self.heap.read_blob(p)) for k, p in self.tree.scan(start_key, limit)
            ]

    def read_modify_write(self, key: int, fn: Callable[[bytes], bytes]) -> bool:
        """Atomic RMW (YCSB-F's operation); returns False if absent."""
        with self.heap.transaction():
            vptr = self.tree.get(key)
            if vptr is None:
                return False
            new = self._check_value(fn(self.heap.read_blob(vptr)))
            self.heap.write_blob_at(vptr, 0, new)
            return True

    def __len__(self) -> int:
        return len(self.tree)

    def __contains__(self, key: int) -> bool:
        return self.tree.get(key) is not None

    # -- maintenance --------------------------------------------------------------

    def drain(self) -> None:
        """Wait out any deferred backup syncs (delegates to the heap)."""
        self.heap.drain()

    @property
    def engine(self) -> AtomicityEngine:
        return self.heap.engine
