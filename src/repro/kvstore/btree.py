"""Persistent B+Tree — the index under the paper's key-value store (§7).

Nodes are persistent structs with fixed-fanout key/pointer arrays; leaves
are chained for range scans.  Every mutation runs inside a transaction on
the owning heap, declaring write intents per touched node — with the undo
baseline each touched node's whole block is copied in the critical path,
with Kamino only a 32-byte intent is logged, which is precisely the
asymmetry Figures 12–13 measure.

Reads are *declared* (docs/INTERNALS.md §8): a node visit is one block
read of the whole node, decoded by one precompiled per-fanout struct and
charged exactly the field loads the field-by-field walk made — on the
way down ``is_leaf``, ``count``, ``keys``, ``is_leaf``, ``ptrs``.  Read
locks, copy-on-write translation, :class:`~repro.nvm.stats.NVMStats` and
media errors are therefore what they were, while the host makes one
device call per node instead of five.  What each kind of visit is
charged lives in :class:`_NodeCodec`, built once per fanout by
:func:`node_class`.  Writes stay field-wise (:meth:`BPlusTree._store`
and the transaction path), so intents, stores and fail-points do not
move.

Deletes are lazy at the structural level: keys are removed from leaves
but empty leaves stay linked (and internal separators stay in place), a
common simplification that keeps every operation's write set small and
bounded.  Space is reclaimed for the *values*; index nodes are recycled
only on drop.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Tuple, Type

from ..errors import SchemaError
from ..heap import Array, Int64, PNULL, PPtr, PersistentHeap, PersistentStruct
from ..nvm.device import DeclaredLoads

DEFAULT_FANOUT = 32

_node_classes: Dict[int, Type[PersistentStruct]] = {}

#: a decoded node: (is_leaf, next, keys, ptrs), keys/ptrs cut to count
_Node = Tuple[int, int, List[int], List[int]]


class _NodeCodec:
    """One fanout's node decode and the loads each kind of visit is charged.

    ``load`` is what reading a node's contents cost field by field
    (``count``, ``keys``, ``is_leaf`` to size ``ptrs``, ``ptrs``); the
    walks combine it with the ``is_leaf`` test they make before or after
    it, and scans with the ``next`` link.
    """

    __slots__ = ("size", "unpack", "is_leaf", "next", "load", "descend", "insert", "chain")

    def __init__(self, cls: Type[PersistentStruct], fanout: int):
        schema = cls._schema
        field = {info.name: (info.offset, info.ftype.size) for info in schema.fields}
        self.size = schema.size
        self.unpack = struct.Struct(f"<qqQ{fanout}q{fanout + 1}Q").unpack
        load = (field["count"], field["keys"], field["is_leaf"], field["ptrs"])
        #: a leaf test alone
        self.is_leaf = DeclaredLoads([field["is_leaf"]])
        #: the leaf link alone
        self.next = DeclaredLoads([field["next"]])
        #: a node's contents alone
        self.load = DeclaredLoads(load)
        #: a node on the way down: tested, then loaded (a leaf is loaded
        #: by whoever descended to it)
        self.descend = DeclaredLoads((field["is_leaf"],) + load)
        #: a node on an insert path: loaded, then tested
        self.insert = DeclaredLoads(load + (field["is_leaf"],))
        #: a chained leaf of a scan: loaded, then followed
        self.chain = DeclaredLoads(load + (field["next"],))


def node_class(fanout: int) -> Type[PersistentStruct]:
    """The persistent node struct for a given fanout (cached per fanout,
    with its :class:`_NodeCodec` as ``_codec``)."""
    cls = _node_classes.get(fanout)
    if cls is None:
        if not 4 <= fanout <= 128:
            raise SchemaError(f"fanout must be in [4, 128], got {fanout}")
        cls = type(
            f"BTreeNode{fanout}",
            (PersistentStruct,),
            {
                "fields": [
                    ("is_leaf", Int64()),
                    ("count", Int64()),
                    ("next", PPtr()),
                    ("keys", Array(Int64(), fanout)),
                    ("ptrs", Array(PPtr(), fanout + 1)),
                ]
            },
        )
        cls._codec = _NodeCodec(cls, fanout)
        _node_classes[fanout] = cls
    return cls


class BTreeMeta(PersistentStruct):
    """Persistent tree header: root pointer, entry count, fanout."""

    fields = [("root", PPtr()), ("count", Int64()), ("fanout", Int64())]


class BPlusTree:
    """A persistent B+Tree mapping int64 keys to persistent pointers.

    Values are opaque oids (usually value blobs); the tree itself never
    touches them, so the KV layer decides value lifetime.
    """

    def __init__(self, heap: PersistentHeap, meta: BTreeMeta):
        self.heap = heap
        self.meta = meta
        self.fanout = meta.fanout
        self._node_cls = node_class(self.fanout)
        self._codec: _NodeCodec = self._node_cls._codec

    @classmethod
    def create(cls, heap: PersistentHeap, fanout: int = DEFAULT_FANOUT) -> "BPlusTree":
        node_class(fanout)  # validate before allocating
        with heap.transaction():
            meta = heap.alloc(BTreeMeta)
            meta.fanout = fanout
        return cls(heap, meta)

    @classmethod
    def open(cls, heap: PersistentHeap, meta_oid: int) -> "BPlusTree":
        return cls(heap, heap.deref(meta_oid, BTreeMeta))

    # -- node helpers -------------------------------------------------------

    def _node(self, oid: int):
        return self._node_cls(self.heap, oid)

    def _new_node(self, is_leaf: bool):
        node = self.heap.alloc(self._node_cls)
        node.is_leaf = 1 if is_leaf else 0
        return node

    def _store(self, node, keys: List[int], ptrs: List[int]) -> None:
        """Write back a node's logical contents, padding to the arrays."""
        f = self.fanout
        node.keys = keys + [0] * (f - len(keys))
        node.ptrs = ptrs + [PNULL] * (f + 1 - len(ptrs))
        node.count = len(keys)

    def _rewrite(self, oid: int, keys: List[int], ptrs: List[int]) -> None:
        """Declare the intent on node ``oid`` and store its new contents."""
        node = self._node(oid)
        node.tx_add()
        self._store(node, keys, ptrs)

    def _read(self, oid: int, loads: DeclaredLoads) -> _Node:
        """Node ``oid`` from one declared read charged as ``loads``, with
        ``keys``/``ptrs`` cut exactly as the field-wise walk cut them:
        ``keys[:count]`` and ``ptrs[:count + (0 if is_leaf else 1)]``."""
        if oid == PNULL:
            self._node(oid)  # raises, as building its handle did on the field-wise walk
        codec = self._codec
        v = codec.unpack(self.heap.read_object_declared(oid, codec.size, loads))
        is_leaf = v[0]
        count = v[1]
        f = self.fanout
        nptrs = count if is_leaf else count + 1
        if 0 <= count <= f:
            return is_leaf, v[2], list(v[3 : 3 + count]), list(v[3 + f : 3 + f + nptrs])
        # a rotted count: each array is cut from its own sub-tuple, as each
        # array field was (negative counts from its end, too large stops at
        # it) — never spilling keys into ptrs
        return is_leaf, v[2], list(v[3 : 3 + f][:count]), list(v[3 + f :][:nptrs])

    def _descend(
        self, oid: int, key: Optional[int], loads: DeclaredLoads
    ) -> Optional[Tuple[int, _Node, int]]:
        """Walk from node ``oid`` down to the leaf on ``key``'s path (the
        leftmost leaf when ``key`` is None): ``(leaf oid, leaf, depth)``,
        or None when ``oid`` is PNULL.

        Every node is read with ``loads`` — ``descend`` when the caller
        goes on to load the leaf, ``is_leaf`` when it only tests it.  An
        internal node is charged its test and then its contents either
        way; after an ``is_leaf``-only read that takes a second read.
        """
        if oid == PNULL:
            return None
        read = self._read
        codec = self._codec
        depth = 1
        while True:
            node = read(oid, loads)
            if node[0]:
                return oid, node, depth
            if loads is codec.is_leaf:
                read(oid, codec.load)
            ptrs = node[3]
            oid = ptrs[0 if key is None else bisect_right(node[2], key)]
            depth += 1

    # -- reads -------------------------------------------------------------------

    def get(self, key: int) -> Optional[int]:
        """Value pointer for ``key``, or None (read-only transaction)."""
        with self.heap.transaction():
            found = self._descend(self.meta.root, key, self._codec.descend)
            if found is None:
                return None
            _oid, (_leaf, _next, keys, ptrs), _depth = found
            idx = bisect_left(keys, key)
            if idx < len(keys) and keys[idx] == key:
                return ptrs[idx]
            return None

    def scan(self, start_key: int, limit: int) -> List[Tuple[int, int]]:
        """Up to ``limit`` (key, ptr) pairs with key >= start_key."""
        out: List[Tuple[int, int]] = []
        codec = self._codec
        with self.heap.transaction():
            if limit <= 0:
                # nothing to collect, but the walk still tests its leaf
                self._descend(self.meta.root, start_key, codec.is_leaf)
                return out
            found = self._descend(self.meta.root, start_key, codec.descend)
            if found is None:
                return out
            oid, (_leaf, _next, keys, ptrs), _depth = found
            nxt = self._read(oid, codec.next)[1]
            while True:
                for i in range(bisect_left(keys, start_key), len(keys)):
                    out.append((keys[i], ptrs[i]))
                    if len(out) >= limit:
                        break
                leaf = self.heap.deref(nxt, self._node_cls)
                if leaf is None or len(out) >= limit:
                    return out
                _leaf, nxt, keys, ptrs = self._read(leaf.oid, codec.chain)

    # -- writes -------------------------------------------------------------------

    def put(self, key: int, vptr: int) -> Optional[int]:
        """Insert or replace; returns the previous pointer if replaced."""
        with self.heap.transaction():
            root_oid = self.meta.root
            if root_oid == PNULL:
                leaf = self._new_node(is_leaf=True)
                self._store(leaf, [key], [vptr])
                self.meta.tx_add()
                self.meta.root = leaf.oid
                self.meta.count = 1
                return None
            split, old = self._insert(root_oid, key, vptr)
            if split is not None:
                sep, right_oid = split
                new_root = self._new_node(is_leaf=False)
                self._store(new_root, [sep], [root_oid, right_oid])
                self.meta.tx_add()
                self.meta.root = new_root.oid
            if old is None:
                self.meta.tx_add()
                self.meta.count = self.meta.count + 1
            return old

    def _insert(self, oid: int, key: int, vptr: int):
        """Recursive insert; returns ((sep, new_node_oid) | None, old_ptr)."""
        is_leaf, _next, keys, ptrs = self._read(oid, self._codec.insert)
        if is_leaf:
            idx = bisect_left(keys, key)
            if idx < len(keys) and keys[idx] == key:
                old = ptrs[idx]
                ptrs[idx] = vptr
                self._rewrite(oid, keys, ptrs)
                return None, old
            keys.insert(idx, key)
            ptrs.insert(idx, vptr)
            if len(keys) <= self.fanout:
                self._rewrite(oid, keys, ptrs)
                return None, None
            return self._split_leaf(self._node(oid), keys, ptrs), None
        child_idx = bisect_right(keys, key)
        split, old = self._insert(ptrs[child_idx], key, vptr)
        if split is None:
            return None, old
        sep, right_oid = split
        keys.insert(child_idx, sep)
        ptrs.insert(child_idx + 1, right_oid)
        if len(keys) <= self.fanout:
            self._rewrite(oid, keys, ptrs)
            return None, old
        return self._split_internal(self._node(oid), keys, ptrs), old

    def _split_leaf(self, node, keys: List[int], ptrs: List[int]):
        mid = len(keys) // 2
        right = self._new_node(is_leaf=True)
        self._store(right, keys[mid:], ptrs[mid:])
        right.next = node.next
        node.tx_add()
        self._store(node, keys[:mid], ptrs[:mid])
        node.next = right.oid
        return keys[mid], right.oid

    def _split_internal(self, node, keys: List[int], ptrs: List[int]):
        mid = len(keys) // 2
        sep = keys[mid]
        right = self._new_node(is_leaf=False)
        self._store(right, keys[mid + 1 :], ptrs[mid + 1 :])
        node.tx_add()
        self._store(node, keys[:mid], ptrs[: mid + 1])
        return sep, right.oid

    def delete(self, key: int) -> Optional[int]:
        """Remove ``key``; returns its pointer, or None if absent."""
        with self.heap.transaction():
            found = self._descend(self.meta.root, key, self._codec.descend)
            if found is None:
                return None
            oid, (_leaf, _next, keys, ptrs), _depth = found
            idx = bisect_left(keys, key)
            if idx >= len(keys) or keys[idx] != key:
                return None
            old = ptrs[idx]
            del keys[idx]
            del ptrs[idx]
            self._rewrite(oid, keys, ptrs)
            self.meta.tx_add()
            self.meta.count = self.meta.count - 1
            return old

    # -- introspection ---------------------------------------------------------------

    def __len__(self) -> int:
        return self.meta.count

    def items(self) -> Iterator[Tuple[int, int]]:
        """All (key, ptr) pairs in key order (leaf-chain walk)."""
        codec = self._codec
        found = self._descend(self.meta.root, None, codec.descend)
        if found is None:
            return
        oid, (_leaf, _next, keys, ptrs), _depth = found
        while True:
            yield from zip(keys, ptrs)
            # the link is read after the caller consumed this leaf
            leaf = self.heap.deref(self._read(oid, codec.next)[1], self._node_cls)
            if leaf is None:
                return
            oid = leaf.oid
            _leaf, _next, keys, ptrs = self._read(oid, codec.load)

    def height(self) -> int:
        found = self._descend(self.meta.root, None, self._codec.is_leaf)
        return 0 if found is None else found[2]

    def check_invariants(self) -> None:
        """Assert sortedness, separator bounds, counts, and chain order."""
        root_oid = self.meta.root
        if root_oid == PNULL:
            assert self.meta.count == 0
            return
        leaves: List[int] = []
        total = self._check_node(root_oid, None, None, leaves)
        assert total == self.meta.count, (
            f"count mismatch: counted {total}, meta says {self.meta.count}"
        )
        # the leaf chain must visit exactly the leaves, left to right
        codec = self._codec
        chain = []
        oid = self._descend(root_oid, None, codec.is_leaf)[0]
        while True:
            chain.append(oid)
            leaf = self.heap.deref(self._read(oid, codec.next)[1], self._node_cls)
            if leaf is None:
                break
            oid = leaf.oid
        assert chain == leaves, "leaf chain disagrees with tree structure"

    def _check_node(self, oid: int, lo, hi, leaves: List[int]) -> int:
        codec = self._codec
        _leaf, _next, keys, ptrs = self._read(oid, codec.load)
        assert keys == sorted(keys), "unsorted node"
        for k in keys:
            assert lo is None or k >= lo, "key below separator bound"
            assert hi is None or k < hi, "key above separator bound"
        # tested after the key checks, where the field-wise walk tested it
        if self._read(oid, codec.is_leaf)[0]:
            leaves.append(oid)
            return len(keys)
        assert len(ptrs) == len(keys) + 1
        total = 0
        bounds = [lo] + keys + [hi]
        for i, p in enumerate(ptrs):
            total += self._check_node(p, bounds[i], bounds[i + 1], leaves)
        return total
