"""The field-wise read path, kept as the oracle for declared reads.

Before declared reads, every B+Tree node visit was a run of separate
field loads (``node.is_leaf``, ``node.count``, ``node.keys``, …, one
device read each) and a ``kamino-dynamic`` reopen read its look-up table
one 32-byte entry at a time.  The functions here are those walks, line
for line.  :func:`fieldwise_reads` patches them over
:class:`~repro.kvstore.btree.BPlusTree` and
:class:`~repro.tx.dynamic._LookupTable` for the duration of a ``with``
block, so a test can run one scenario both ways and demand identical
results, counters, read sets, lock traffic and errors.  Nothing else is
patched: writes go through the same ``_store`` / transaction path on
both sides.
"""

import struct
from bisect import bisect_left, bisect_right
from contextlib import contextmanager

from repro.heap import PNULL
from repro.kvstore.btree import BPlusTree
from repro.tx import dynamic
from repro.tx.dynamic import _LookupTable


def _load(self, node):
    count = node.count
    keys = node.keys[:count]
    nptrs = count + (0 if node.is_leaf else 1)
    ptrs = node.ptrs[:nptrs]
    return keys, ptrs


def get(self, key):
    with self.heap.transaction():
        leaf = self._descend(key)
        if leaf is None:
            return None
        keys, ptrs = self._load(leaf)
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            return ptrs[idx]
        return None


def _descend(self, key):
    oid = self.meta.root
    if oid == PNULL:
        return None
    node = self._node(oid)
    while not node.is_leaf:
        keys, ptrs = self._load(node)
        node = self._node(ptrs[bisect_right(keys, key)])
    return node


def scan(self, start_key, limit):
    out = []
    with self.heap.transaction():
        leaf = self._descend(start_key)
        while leaf is not None and len(out) < limit:
            keys, ptrs = self._load(leaf)
            idx = bisect_left(keys, start_key)
            for i in range(idx, len(keys)):
                out.append((keys[i], ptrs[i]))
                if len(out) >= limit:
                    break
            leaf = self.heap.deref(leaf.next, self._node_cls)
    return out


def put(self, key, vptr):
    with self.heap.transaction():
        root_oid = self.meta.root
        if root_oid == PNULL:
            leaf = self._new_node(is_leaf=True)
            self._store(leaf, [key], [vptr])
            self.meta.tx_add()
            self.meta.root = leaf.oid
            self.meta.count = 1
            return None
        split, old = self._insert(self._node(root_oid), key, vptr)
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


def _insert(self, node, key, vptr):
    keys, ptrs = self._load(node)
    if node.is_leaf:
        idx = bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            old = ptrs[idx]
            ptrs[idx] = vptr
            node.tx_add()
            self._store(node, keys, ptrs)
            return None, old
        keys.insert(idx, key)
        ptrs.insert(idx, vptr)
        if len(keys) <= self.fanout:
            node.tx_add()
            self._store(node, keys, ptrs)
            return None, None
        return self._split_leaf(node, keys, ptrs), None
    child_idx = bisect_right(keys, key)
    split, old = self._insert(self._node(ptrs[child_idx]), key, vptr)
    if split is None:
        return None, old
    sep, right_oid = split
    keys.insert(child_idx, sep)
    ptrs.insert(child_idx + 1, right_oid)
    if len(keys) <= self.fanout:
        node.tx_add()
        self._store(node, keys, ptrs)
        return None, old
    return self._split_internal(node, keys, ptrs), old


def delete(self, key):
    with self.heap.transaction():
        leaf = self._descend(key)
        if leaf is None:
            return None
        keys, ptrs = self._load(leaf)
        idx = bisect_left(keys, key)
        if idx >= len(keys) or keys[idx] != key:
            return None
        old = ptrs[idx]
        del keys[idx]
        del ptrs[idx]
        leaf.tx_add()
        self._store(leaf, keys, ptrs)
        self.meta.tx_add()
        self.meta.count = self.meta.count - 1
        return old


def items(self):
    oid = self.meta.root
    if oid == PNULL:
        return
    node = self._node(oid)
    while not node.is_leaf:
        _keys, ptrs = self._load(node)
        node = self._node(ptrs[0])
    while node is not None:
        keys, ptrs = self._load(node)
        for k, p in zip(keys, ptrs):
            yield k, p
        node = self.heap.deref(node.next, self._node_cls)


def height(self):
    oid = self.meta.root
    if oid == PNULL:
        return 0
    node = self._node(oid)
    h = 1
    while not node.is_leaf:
        _keys, ptrs = self._load(node)
        node = self._node(ptrs[0])
        h += 1
    return h


def check_invariants(self):
    root_oid = self.meta.root
    if root_oid == PNULL:
        assert self.meta.count == 0
        return
    leaves = []
    total = self._check_node(self._node(root_oid), None, None, leaves)
    assert total == self.meta.count, (
        f"count mismatch: counted {total}, meta says {self.meta.count}"
    )
    chain = []
    node = self._node(root_oid)
    while not node.is_leaf:
        _k, ptrs = self._load(node)
        node = self._node(ptrs[0])
    while node is not None:
        chain.append(node.oid)
        node = self.heap.deref(node.next, self._node_cls)
    assert chain == leaves, "leaf chain disagrees with tree structure"


def _check_node(self, node, lo, hi, leaves):
    keys, ptrs = self._load(node)
    assert keys == sorted(keys), "unsorted node"
    for k in keys:
        assert lo is None or k >= lo, "key below separator bound"
        assert hi is None or k < hi, "key above separator bound"
    if node.is_leaf:
        leaves.append(node.oid)
        return len(keys)
    assert len(ptrs) == len(keys) + 1
    total = 0
    bounds = [lo] + keys + [hi]
    for i, p in enumerate(ptrs):
        total += self._check_node(self._node(p), bounds[i], bounds[i + 1], leaves)
    return total


def lookup_scan(self):
    """The per-entry look-up table walk: one charged read per entry."""
    self._free_indices = []
    self.index = {}
    for i in range(self.capacity):
        raw = self.region.read(i * dynamic._ENTRY_SIZE, dynamic._ENTRY_SIZE)
        heap_off, backup_off, sizes, state = struct.unpack(dynamic._ENTRY_FMT, raw)
        if state == dynamic._STATE_EMPTY or state != dynamic._entry_state(
            heap_off, backup_off, sizes
        ):
            self._free_indices.append(i)
            continue
        self.index[heap_off] = (i, backup_off, sizes & 0xFFFFFFFF, sizes >> 32)
    self._free_indices.reverse()


_PATCHES = [
    (BPlusTree, fn.__name__, fn)
    for fn in (_load, get, _descend, scan, put, _insert, delete, items, height,
               check_invariants, _check_node)
] + [(_LookupTable, "scan", lookup_scan)]


@contextmanager
def fieldwise_reads():
    """Run the block on the field-wise read paths."""
    saved = [(owner, name, owner.__dict__.get(name)) for owner, name, _fn in _PATCHES]
    for owner, name, fn in _PATCHES:
        setattr(owner, name, fn)
    try:
        yield
    finally:
        for owner, name, original in saved:
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
