"""Persistent data structures built on the transactional heap."""

from .btree import BPlusTree, BTreeMeta, DEFAULT_FANOUT, node_class
from .kv import KVMeta, KVStore
from .linkedlist import ListNode, ListRoot, PersistentList
from .ring import PersistentRing

__all__ = [
    "BPlusTree",
    "BTreeMeta",
    "DEFAULT_FANOUT",
    "KVMeta",
    "KVStore",
    "ListNode",
    "ListRoot",
    "PersistentList",
    "PersistentRing",
    "node_class",
]
