"""Hypothesis property tests: B+Tree vs a model dict."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kvstore import BPlusTree
from repro.tx import UndoLogEngine, kamino_simple

from ..conftest import build_heap

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete"]),
        st.integers(0, 60),
        st.integers(1, 10**6),
    ),
    min_size=1,
    max_size=120,
)


@given(ops=ops_strategy, fanout=st.sampled_from([4, 6, 8, 16]))
@SETTINGS
def test_btree_matches_dict(ops, fanout):
    heap, _, _ = build_heap(UndoLogEngine, pool_size=32 << 20, heap_size=12 << 20)
    tree = BPlusTree.create(heap, fanout=fanout)
    model = {}
    for op, key, value in ops:
        if op == "put":
            assert tree.put(key, value) == model.get(key)
            model[key] = value
        elif op == "get":
            assert tree.get(key) == model.get(key)
        else:
            assert tree.delete(key) == model.pop(key, None)
    tree.check_invariants()
    assert dict(tree.items()) == model
    assert len(tree) == len(model)
    # scans agree with the sorted model on arbitrary windows
    if model:
        lo = min(model)
        got = tree.scan(lo, 10)
        expect = sorted(model.items())[:10]
        assert got == expect


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update"]), st.integers(0, 20)),
        min_size=1,
        max_size=60,
    )
)
@SETTINGS
def test_linkedlist_invariants_hold(ops):
    from repro.kvstore import PersistentList

    heap, _, _ = build_heap(kamino_simple, pool_size=32 << 20, heap_size=12 << 20)
    plist = PersistentList.create(heap)
    model = []
    for op, key in ops:
        if op == "insert":
            plist.insert(key, float(key))
            model.append(key)
            model.sort()
        elif op == "delete":
            removed = plist.delete(key)
            assert removed == (key in model)
            if removed:
                model.remove(key)
        else:
            updated = plist.update(key, -1.0)
            assert updated == (key in model)
    heap.drain()
    plist.check_invariants()
    assert plist.keys() == model
