"""The dynamic backup's look-up table hands out entries in the list
spec's order (``list_free_indices.py``) through inserts, removes and
reopens, and says it is full exactly when the list would be empty."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import HeapError
from repro.nvm import NVMDevice
from repro.nvm.pool import PmemPool
from repro.tx.dynamic import _ENTRY_SIZE, _LookupTable

from .list_free_indices import ListFreeIndices

CAPACITY = 16

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(1, 8)),
        st.tuples(st.just("remove"), st.integers(0, CAPACITY)),
        st.just(("reopen", 0)),
    ),
    max_size=30,
)


@given(steps=STEPS)
# holes left below the highest live entry, reused after a reopen; a
# full table that a remove opens again
@example(steps=[("insert", 8), ("remove", 1), ("remove", 2), ("reopen", 0), ("insert", 3)])
@example(steps=[("insert", 8), ("insert", 8), ("remove", 5), ("insert", 2)])
@settings(max_examples=100, deadline=None)
def test_inserts_removes_and_reopens_follow_the_list(steps):
    pool = PmemPool.create(NVMDevice(1 << 16))
    region = pool.create_region("lookup", CAPACITY * _ENTRY_SIZE)
    table = _LookupTable(region, fresh=True)
    spec = ListFreeIndices(CAPACITY)
    live = {}  # heap_off -> entry index
    next_off = 0
    for kind, n in steps:
        if kind == "insert":
            for _ in range(n):
                assert table.full == spec.full
                if spec.full:
                    with pytest.raises(HeapError):
                        table.insert(next_off, 0, 8, 32)
                    continue
                i = table.insert(next_off, 0, 8, 32)
                assert i == spec.take()
                live[next_off] = i
                next_off += 64
        elif kind == "remove" and live:
            heap_off = sorted(live)[n % len(live)]
            table.remove(heap_off)
            spec.give_back(live.pop(heap_off))
        elif kind == "reopen":
            table = _LookupTable(region, fresh=False)
            spec = ListFreeIndices(CAPACITY, live.values())
            assert {off: entry[0] for off, entry in table.index.items()} == live
        assert table.full == spec.full
