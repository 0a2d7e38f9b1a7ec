"""Transaction ids are issued per engine, above every txid the log holds.

A txid lands in its intent-log slot header and is folded into every
entry's self-check.  So a run's durable bytes must not depend on what
else the process ran before it, and a reopened engine must number above
every txid a slot header still holds: a released slot keeps its last
owner's txid and entries, and the stale-entry guard rejects those only
while that txid is not issued again.
"""

import pytest

from repro.errors import DeviceCrashedError
from repro.nvm import CrashPolicy
from repro.parallel import count_mutating_ops
from repro.tx import reopen_after_crash

from ..conftest import ENGINES, Pair, build_heap


def _bump(heap, n):
    """Run ``n`` one-object update transactions; their txids."""
    ids = []
    for _ in range(n):
        with heap.transaction() as tx:
            root = heap.root(Pair)
            root.tx_add()
            root.key += 1
        ids.append(tx.txid)
    return ids


def _fresh(name):
    heap, _engine, device = build_heap(ENGINES[name])
    with heap.transaction() as tx:
        heap.set_root(heap.alloc(Pair))
    assert tx.txid == 1
    return heap, device


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_a_fresh_log_numbers_from_one(name):
    heap, _device = _fresh(name)
    assert _bump(heap, 3) == [2, 3, 4]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_a_reopen_continues_above_the_durable_txid(name):
    heap, device = _fresh(name)
    _bump(heap, 3)  # txids 2..4, every slot released again
    heap.drain()
    device.crash(CrashPolicy.DROP_ALL)
    heap2, _engine, _report = reopen_after_crash(device, ENGINES[name])
    assert _bump(heap2, 2) == [5, 6]


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_a_recovered_transaction_is_numbered_past(name):
    """The crash lands inside txid 4, after its slot header is durable:
    the reopened engine recovers it and numbers on from 5, and running
    recovery again — after it freed that slot — does not go back."""
    heap, device = _fresh(name)
    _bump(heap, 1)  # txid 2
    heap.drain()
    per_tx = count_mutating_ops(device, lambda: _bump(heap, 1))  # txid 3
    heap.drain()
    device.schedule_crash(per_tx - 1)  # txid 4 dies before its last op
    with pytest.raises(DeviceCrashedError):
        _bump(heap, 1)
    heap2, engine2, _report = reopen_after_crash(device, ENGINES[name])
    assert engine2.log.max_txid == 4
    engine2.recover()  # may find less: recovery zeroes the headers it frees
    assert _bump(heap2, 1) == [5]
