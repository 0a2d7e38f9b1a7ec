"""What an uncontended read-only transaction costs — by count.

A get declares no intent, so beyond its loads it should pay for its read
locks and nothing else: no condition-variable traffic (nobody waits), no
intent-log slot (nothing to log), no counter snapshot (its record is
priced from marks, :attr:`NVMStats.mark`), one commit for the nested
``KVStore.get`` / ``BPlusTree.get`` scopes, and no ``EventSimulator.now``
property read in the scheduler (it reads the shared clock).  These pins
fail if any of that creeps back onto the fast path.
"""

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvm.latency import PROFILES
from repro.nvm.stats import NVMStats, interval_cost
from repro.runtime import ExecutionContext, run_online
from repro.sim.events import EventSimulator
from repro.tx import LogManager
from repro.tx.base import Transaction

GETS = 1000
KEYS = 64


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _loaded_context():
    ctx = ExecutionContext.create("kamino-dynamic", value_size=64, heap_mb=4)
    for key in range(KEYS):
        ctx.run_tx("insert", ctx.kv.put, key, b"v%d" % key)
    ctx.records.clear()
    return ctx


def test_read_only_gets_take_no_slot_notify_or_extra_snapshot(monkeypatch):
    ctx = _loaded_context()
    counts = Counter()
    for name in ("notify", "notify_all", "wait"):
        _counting(monkeypatch, threading.Condition, name, counts)
    _counting(monkeypatch, LogManager, "acquire", counts)
    _counting(monkeypatch, NVMStats, "snapshot", counts)
    _counting(monkeypatch, Transaction, "commit", counts)
    for i in range(GETS):
        ctx.run_tx("read", ctx.kv.get, i % KEYS)
    assert len(ctx.records) == GETS
    assert all(r.read_set and not r.write_set for r in ctx.records)
    assert counts["notify"] == counts["notify_all"] == counts["wait"] == 0
    assert counts["acquire"] == 0
    assert counts["snapshot"] == 0
    assert counts["commit"] == GETS


def test_the_scheduler_reads_the_clock_not_the_now_property(monkeypatch):
    ctx = _loaded_context()
    reads = Counter()
    now = EventSimulator.now

    def counted(sim):
        reads["now"] += 1
        return now.fget(sim)

    monkeypatch.setattr(EventSimulator, "now", property(counted, now.fset))
    result = run_online(ctx, [i % KEYS for i in range(GETS)], ctx.kv.get, 4,
                        kind_of=lambda key: "read")
    assert result.ops == GETS
    assert reads["now"] == 0


counters = st.integers(min_value=0, max_value=1 << 40)
_FIELDS = NVMStats.__slots__


@st.composite
def stats_pairs(draw):
    """``(since, now)``: ``now`` is ``since`` plus non-negative growth;
    half the draws grow no flush burst (a delta with ``flush_bursts == 0``
    prices every flushed line as its own burst)."""
    since = NVMStats(*(draw(counters) for _ in _FIELDS))
    growth = {name: draw(counters) for name in _FIELDS}
    if draw(st.booleans()):
        growth["flush_bursts"] = 0
    now = NVMStats(*(getattr(since, name) + growth[name] for name in _FIELDS))
    return since, now


@pytest.mark.parametrize("model", sorted(PROFILES))
@settings(max_examples=200, deadline=None)
@given(pair=stats_pairs())
def test_cost_since_is_the_delta_bit_for_bit(model, pair):
    since, now = pair
    latency = PROFILES[model]
    delta = now.delta(since)
    priced = interval_cost(NVMStats.mark(since), NVMStats.mark(now), latency)
    assert now.cost_since(NVMStats.mark(since), latency) == priced
    ns, total_bytes, copy_bytes = priced
    assert ns.hex() == delta.simulated_ns(latency).hex()
    assert total_bytes == delta.total_bytes
    assert copy_bytes == delta.copy_bytes
