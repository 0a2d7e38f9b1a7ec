"""A release wakes its waiter at once, not at the next poll.

The lock table and the slot pool notify only while a waiter is
registered (``_waiters``), so a waiter that failed to register, or a
release that skipped a notify it owed, would still make progress: the
lock table's waiter polls every 50 ms and the slot pool's gives up at
its timeout.  A bare "the waiter got there eventually" test passes
either way.  These tests time the handoff instead, from the release to
the waiter's return: with the notify it is a thread switch; without it,
a lock waiter sleeps out its poll (~25 ms on average) and a slot waiter
times out.
"""

import statistics
import sys
import threading
import time

import pytest

from repro.tx.locks import ObjectLockTable
from repro.tx.striped_locks import StripedLockTable

from .test_intent_log import make_log

TRIALS = 20
MEDIAN_HANDOFF_S = 0.010


def _waiters(owner) -> int:
    if isinstance(owner, StripedLockTable):
        return sum(table._waiters for table in owner._tables)
    return owner._waiters


def _handoff(owner, block, release) -> float:
    """Seconds from ``release()`` to the return of ``block()``, which
    runs on a second thread and must be waiting when ``release`` runs."""
    returned = []
    errors = []

    def waiter():
        try:
            block()
            returned.append(time.perf_counter())
        except BaseException as exc:  # surfaced on the test thread
            errors.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    deadline = time.monotonic() + 5.0
    while _waiters(owner) == 0:
        assert not errors, errors
        assert time.monotonic() < deadline, "the waiter never registered"
        time.sleep(0.0005)
    released = time.perf_counter()
    release()
    thread.join(timeout=15.0)
    assert not thread.is_alive()
    assert not errors, errors
    assert _waiters(owner) == 0
    return returned[0] - released


def _median_handoff(trial) -> float:
    return statistics.median(trial() for _ in range(TRIALS))


TABLES = {
    "global": lambda: ObjectLockTable(timeout=5.0),
    "striped": lambda: StripedLockTable(nstripes=4, timeout=5.0),
}


@pytest.mark.parametrize("table_kind", sorted(TABLES))
class TestLockHandoff:
    def test_write_to_write(self, table_kind):
        def trial():
            table = TABLES[table_kind]()
            table.acquire_write(1, 64)
            return _handoff(
                table,
                lambda: table.acquire_write(2, 64),
                lambda: table.release_write(1, 64),
            )

        assert _median_handoff(trial) < MEDIAN_HANDOFF_S

    def test_reader_to_writer(self, table_kind):
        def trial():
            table = TABLES[table_kind]()
            table.acquire_read(1, 64)
            return _handoff(
                table,
                lambda: table.acquire_write(2, 64),
                lambda: table.release_read(1, 64),
            )

        assert _median_handoff(trial) < MEDIAN_HANDOFF_S

    def test_release_pending_to_waiter(self, table_kind):
        def trial():
            # no resolver: the dependent transaction waits for the syncer
            table = TABLES[table_kind]()
            table.acquire_write(1, 64)
            table.mark_pending(1, 64)
            handoff = _handoff(
                table,
                lambda: table.acquire_write(2, 64),
                lambda: table.release_pending(64),
            )
            assert table.stats.dependent_waits >= 1
            return handoff

        assert _median_handoff(trial) < MEDIAN_HANDOFF_S


def test_slot_pool_handoff():
    """One slot: B blocks in ``acquire`` until A releases.  B's timeout
    is 2 s, so a dropped notify fails here instead of stalling."""

    def trial():
        log, _, _ = make_log(n_slots=1)
        held = log.acquire(txid=1)
        taken = []
        handoff = _handoff(
            log,
            lambda: taken.append(log.acquire(txid=2, timeout=2.0)),
            held.release,
        )
        assert taken[0].index == held.index
        assert log.free_slots == 0
        return handoff

    assert _median_handoff(trial) < MEDIAN_HANDOFF_S



def test_hot_lock_and_slot_under_many_threads():
    """More threads than cores on one hot lock and a two-slot pool, with
    a short switch interval: every increment made under the lock
    survives, every waiter deregisters, and no handoff waits out a poll
    (1600 handoffs at the 50 ms poll would take far past the bound)."""
    table = ObjectLockTable(timeout=10.0)
    log, _, _ = make_log(n_slots=2)
    nthreads, rounds = 8, 200
    counter = [0]
    errors = []

    def worker(wid):
        try:
            for r in range(rounds):
                txid = wid * rounds + r + 1
                slot = log.acquire(txid)
                table.acquire_write(txid, 64)
                value = counter[0]
                time.sleep(0)
                counter[0] = value + 1
                table.release_write(txid, 64)
                slot.release()
        except BaseException as exc:  # surfaced on the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(nthreads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        elapsed = time.monotonic() - start
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert counter[0] == nthreads * rounds
    assert table._waiters == 0 and log._waiters == 0
    assert log.free_slots == 2 and len(table) == 0
    assert elapsed < 10.0
