"""Property-based invariants of the striped lock table (hypothesis).

The fine-grained engine family rests on three claims about
:class:`~repro.tx.striped_locks.StripedLockTable`:

* **No lost updates** — a write lock really excludes: counters bumped
  under ``acquire_write``/``release_write`` from real racing threads
  never drop an increment, whatever the stripe count.
* **Ordered acquisition never deadlocks** — threads batch-acquiring
  overlapping write sets through ``acquire_write_many`` (canonical
  ascending order) all complete; no waits-for cycle, no timeout.
* **Stripe-count invariance** — an offset's behaviour depends only on
  its own entry, so any single-threaded operation sequence produces
  bit-identical lock stats for 1, 4, or 32 stripes — and a whole engine
  run produces bit-identical durable bytes and device counters.

Hypothesis picks the offsets, the thread scripts, and the stripe
widths; the assertions are exact equalities, not tolerances.
"""

import threading

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.tx import StripedLockTable
from repro.tx.locks import ObjectLockTable

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: offsets are block starts; keep them 32-byte aligned like the heap's
OFFSETS = st.integers(0, 63).map(lambda i: i * 32)


@given(
    nstripes=st.sampled_from([1, 2, 7, 16]),
    offsets=st.lists(OFFSETS, min_size=1, max_size=4, unique=True),
    nthreads=st.integers(2, 4),
    increments=st.integers(5, 25),
)
@SETTINGS
def test_no_lost_updates(nstripes, offsets, nthreads, increments):
    """Racing increments under write locks are never lost."""
    table = StripedLockTable(nstripes, timeout=10.0)
    counters = {off: 0 for off in offsets}
    errors = []

    def worker(txid):
        try:
            for i in range(increments):
                off = offsets[i % len(offsets)]
                table.acquire_write(txid, off)
                try:
                    counters[off] += 1  # unprotected but for the lock
                finally:
                    table.release_write(txid, off)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(txid,))
        for txid in range(1, nthreads + 1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors
    assert sum(counters.values()) == nthreads * increments
    assert len(table) == 0  # every entry garbage-collected
    assert table.stats.write_acquires == nthreads * increments


@given(
    nstripes=st.sampled_from([1, 3, 16]),
    write_sets=st.lists(
        st.lists(OFFSETS, min_size=1, max_size=5, unique=True),
        min_size=2,
        max_size=4,
    ),
    rounds=st.integers(1, 6),
)
@SETTINGS
def test_ordered_batch_acquisition_never_deadlocks(nstripes, write_sets, rounds):
    """Overlapping batch acquirers all finish: the canonical ascending
    order makes a waits-for cycle impossible, so the (short) timeout
    escape never fires."""
    table = StripedLockTable(nstripes, timeout=5.0)
    barrier = threading.Barrier(len(write_sets))
    errors = []

    def worker(txid, offsets):
        try:
            barrier.wait(timeout=5.0)
            for _ in range(rounds):
                table.acquire_write_many(txid, offsets)
                table.release_write_many(txid, offsets)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(txid, ws))
        for txid, ws in enumerate(write_sets, start=1)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, f"deadlock/timeout under ordered acquisition: {errors}"
    assert len(table) == 0


@st.composite
def lock_scripts(draw):
    """A legal single-threaded sequence of transactions over the table.

    Each step is one transaction's full lock lifecycle: read locks on a
    read set, batch write locks, then either a plain release or the
    pending-sync deferral (mark_pending → release_pending).
    """
    steps = draw(
        st.lists(
            st.tuples(
                st.lists(OFFSETS, min_size=0, max_size=3, unique=True),  # reads
                st.lists(OFFSETS, min_size=1, max_size=3, unique=True),  # writes
                st.booleans(),  # defer via pending-sync?
            ),
            min_size=1,
            max_size=8,
        )
    )
    return steps


def _run_script(table, steps):
    for txid, (reads, writes, defer) in enumerate(steps, start=1):
        reads = [off for off in reads if off not in writes]
        for off in reads:
            table.acquire_read(txid, off)
        table.acquire_write_many(txid, writes)
        for off in reads:
            table.release_read(txid, off)
        if defer:
            for off in sorted(writes):
                table.mark_pending(txid, off)
            for off in sorted(writes):
                table.release_pending(off)
        else:
            table.release_write_many(txid, writes)


@given(steps=lock_scripts())
@SETTINGS
def test_stripe_count_invariance(steps):
    """The same script yields identical counters at every stripe width,
    and width 1 matches the baseline global table exactly."""
    snapshots = []
    for nstripes in (1, 4, 32):
        table = StripedLockTable(nstripes, timeout=1.0)
        _run_script(table, steps)
        assert len(table) == 0
        stats = table.stats
        snapshots.append(
            (
                stats.write_acquires,
                stats.read_acquires,
                stats.dependent_waits,
                stats.conflict_waits,
                stats.on_demand_syncs,
            )
        )
    assert snapshots[0] == snapshots[1] == snapshots[2]

    baseline = ObjectLockTable(timeout=1.0)
    _run_script(baseline, steps)
    base = baseline.stats
    assert snapshots[0] == (
        base.write_acquires,
        base.read_acquires,
        base.dependent_waits,
        base.conflict_waits,
        base.on_demand_syncs,
    )


@given(nstripes=st.sampled_from([2, 7, 16]), first_block=st.integers(0, 2**20))
@SETTINGS
def test_stripes_share_dense_traffic(nstripes, first_block):
    """The hash spreads a dense run of neighbouring blocks: each stripe's
    own counters carry close to a fair share and sum to the table's."""
    table = StripedLockTable(nstripes)
    blocks = 16 * nstripes
    for i in range(blocks):
        offset = (first_block + i) * 32
        table.acquire_read(1, offset)
        table.release_read(1, offset)
        table.acquire_write(2, offset)
        table.release_write(2, offset)
    shares = [stripe.stats.read_acquires + stripe.stats.write_acquires
              for stripe in table._tables]
    assert sum(shares) == table.stats.read_acquires + table.stats.write_acquires
    assert max(shares) <= 2 * (2 * blocks // nstripes)


@given(seed=st.integers(0, 2**16), stripes=st.sampled_from([(1, 8), (8, 64)]))
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_bit_identity_across_stripe_widths(seed, stripes):
    """A full engine run is bit-identical for any stripe count: locks
    are volatile, so the durable bytes and every device counter match."""
    from repro.tx import kamino_finegrained

    from ..conftest import Pair, build_heap

    results = []
    for nstripes in stripes:
        heap, engine, device = build_heap(
            lambda: kamino_finegrained(alpha=0.5, stripes=nstripes), seed=seed
        )
        with heap.transaction():
            objs = [heap.alloc(Pair) for _ in range(4)]
            for i, o in enumerate(objs):
                o.key = seed + i
            heap.set_root(objs[0])
        with heap.transaction():
            root = heap.root(Pair)
            root.tx_add()
            root.key = -1
        heap.drain()
        results.append((device.overlay_fingerprint(), device.stats.snapshot()))

    assert results[0][0] == results[1][0]  # durable bytes
    assert results[0][1] == results[1][1]  # every NVM counter
