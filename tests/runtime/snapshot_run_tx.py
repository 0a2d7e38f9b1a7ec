"""The snapshot-priced ``run_tx``: the specification of a record's price.

:meth:`ExecutionContext.run_tx <repro.runtime.context.ExecutionContext.run_tx>`
prices a record from three counter marks and
:func:`~repro.nvm.stats.interval_cost`.  This is the way it was priced
before marks: two full :class:`~repro.nvm.stats.NVMStats` snapshots
around the operation, and :meth:`NVMStats.delta` of each interval
converted with :meth:`NVMStats.simulated_ns`.  The record differential
(``test_record_differential.py``) runs both on twin contexts and demands
bit-identical records.
"""

from repro.runtime.records import TxRecord


def snapshot_run_tx(ctx, kind, fn, *args):
    """``ctx.run_tx(kind, fn, *args)``, priced from snapshot deltas."""
    engine = ctx.engine
    stats = ctx.device.stats
    committed = []
    engine.trace_hook = committed.append
    try:
        before = stats.snapshot()
        fn(*args)
        crit_end = stats.snapshot()
        # drain exactly this operation's deferred work
        engine.sync_pending()
    finally:
        engine.trace_hook = None
    crit = crit_end.delta(before)
    deferred = stats.delta(crit_end)
    tx = committed[-1] if committed else None
    record = TxRecord(
        kind=kind,
        crit_ns=crit.simulated_ns(ctx.model),
        async_ns=deferred.simulated_ns(ctx.model),
        crit_bytes=crit.total_bytes,
        async_bytes=deferred.total_bytes,
        crit_copy_bytes=crit.copy_bytes,
        n_intents=len(tx.intents) if tx is not None else 0,
        write_set=frozenset(tx.write_set) if tx is not None else frozenset(),
        read_set=frozenset(tx.read_set) if tx is not None else frozenset(),
    )
    ctx.records.append(record)
    return record
