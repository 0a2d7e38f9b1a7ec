"""Multi-client simulation over shared resources.

:func:`run_online` is the one way operations reach virtual time.  N
closed-loop clients share one
:class:`~repro.runtime.context.ExecutionContext`.  When a client's turn
arrives in virtual time, its next operation is executed *functionally at
that moment* through :meth:`ExecutionContext.run_tx`, and the measured
costs immediately flow through the shared bandwidth and log-management
servers.  There is no separate trace pass: dependent transactions
execute in virtual-time order, so same-key contention is exact, not
approximated from a serially collected trace.

Each operation's life cycle: lock acquisition over the committed
transaction's read/write sets, serialized log management, bandwidth
transfer of critical-path bytes, commit, then — for a record that
carries deferred work, which only an engine with a backup produces —
the asynchronous backup sync whose completion finally releases the
write locks.  What a record costs on the shared servers is read from
the engine the context holds: its lock table's
:class:`~repro.sim.resources.LockCost` and, on an engine with a log
data arena, the arena's per-intent management.  All resource requests
arrive in nondecreasing virtual time, which FIFO servers require.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..sim.resources import serial_ns_per_intent
from .context import ExecutionContext
from .records import ReplayResult, TxRecord

__all__ = ["run_online"]

#: end-of-stream marker (an operation may itself be ``None``)
_DONE = object()
#: the write set every read-only operation shares (``frozenset(set())``
#: builds a new empty object per call)
_EMPTY: frozenset = frozenset()


class VirtualClients:
    """Event-driven closed-loop clients over one context's shared servers.

    Client ``i`` runs ``ops[i::nclients]``.  Its next operation executes
    the first time the client tries to start it; the resulting record
    and the committed transaction's write and read sets are held in the
    client's pending slot until commit, so a client blocked on a lock
    retries the same record.  The write set then rides the sync event,
    if the record has deferred work, until :meth:`_release`; after that
    nothing holds the sets.  The clock is read directly (``clock.now``),
    and the objects whose write locks a started record still holds are a
    set: a start walks its sets only when an ``isdisjoint`` test finds a
    conflict.
    """

    __slots__ = (
        "ctx",
        "sim",
        "clock",
        "lock_cost",
        "serial_ns_per_intent",
        "log_arena",
        "bandwidth",
        "serial",
        "ns_per_byte",
        "model_byte_copy_ns",
        "nclients",
        "streams",
        "executor",
        "kind_of",
        "pending",
        "locked",
        "waiters",
        "ready_since",
        "latencies",
        "latencies_by_kind",
        "end_time",
        "dependent_waits",
    )

    def __init__(self, ctx: ExecutionContext, nclients: int):
        self.ctx = ctx
        self.sim = ctx.events
        self.clock = ctx.events.clock
        engine = ctx.engine
        self.lock_cost = engine.locks.cost
        self.serial_ns_per_intent = serial_ns_per_intent(engine)
        #: the log copy queues behind the log-arena mutex
        self.log_arena = bool(engine.log_data_bytes)
        self.bandwidth = ctx.resources.bandwidth
        self.serial = ctx.resources.log_mgmt
        self.ns_per_byte = 1.0 / ctx.model.bandwidth_gbps
        self.model_byte_copy_ns = ctx.model.byte_copy_ns
        self.nclients = nclients
        self.streams: List[Iterator[object]] = []
        self.executor: Optional[Callable[[object], None]] = None
        self.kind_of: Optional[Callable[[object], str]] = None
        #: per client: the started record and its write and read sets
        self.pending: List[Optional[Tuple[TxRecord, FrozenSet[int], FrozenSet[int]]]] = (
            [None] * nclients
        )
        self.locked: Set[int] = set()
        self.waiters: Dict[int, List[int]] = {}
        self.ready_since = [0.0] * nclients
        self.latencies: List[float] = []
        self.latencies_by_kind: Dict[str, List[float]] = {}
        self.end_time = 0.0
        self.dependent_waits = 0

    def run(
        self,
        ops: Sequence[object],
        executor: Callable[[object], None],
        kind_of: Callable[[object], str],
    ) -> None:
        # each client indexes its share of the one stream: no per-client copy
        n = self.nclients
        self.streams = [map(ops.__getitem__, range(i, len(ops), n)) for i in range(n)]
        self.executor = executor
        self.kind_of = kind_of
        for client in range(self.nclients):
            self.sim.schedule(0.0, self._try_start, client)
        self.sim.run()

    def _try_start(self, client: int) -> None:
        pending = self.pending[client]
        if pending is None:
            op = next(self.streams[client], _DONE)
            if op is _DONE:
                return
            # execute now — the virtual moment this client starts the op
            rec, tx = self.ctx.run_tx(self.kind_of(op), self.executor, op)
            if tx is None:
                write_set = read_set = _EMPTY
            else:
                # frozen copies, held only until _release.  The
                # first-conflict walk below and the wake-up order in
                # _release follow these copies' iteration order, which
                # can differ from the transaction's own sets' order once
                # they hold five or more offsets, and the pinned
                # simulated results (SCHEDULER_GOLDEN,
                # benchmarks/results.txt) follow it
                write_set = frozenset(tx.write_set) if tx.write_set else _EMPTY
                read_set = frozenset(tx.read_set)
            self.pending[client] = (rec, write_set, read_set)
        else:
            rec, write_set, read_set = pending
        locked = self.locked
        if locked and not (locked.isdisjoint(write_set) and locked.isdisjoint(read_set)):
            for off in write_set | read_set:
                if off in locked:
                    # block on the first conflicting object; retried when
                    # it is released (a dependent transaction, paper
                    # Figure 6)
                    self.waiters.setdefault(off, []).append(client)
                    self.dependent_waits += 1
                    return
        if write_set:
            locked.update(write_set)
            read_locks = len(read_set - write_set)
        else:
            read_locks = len(read_set)
        # serialized log/lock management: the per-intent software cost
        # always extends the critical path; the log-arena memcpy's
        # *service* time is already inside crit_ns (it is a device copy),
        # so it contributes only mutual exclusion — queueing delay — here.
        # Read locks (read-set entries the tx only reads) are lock ops on
        # the same table.
        lock = self.lock_cost
        n_intents = rec.n_intents
        software = self.serial_ns_per_intent * n_intents + lock.serial_ns * read_locks
        service = software
        if self.log_arena:
            service += rec.crit_copy_bytes * self.model_byte_copy_ns
        now = self.clock.now
        done = self.serial.request(now, service)
        queue_delay = done - now - service
        # local (non-serialized) software runs on this client's own
        # timeline — striped-lock work other clients never queue behind
        local = lock.local_ns * (n_intents + read_locks)
        self.sim.schedule(queue_delay + software + local, self._transfer_crit, client)

    def _transfer_crit(self, client: int) -> None:
        rec = self.pending[client][0]
        done = self.bandwidth.transfer(self.clock.now, rec.crit_bytes)
        crit_rest = max(0.0, rec.crit_ns - rec.crit_bytes * self.ns_per_byte)
        self.sim.at(done + crit_rest, self._commit, client)

    def _commit(self, client: int) -> None:
        rec, write_set, _read_set = self.pending[client]
        now = self.clock.now
        latency = now - self.ready_since[client]
        self.latencies.append(latency)
        self.latencies_by_kind.setdefault(rec.kind, []).append(latency)
        self.end_time = max(self.end_time, now)
        if rec.async_ns > 0:
            # deferred backup sync (only an engine with a backup has
            # any): the write locks are held until it lands, §7.1
            self.sim.schedule(0.0, self._start_sync, write_set, rec)
        elif write_set:
            self._release(write_set)
        self.pending[client] = None
        self.ready_since[client] = now
        self._try_start(client)

    def _start_sync(self, write_set, rec: TxRecord) -> None:
        done = self.bandwidth.transfer(self.clock.now, rec.async_bytes)
        rest = max(0.0, rec.async_ns - rec.async_bytes * self.ns_per_byte)
        self.sim.at(done + rest, self._release, write_set)

    def _release(self, write_set) -> None:
        self.locked.difference_update(write_set)
        waiters = self.waiters
        if not waiters:
            return
        woken: List[int] = []
        for off in write_set:
            woken.extend(waiters.pop(off, ()))
        for client in woken:
            self.sim.schedule(0.0, self._try_start, client)

    def result(self, workload: str) -> ReplayResult:
        return ReplayResult(
            engine=self.ctx.engine_name,
            workload=workload,
            nthreads=self.nclients,
            ops=len(self.latencies),
            duration_ns=self.end_time,
            latencies_ns=self.latencies,
            latencies_by_kind=self.latencies_by_kind,
            dependent_waits=self.dependent_waits,
        )


def run_online(
    ctx: ExecutionContext,
    ops: Iterable[object],
    executor: Callable[[object], None],
    nthreads: int,
    kind_of: Callable[[object], str] = lambda op: getattr(op, "kind", "op"),
    workload: str = "",
) -> ReplayResult:
    """Execute ``ops`` online under ``nthreads`` closed-loop clients.

    The operation stream is split round-robin across clients (a
    sequence is indexed in place, any other iterable is listed once);
    execution, cost charging, and shared-server queueing all happen
    inline on the context's clock and resource servers, and
    ``ctx.records`` gains one row of costs per operation (a
    :class:`~repro.runtime.records.TxRecords` of typed columns, whose
    elements read back as :class:`~repro.runtime.records.TxRecord`, and
    whose slices are views).  The lock sets are not in it: the scheduler
    reads them off the committed transaction and drops them when it
    releases the locks.  Contention between dependent transactions is
    exact because each operation runs at the virtual time its client
    actually reaches it.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    if ctx.engine is None:
        raise ValueError("context has no engine; build it via ExecutionContext.create")
    clients = VirtualClients(ctx, nthreads)
    clients.run(ops if isinstance(ops, Sequence) else list(ops), executor, kind_of)
    return clients.result(workload)
