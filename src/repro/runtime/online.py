"""Multi-client simulation over shared resources — online or from traces.

One scheduler covers both execution modes:

* **Online** (:func:`run_online`) — N closed-loop clients share one
  :class:`~repro.runtime.context.ExecutionContext`.  When a client's turn
  arrives in virtual time, its next operation is executed *functionally
  at that moment* through :meth:`ExecutionContext.run_tx`, and the
  measured costs immediately flow through the shared bandwidth and
  log-management servers.  There is no separate trace pass: dependent
  transactions execute in virtual-time order, so same-key contention is
  exact, not approximated from a serially collected trace.

* **Trace replay** (:func:`replay_records`) — pre-collected
  :class:`~repro.runtime.records.TxRecord` streams are driven through the
  identical event flow.  :func:`repro.bench.replay` is this function;
  it exists for experiments that deliberately reuse one trace across
  thread counts or latency models.

Each operation's life cycle (ported from the original two-phase
harness, and unchanged so single-client results are bit-identical):
lock acquisition over the record's read/write sets, serialized log
management, bandwidth transfer of critical-path bytes, commit, then —
for engines whose capabilities declare ``locks_released_after_sync`` —
the asynchronous backup sync whose completion finally releases the
write locks.  All resource requests arrive in nondecreasing virtual
time, which FIFO servers require.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..nvm.latency import NVDIMM, LatencyModel
from ..sim.events import EventSimulator
from ..sim.resources import cost_model_for
from .context import ExecutionContext, SharedResources
from .records import ReplayResult, TxRecord
from .registry import find_registered

__all__ = ["replay_records", "run_online"]


class _RecordQueueSource:
    """Pre-collected records, split round-robin across clients."""

    __slots__ = ("_queues", "_cursor")

    def __init__(self, records: Sequence[TxRecord], nclients: int):
        self._queues = [list(records[i::nclients]) for i in range(nclients)]
        self._cursor = [0] * nclients

    def peek(self, client: int) -> Optional[TxRecord]:
        queue = self._queues[client]
        idx = self._cursor[client]
        return queue[idx] if idx < len(queue) else None

    def advance(self, client: int) -> None:
        self._cursor[client] += 1


class _InlineSource:
    """Executes each client's next operation on demand, at its virtual
    start time, through the shared context."""

    __slots__ = ("_ctx", "_streams", "_cursor", "_cache", "_executor", "_kind_of")

    def __init__(
        self,
        ctx: ExecutionContext,
        streams: Sequence[Sequence[object]],
        executor: Callable[[object], None],
        kind_of: Callable[[object], str],
    ):
        self._ctx = ctx
        self._streams = [list(stream) for stream in streams]
        self._cursor = [0] * len(self._streams)
        self._cache: List[Optional[TxRecord]] = [None] * len(self._streams)
        self._executor = executor
        self._kind_of = kind_of

    def peek(self, client: int) -> Optional[TxRecord]:
        if self._cache[client] is None:
            stream = self._streams[client]
            idx = self._cursor[client]
            if idx >= len(stream):
                return None
            op = stream[idx]
            # execute now — the virtual moment this client starts the op;
            # the scheduler threads the resulting record through the
            # shared servers, so charging stays inline
            self._cache[client] = self._ctx.run_tx(
                self._kind_of(op), lambda: self._executor(op), charge=False
            )
        return self._cache[client]

    def advance(self, client: int) -> None:
        self._cursor[client] += 1
        self._cache[client] = None


class VirtualClients:
    """Event-driven closed-loop clients over shared resources."""

    __slots__ = (
        "source",
        "sim",
        "resources",
        "cost",
        "locks_after_sync",
        "bandwidth",
        "serial",
        "ns_per_byte",
        "model_byte_copy_ns",
        "sync_lag_ns",
        "nclients",
        "locked",
        "waiters",
        "ready_since",
        "latencies",
        "latencies_by_kind",
        "end_time",
        "dependent_waits",
    )

    def __init__(
        self,
        source,
        nclients: int,
        engine_name: str,
        model: LatencyModel,
        sync_lag_ns: float,
        resources: Optional[SharedResources] = None,
        events: Optional[EventSimulator] = None,
    ):
        self.source = source
        self.sim = events if events is not None else EventSimulator()
        self.resources = resources if resources is not None else SharedResources(model)
        info = find_registered(engine_name)
        self.cost = cost_model_for(engine_name)
        self.locks_after_sync = info is not None and info.capabilities.locks_released_after_sync
        self.bandwidth = self.resources.bandwidth
        self.serial = self.resources.log_mgmt
        self.ns_per_byte = 1.0 / model.bandwidth_gbps
        self.model_byte_copy_ns = model.byte_copy_ns
        self.sync_lag_ns = sync_lag_ns
        self.nclients = nclients
        self.locked: Dict[int, bool] = {}
        self.waiters: Dict[int, List[int]] = {}
        self.ready_since = [0.0] * nclients
        self.latencies: List[float] = []
        self.latencies_by_kind: Dict[str, List[float]] = {}
        self.end_time = 0.0
        self.dependent_waits = 0

    def run(self) -> None:
        for client in range(self.nclients):
            self.sim.schedule(0.0, self._try_start, client)
        self.sim.run()

    def _try_start(self, client: int) -> None:
        rec = self.source.peek(client)
        if rec is None:
            return
        for off in rec.write_set | rec.read_set:
            if self.locked.get(off):
                # block on the first conflicting object; retried when it
                # is released (a dependent transaction, paper Figure 6)
                self.waiters.setdefault(off, []).append(client)
                self.dependent_waits += 1
                return
        for off in rec.write_set:
            self.locked[off] = True
        # serialized log/lock management: the per-intent software cost
        # always extends the critical path; the log-arena memcpy's
        # *service* time is already inside crit_ns (it is a device copy),
        # so it contributes only mutual exclusion — queueing delay — here.
        # Read locks (read-set entries the tx only reads) are lock ops on
        # the same table.
        cost = self.cost
        n_intents = rec.n_intents
        read_locks = len(rec.read_set - rec.write_set)
        software = (
            cost.serial_ns_per_intent * n_intents
            + cost.serial_ns_per_read_lock * read_locks
        )
        service = software
        if cost.serial_includes_copy:
            service += rec.crit_copy_bytes * self.model_byte_copy_ns
        done = self.serial.request(self.sim.now, service)
        queue_delay = done - self.sim.now - service
        # local (non-serialized) software runs on this client's own
        # timeline — striped-lock work other clients never queue behind
        local = cost.local_ns_per_lock_op * (n_intents + read_locks)
        self.sim.schedule(queue_delay + software + local, self._transfer_crit, client)

    def _transfer_crit(self, client: int) -> None:
        rec = self.source.peek(client)
        done = self.bandwidth.transfer(self.sim.now, rec.crit_bytes)
        crit_rest = max(0.0, rec.crit_ns - rec.crit_bytes * self.ns_per_byte)
        self.sim.at(done + crit_rest, self._commit, client)

    def _commit(self, client: int) -> None:
        rec = self.source.peek(client)
        now = self.sim.now
        latency = now - self.ready_since[client]
        self.latencies.append(latency)
        self.latencies_by_kind.setdefault(rec.kind, []).append(latency)
        self.end_time = max(self.end_time, now)
        if self.locks_after_sync and rec.async_ns > 0:
            write_set = rec.write_set
            self.sim.schedule(self.sync_lag_ns, self._start_sync, write_set, rec)
        else:
            self._release(rec.write_set)
        self.source.advance(client)
        self.ready_since[client] = now
        self._try_start(client)

    def _start_sync(self, write_set, rec: TxRecord) -> None:
        done = self.bandwidth.transfer(self.sim.now, rec.async_bytes)
        rest = max(0.0, rec.async_ns - rec.async_bytes * self.ns_per_byte)
        self.sim.at(done + rest, self._release, write_set)

    def _release(self, write_set) -> None:
        woken: List[int] = []
        for off in write_set:
            self.locked[off] = False
            woken.extend(self.waiters.pop(off, ()))
        for client in woken:
            self.sim.schedule(0.0, self._try_start, client)

    def result(self, engine_name: str, workload: str, nclients: int) -> ReplayResult:
        return ReplayResult(
            engine=engine_name,
            workload=workload,
            nthreads=nclients,
            ops=len(self.latencies),
            duration_ns=self.end_time,
            latencies_ns=self.latencies,
            latencies_by_kind=self.latencies_by_kind,
            dependent_waits=self.dependent_waits,
        )


def replay_records(
    records: Sequence[TxRecord],
    nthreads: int,
    engine_name: str,
    workload: str = "",
    model: LatencyModel = NVDIMM,
    sync_lag_ns: float = 0.0,
    resources: Optional[SharedResources] = None,
) -> ReplayResult:
    """Drive a pre-collected cost trace with ``nthreads`` closed-loop
    clients (the two-phase path, kept for trace-reuse experiments).

    ``sync_lag_ns`` adds a fixed scheduling delay before the background
    syncer starts a committed transaction's backup sync (0 = the syncer
    is always ready; larger values stress dependent transactions).
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    source = _RecordQueueSource(records, nthreads)
    clients = VirtualClients(
        source, nthreads, engine_name, model, sync_lag_ns, resources=resources
    )
    clients.run()
    return clients.result(engine_name, workload, nthreads)


def run_online(
    ctx: ExecutionContext,
    ops: Sequence[object],
    executor: Callable[[object], None],
    nthreads: int,
    kind_of: Callable[[object], str] = lambda op: getattr(op, "kind", "op"),
    workload: str = "",
    sync_lag_ns: float = 0.0,
) -> ReplayResult:
    """Execute ``ops`` online under ``nthreads`` closed-loop clients.

    The operation stream is split round-robin across clients (matching
    the trace-replay client assignment); execution, cost charging, and
    shared-server queueing all happen inline on the context's clock and
    resource servers.  With one client this reproduces the two-phase
    harness exactly; with several, contention between dependent
    transactions is exact because each operation runs at the virtual
    time its client actually reaches it.
    """
    if nthreads <= 0:
        raise ValueError("nthreads must be positive")
    if ctx.engine_name is None:
        raise ValueError("context has no engine; build it via ExecutionContext.create")
    all_ops = list(ops)
    streams = [all_ops[i::nthreads] for i in range(nthreads)]
    source = _InlineSource(ctx, streams, executor, kind_of)
    clients = VirtualClients(
        source,
        nthreads,
        ctx.engine_name,
        ctx.model,
        sync_lag_ns,
        resources=ctx.resources,
        events=ctx.events,
    )
    clients.run()
    return clients.result(ctx.engine_name, workload, nthreads)
