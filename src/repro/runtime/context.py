"""The execution context: one object bundling device, clock, and servers.

Kamino-Tx's central claim is that atomicity schemes differ only in *what
bytes move when* under an identical hook surface.  The reproduction
honours that for correctness (``tx/_common.py``) and, for cost
accounting, with one runtime core every layer plugs into — an
:class:`ExecutionContext`:

* the :class:`~repro.nvm.device.NVMDevice` (with its
  :class:`~repro.nvm.stats.NVMStats`) — what bytes moved;
* the :class:`~repro.nvm.latency.LatencyModel` — what each primitive
  costs;
* one :class:`~repro.runtime.clock.SimClock`, shared with the context's
  :class:`~repro.sim.events.EventSimulator` — when;
* :class:`SharedResources` — the contended FIFO servers (NVM bandwidth,
  serialized log management, replication nodes) that turn per-client
  costs into multi-client queueing.

:meth:`ExecutionContext.run_tx` executes one transaction and records
what it cost (a :class:`~repro.runtime.records.TxRecord`); it never
moves the clock.  The multi-client scheduler in
:mod:`repro.runtime.online` is the one place a cost meets virtual time:
it calls ``run_tx`` at the moment a client reaches the operation,
threads the record through the shared servers, and holds the committed
transaction's lock sets until it releases them.  ``run_tx`` is its two
halves, :meth:`~ExecutionContext.execute` (the critical path) and
:meth:`~ExecutionContext.drain` (the deferred work); a chain replica
prices its hops with the halves themselves and keeps no records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..nvm.device import NVMDevice
from ..nvm.latency import NVDIMM, LatencyModel
from ..nvm.stats import NVMStats, interval_cost
from ..sim.events import EventSimulator
from ..sim.resources import BandwidthResource, FIFOServer, ServerSnapshot
from .clock import ClockSnapshot, SimClock
from .records import TxRecord
from .registry import make_engine

_mark = NVMStats.mark


class SharedResources:
    """The contended servers of one simulated machine.

    Every byte any client moves passes through ``bandwidth``; every log
    entry any engine allocates passes through ``log_mgmt``.  Additional
    servers (replication nodes) register themselves so the uniform
    ``reset()`` / ``snapshot()`` contract covers them too.
    """

    def __init__(self, model: LatencyModel):
        self.model = model
        self.bandwidth = BandwidthResource(model.bandwidth_gbps)
        self.log_mgmt = FIFOServer("log-mgmt")
        self._extra: List[FIFOServer] = []

    def register(self, server: FIFOServer) -> FIFOServer:
        """Track an additional server under the reset/snapshot contract."""
        self._extra.append(server)
        return server

    def servers(self) -> Iterator[FIFOServer]:
        yield self.bandwidth
        yield self.log_mgmt
        yield from self._extra

    def reset(self) -> None:
        for server in self.servers():
            server.reset()

    def snapshot(self) -> Dict[str, ServerSnapshot]:
        return {server.name: server.snapshot() for server in self.servers()}


@dataclass(frozen=True)
class ContextSnapshot:
    """Immutable view of every accounting surface of one context."""

    clock: ClockSnapshot
    stats: Optional[NVMStats]
    servers: Dict[str, ServerSnapshot]


class ExecutionContext:
    """One simulated machine: device + model + clock + shared servers.

    Construct directly for a bare context (replication clusters that
    bring their own storage), or via :meth:`create` to build the full
    device → pool → heap → KV stack for a named engine.
    """

    def __init__(
        self,
        model: LatencyModel = NVDIMM,
        device: Optional[NVMDevice] = None,
        engine=None,
        heap=None,
        kv=None,
        resources: Optional[SharedResources] = None,
        engine_name: Optional[str] = None,
        seed: int = 0,
    ):
        self.model = model
        self.device = device
        self.engine = engine
        self.heap = heap
        self.kv = kv
        self.clock = SimClock()
        self.events = EventSimulator(clock=self.clock)
        self.resources = resources if resources is not None else SharedResources(model)
        self.engine_name = engine_name or (getattr(engine, "name", None) if engine else None)
        #: the context's seed and RNG: every non-deterministic choice a
        #: simulation layer makes (fault injection above all) draws from
        #: here, so a run is exactly replayable from ``seed``
        self.seed = seed
        self.rng = random.Random(seed)
        #: records of every transaction executed through :meth:`run_tx`
        self.records: List[TxRecord] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        engine_name: str,
        value_size: int = 1024,
        heap_mb: int = 48,
        model: LatencyModel = NVDIMM,
        fanout: int = 32,
        seed: int = 0,
        coalesce_flushes: bool = False,
        resources: Optional[SharedResources] = None,
        **engine_kwargs,
    ) -> "ExecutionContext":
        """Build the full stack for ``engine_name``.

        The pool is sized for the worst-case engine footprint (full
        mirror + logs), so every engine sees an identically sized heap.
        """
        from ..heap import PersistentHeap
        from ..kvstore import KVStore
        from ..nvm.pool import PmemPool

        heap_bytes = heap_mb << 20
        pool_bytes = heap_bytes * 2 + (32 << 20)
        device = NVMDevice(
            pool_bytes,
            model=model,
            seed=seed,
            coalesce_flushes=coalesce_flushes,
        )
        pool = PmemPool.create(device)
        engine = make_engine(engine_name, **engine_kwargs)
        heap = PersistentHeap.create(pool, engine, heap_size=heap_bytes)
        kv = KVStore.create(heap, value_size=value_size, fanout=fanout)
        return cls(
            model=model,
            device=device,
            engine=engine,
            heap=heap,
            kv=kv,
            resources=resources,
            engine_name=engine_name,
        )

    # -- accounting surfaces -------------------------------------------------

    @property
    def stats(self) -> Optional[NVMStats]:
        return self.device.stats if self.device is not None else None

    def simulated_ns(self, delta: NVMStats) -> float:
        """Convert a stats delta into nanoseconds under this model."""
        return delta.simulated_ns(self.model)

    # -- inline transaction execution ----------------------------------------

    def execute(self, kind: str, fn: Callable[..., Any], *args) -> Tuple[Any, TxRecord, Any]:
        """Execute ``fn(*args)`` as one transaction and price its
        critical path; returns ``(result, record, tx)``.

        Two marks of the device's counters (:attr:`NVMStats.mark`)
        around the body are priced by
        :func:`~repro.nvm.stats.interval_cost`; no :class:`NVMStats` is
        built.  The last transaction the engine's trace hook sees commit
        (``tx``, None if none did) gives the record its intent count;
        its write and read sets stay on ``tx``.  The asynchronous fields
        are zero and nothing is appended: the deferred work is
        :meth:`drain`'s, on the caller's schedule.  The hook may end
        before the drain: only ``Transaction.commit`` fires it, and no
        deferred-work path opens a transaction.
        """
        engine = self.engine
        if self.device is None or engine is None:
            raise ValueError("execute requires a context with a device and an engine")
        stats = self.device.stats
        committed = []
        engine.trace_hook = committed.append
        try:
            start = _mark(stats)
            result = fn(*args)
            end = _mark(stats)
        finally:
            engine.trace_hook = None
        tx = committed[-1] if committed else None
        crit_ns, crit_bytes, crit_copy_bytes = interval_cost(start, end, self.model)
        record = TxRecord(
            kind, crit_ns, 0.0, crit_bytes, 0, crit_copy_bytes,
            0 if tx is None else len(tx.intents),
        )
        return result, record, tx

    def drain(self, limit: Optional[int] = None) -> Tuple[float, int]:
        """Drain up to ``limit`` units of the engine's deferred work
        (all of it when None); returns its ``(simulated_ns, bytes)``."""
        stats = self.device.stats
        start = _mark(stats)
        self.engine.sync_pending(limit)
        ns, nbytes, _ = interval_cost(start, _mark(stats), self.model)
        return ns, nbytes

    def measure(self, fn: Callable[..., Any], *args) -> float:
        """The simulated ns of device work ``fn(*args)`` does outside
        any transaction (a replica's input-queue append)."""
        stats = self.device.stats
        start = _mark(stats)
        fn(*args)
        return interval_cost(start, _mark(stats), self.model)[0]

    def run_tx(self, kind: str, fn: Callable[..., None], *args) -> Tuple[TxRecord, Any]:
        """Execute one operation, ``fn(*args)``, as one transaction and
        record its costs; returns ``(record, tx)``.

        :meth:`execute` prices the critical path, then :meth:`drain`
        prices exactly this operation's deferred work as the record's
        asynchronous backup sync.  The record is appended to
        :attr:`records`; the clock does not move.  Virtual time belongs
        to the scheduler (:func:`~repro.runtime.online.run_online`),
        which threads the record through the shared servers at the
        moment it executes.  ``tx`` is the committed transaction (None
        if none committed): its write and read sets are the lock
        footprint, which the scheduler holds only until it releases the
        locks, so the record does not keep them.
        """
        _result, record, tx = self.execute(kind, fn, *args)
        async_ns, async_bytes = self.drain()
        if async_ns or async_bytes:
            record = record._replace(async_ns=async_ns, async_bytes=async_bytes)
        self.records.append(record)
        return record, tx

    # -- uniform reset/snapshot contract -------------------------------------

    def reset(self) -> None:
        """Zero every accounting surface (between benchmark runs).

        Durable state (heap contents) is untouched; only counters, the
        clock, the shared servers, and collected records are cleared, so
        back-to-back engine runs cannot leak cost into each other.
        """
        if self.device is not None:
            self.device.stats.reset()
        self.resources.reset()
        self.clock.reset()
        self.records.clear()

    def snapshot(self) -> ContextSnapshot:
        """Immutable view of every accounting surface, for leak checks."""
        return ContextSnapshot(
            clock=self.clock.snapshot(),
            stats=self.device.stats.snapshot() if self.device is not None else None,
            servers=self.resources.snapshot(),
        )
