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

:meth:`ExecutionContext.run_tx` executes one transaction and charges its
measured cost to the clock **inline**, at the moment the bytes move —
there is no separate replay pass.  The multi-client scheduler in
:mod:`repro.runtime.online` layers shared-server queueing on top of the
same objects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from ..nvm.device import NVMDevice
from ..nvm.latency import NVDIMM, LatencyModel
from ..nvm.stats import NVMStats
from ..sim.events import EventSimulator
from ..sim.resources import BandwidthResource, FIFOServer, ServerSnapshot
from .clock import ClockSnapshot, SimClock
from .records import TxRecord
from .registry import make_engine


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
    bring their own storage), via :meth:`attach` to wrap an existing
    device/engine pair, or via :meth:`create` to build the full
    device → pool → heap → KV stack for a named engine.
    """

    def __init__(
        self,
        model: LatencyModel = NVDIMM,
        device: Optional[NVMDevice] = None,
        engine=None,
        heap=None,
        kv=None,
        clock: Optional[SimClock] = None,
        events: Optional[EventSimulator] = None,
        resources: Optional[SharedResources] = None,
        engine_name: Optional[str] = None,
        seed: int = 0,
    ):
        self.model = model
        self.device = device
        self.engine = engine
        self.heap = heap
        self.kv = kv
        self.clock = clock if clock is not None else SimClock()
        self.events = events if events is not None else EventSimulator(clock=self.clock)
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
        backend: Optional[str] = None,
        **engine_kwargs,
    ) -> "ExecutionContext":
        """Build the full stack for ``engine_name``.

        The pool is sized for the worst-case engine footprint (full
        mirror + logs), so every engine sees an identically sized heap.

        ``backend`` (``"pure"`` / ``"numpy"`` / ``None`` for
        auto-detect) selects the device implementation via
        :func:`repro.nvm.backend.device_class`; it changes no simulated
        result.
        """
        from ..heap import PersistentHeap
        from ..kvstore import KVStore
        from ..nvm.backend import device_class
        from ..nvm.pool import PmemPool

        heap_bytes = heap_mb << 20
        pool_bytes = heap_bytes * 2 + (32 << 20)
        device = device_class(backend)(
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

    @classmethod
    def attach(
        cls,
        device: NVMDevice,
        engine,
        model: Optional[LatencyModel] = None,
        resources: Optional[SharedResources] = None,
        heap=None,
        kv=None,
    ) -> "ExecutionContext":
        """Wrap an already-built device/engine pair in a context."""
        return cls(
            model=model or device.model,
            device=device,
            engine=engine,
            heap=heap,
            kv=kv,
            resources=resources,
        )

    # -- accounting surfaces -------------------------------------------------

    @property
    def stats(self) -> Optional[NVMStats]:
        return self.device.stats if self.device is not None else None

    def simulated_ns(self, delta: NVMStats) -> float:
        """Convert a stats delta into nanoseconds under this model."""
        return delta.simulated_ns(self.model)

    # -- inline transaction execution ----------------------------------------

    def run_tx(self, kind: str, fn: Callable[[], None], charge: bool = True) -> TxRecord:
        """Execute one operation (one transaction) and record its costs.

        The device's counters are snapshotted around the functional
        execution and around the engine's deferred-work drain; the deltas
        price the critical path and the asynchronous backup sync.  With
        ``charge`` (single-client accounting) the context's clock advances
        by the critical-path cost at this moment — inline, not in a later
        replay pass.  The multi-client scheduler passes ``charge=False``
        and threads the record through the shared servers itself, which
        is the same inline moment seen from a contended machine.
        """
        if self.device is None or self.engine is None:
            raise ValueError("run_tx requires a context with a device and an engine")
        captured: Dict[str, object] = {}

        def hook(tx) -> None:
            captured["write"] = frozenset(tx.write_set)
            captured["read"] = frozenset(tx.read_set)
            captured["intents"] = len(tx.intents)

        stats = self.device.stats
        self.engine.trace_hook = hook
        try:
            s0 = stats.snapshot()
            fn()
            s1 = stats.snapshot()
            # drain exactly this operation's deferred work
            self.engine.sync_pending()
            s2 = stats.snapshot()
        finally:
            self.engine.trace_hook = None
        crit = s1.delta(s0)
        deferred = s2.delta(s1)
        record = TxRecord(
            kind=kind,
            crit_ns=crit.simulated_ns(self.model),
            async_ns=deferred.simulated_ns(self.model),
            crit_bytes=crit.total_bytes,
            async_bytes=deferred.total_bytes,
            crit_copy_bytes=crit.copy_bytes,
            n_intents=int(captured.get("intents", 0)),
            write_set=captured.get("write", frozenset()),
            read_set=captured.get("read", frozenset()),
        )
        if charge:
            self.clock.advance(record.crit_ns)
        self.records.append(record)
        return record

    def run_ops(
        self,
        ops,
        executor: Callable[[object], None],
        kind_of: Callable[[object], str] = lambda op: getattr(op, "kind", "op"),
        charge: bool = True,
    ) -> List[TxRecord]:
        """Trace a whole operation stream through :meth:`run_tx`."""
        for op in ops:
            self.run_tx(kind_of(op), lambda: executor(op), charge=charge)
        return self.records

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
