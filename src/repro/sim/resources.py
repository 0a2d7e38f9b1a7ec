"""Shared-resource models for the replay simulator.

Two first-order contention effects dominate the paper's multi-thread
results:

* **Memory bandwidth** — every byte moved to or from NVM, whether on or
  off the critical path, passes through a shared channel.  Undo logging
  moves ~2× the bytes of Kamino *inside* transactions, so it saturates
  first as threads scale (Figure 12's widening gap).
* **Log management serialization** — NVML's undo log requires allocating,
  indexing, and freeing log entries through shared allocator state;
  Kamino's fixed-size, per-thread intent entries need almost none of
  that.  The paper attributes most of the baseline's overhead to "cache
  flushes, transactional allocation and software needed for maintaining
  undo-logs" (§7.1); we model it as a serialized per-intent cost.

Both are FIFO servers in virtual time: a request arriving at ``t``
completes at ``max(t, server_free) + service``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class ServerSnapshot:
    """Immutable view of a :class:`FIFOServer`'s accumulated state."""

    name: str
    free_at: float
    busy_ns: float
    requests: int


class FIFOServer:
    """A single FIFO queueing server over virtual nanoseconds.

    Follows the runtime's uniform accounting contract: ``reset()``
    returns the server to its just-constructed state, ``snapshot()``
    yields an immutable copy — so an
    :class:`~repro.runtime.context.ExecutionContext` can zero every
    counter between benchmark runs and prove nothing leaked.
    """

    def __init__(self, name: str):
        self.name = name
        self._free_at = 0.0
        self.busy_ns = 0.0
        self.requests = 0

    def request(self, arrival: float, service_ns: float) -> float:
        """Enqueue ``service_ns`` of work at ``arrival``; returns the
        completion time."""
        if service_ns < 0:
            raise ValueError("service time cannot be negative")
        start = max(arrival, self._free_at)
        self._free_at = start + service_ns
        self.busy_ns += service_ns
        self.requests += 1
        return self._free_at

    def utilization(self, horizon_ns: float) -> float:
        return self.busy_ns / horizon_ns if horizon_ns > 0 else 0.0

    def reset(self) -> None:
        self._free_at = 0.0
        self.busy_ns = 0.0
        self.requests = 0

    def snapshot(self) -> ServerSnapshot:
        return ServerSnapshot(
            name=self.name,
            free_at=self._free_at,
            busy_ns=self.busy_ns,
            requests=self.requests,
        )


class BandwidthResource(FIFOServer):
    """Shared NVM channel; service time = bytes / bandwidth."""

    def __init__(self, bandwidth_gbps: float):
        super().__init__("nvm-bandwidth")
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_gbps = bandwidth_gbps
        # GB/s == bytes/ns
        self._ns_per_byte = 1.0 / bandwidth_gbps

    def transfer(self, arrival: float, nbytes: float) -> float:
        """Move ``nbytes`` through the channel; returns completion time."""
        return self.request(arrival, nbytes * self._ns_per_byte)


@dataclass(frozen=True)
class EngineCostModel:
    """Per-engine serialized software overheads (see module docstring).

    Each engine's registration carries its row
    (:attr:`~repro.runtime.registry.EngineCapabilities.cost`).

    Attributes:
        serial_ns_per_intent: serialized log-management cost per declared
            write intent (allocation + indexing + deallocation of a log
            entry).  High for undo/CoW (variable-size data log entries
            through shared allocator state), near zero for Kamino
            (fixed-size entries in per-thread scratchpads, §6.2).
    """

    serial_ns_per_intent: float = 0.0
    #: when True, the bytes captured into the log (undo data / CoW
    #: shadows) are copied through *shared* log-arena state: the copy's
    #: device time is already in the critical path, but it additionally
    #: holds the log mutex, so concurrent transactions queue behind it
    serial_includes_copy: bool = False
    #: per-intent software cost that is NOT serialized — it runs on the
    #: client's own timeline (per-stripe lock work, volatile shadow
    #: bookkeeping).  The fine-grained family trades serialized cost for
    #: local cost: same single-client latency, no cross-client queueing.
    local_ns_per_intent: float = 0.0
    #: serialized cost per *read-lock* acquisition.  The global lock
    #: table guards read acquires with the same single mutex as writes,
    #: so a traversal's read set queues on the table too — every
    #: global-table engine carries the same constant here, which keeps
    #: read-only workloads at throughput parity across them.
    serial_ns_per_read_lock: float = 0.0
    #: non-serialized counterpart for read locks (striped tables).
    local_ns_per_read_lock: float = 0.0


# The calibrated rows, calibrated against the paper's single-thread
# latency ratios.  Engines name theirs in their registration.

#: no software overhead: ``nolog`` and any engine that declares no row
DEFAULT_COST = EngineCostModel()

#: undo/CoW: the 900 ns per *write* intent is NVML's measured log-arena
#: allocation overhead, and the log copy queues behind the arena mutex.
#: Both share the global ObjectLockTable with kamino, so their read
#: acquires pass through the same serialized table mutex and carry the
#: same 40 ns.
LOGGING_COST = EngineCostModel(
    serial_ns_per_intent=900.0,
    serial_ns_per_read_lock=40.0,
    serial_includes_copy=True,
)

#: Kamino over the global lock table (simple, dynamic, and nvtraverse,
#: which batches the intent publication at the destination but keeps the
#: same table): fixed-size intent entries cost 40 ns of serialized work.
KAMINO_COST = EngineCostModel(
    serial_ns_per_intent=40.0,
    serial_ns_per_read_lock=40.0,
)

#: Kamino over the striped lock table: only the slot-pool handoff stays
#: serialized (8 ns); the remaining 32 ns of per-lock-op work happens on
#: the stripe the client hashed to, concurrently with other clients.
#: The split sums to KAMINO_COST's 40 ns, so single-client latency is
#: identical and the gap only opens under contention.
STRIPED_KAMINO_COST = EngineCostModel(
    serial_ns_per_intent=8.0,
    local_ns_per_intent=32.0,
    serial_ns_per_read_lock=8.0,
    local_ns_per_read_lock=32.0,
)


def cost_model_for(engine_name: str) -> EngineCostModel:
    """The cost row of the engine registered under ``engine_name`` (exact
    name, then longest registered prefix), or :data:`DEFAULT_COST`."""
    from ..runtime.registry import find_registered

    info = find_registered(engine_name)
    return info.capabilities.cost if info is not None else DEFAULT_COST
