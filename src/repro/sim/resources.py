"""Shared-resource models for the virtual-client scheduler.

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
* **Lock-table serialization** — every write intent and every read lock
  is one op on the engine's lock table.  The table class owns what an op
  costs (:class:`LockCost`): the global table serializes all of it
  behind one mutex, a striped table only its slot-pool handoff.

Both are FIFO servers in virtual time: a request arriving at ``t``
completes at ``max(t, server_free) + service``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


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
class LockCost:
    """What one lock-table op (a write intent's ``acquire_write``, or a
    read lock) costs.  The lock-table class owns it (its ``cost``), so
    every engine on one table pays the same for its locks."""

    #: work under the mutex every client shares
    serial_ns: float = 0.0
    #: work on the client's own timeline (its stripe), never queued behind
    local_ns: float = 0.0


@dataclass(frozen=True)
class EngineCostModel:
    """An engine's serialized log-management overhead (see module
    docstring); what its locks cost is its lock table's :class:`LockCost`.

    Each engine's registration carries its row
    (:attr:`~repro.runtime.registry.EngineCapabilities.cost`).

    Attributes:
        serial_ns_per_intent: serialized log-management cost per declared
            write intent (allocation + indexing + deallocation of a log
            entry).  High for undo/CoW (variable-size data log entries
            through shared allocator state), none beyond the lock op for
            Kamino (fixed-size entries in per-thread scratchpads, §6.2).
    """

    serial_ns_per_intent: float = 0.0
    #: when True, the bytes captured into the log (undo data / CoW
    #: shadows) are copied through *shared* log-arena state: the copy's
    #: device time is already in the critical path, but it additionally
    #: holds the log mutex, so concurrent transactions queue behind it
    serial_includes_copy: bool = False


@dataclass(frozen=True)
class SchedulerCost:
    """What the scheduler charges an engine's transactions: its row plus
    its lock table's :class:`LockCost` per op, combined by
    :func:`cost_model_for`."""

    serial_ns_per_intent: float  # log management + the write-lock op
    serial_ns_per_read_lock: float
    local_ns_per_lock_op: float  # write intent or read lock
    serial_includes_copy: bool


# The calibrated rows, calibrated against the paper's single-thread
# latency ratios.  Engines name theirs in their registration.

#: no log-management overhead: ``nolog`` and the Kamino family, whose
#: fixed-size intent entries cost nothing beyond the lock op
DEFAULT_COST = EngineCostModel()

#: undo/CoW: 860 ns per *write* intent of NVML log-arena allocation, on
#: top of the global table's 40 ns lock op (900 ns in all), and the log
#: copy queues behind the arena mutex
LOGGING_COST = EngineCostModel(serial_ns_per_intent=860.0, serial_includes_copy=True)

#: what the scheduler charges a name no engine registered: no row, no table
UNREGISTERED_COST = SchedulerCost(0.0, 0.0, 0.0, False)


@lru_cache(maxsize=None)
def _combined(row: EngineCostModel, lock: LockCost) -> SchedulerCost:
    return SchedulerCost(
        row.serial_ns_per_intent + lock.serial_ns,
        lock.serial_ns,
        lock.local_ns,
        row.serial_includes_copy,
    )


def cost_model_for(engine_name: str) -> SchedulerCost:
    """What the scheduler charges the engine registered under
    ``engine_name`` (exact name, then longest registered prefix): its
    row plus its registered lock table's op cost, or
    :data:`UNREGISTERED_COST`."""
    from ..runtime.registry import find_registered

    info = find_registered(engine_name)
    if info is None:
        return UNREGISTERED_COST
    return _combined(info.capabilities.cost, info.capabilities.lock_table.cost)
