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
  undo-logs" (§7.1); we model it as a serialized per-intent cost
  (:data:`LOG_ARENA_NS_PER_INTENT`) on engines with a log data arena.
* **Lock-table serialization** — every write intent and every read lock
  is one op on the engine's lock table.  The table class owns what an op
  costs (:class:`LockCost`): the global table serializes all of it
  behind one mutex, a striped table only its slot-pool handoff.

Both are FIFO servers in virtual time: a request arriving at ``t``
completes at ``max(t, server_free) + service``.
"""

from __future__ import annotations

from dataclasses import dataclass


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


#: NVML log-arena management per *write* intent: allocating, indexing and
#: freeing a variable-size log data entry through shared allocator state.
#: Charged, and the log copy queued behind the arena mutex, exactly when
#: the engine has a log data arena (``log_data_bytes``: undo and CoW);
#: calibrated against the paper's single-thread latency ratios.
LOG_ARENA_NS_PER_INTENT = 860.0


def serial_ns_per_intent(engine) -> float:
    """What one write intent of ``engine`` costs under the shared mutex:
    its lock table's op (``engine.locks.cost``), plus log-arena
    management when the engine has a log data arena."""
    lock_ns = engine.locks.cost.serial_ns
    if engine.log_data_bytes:
        return LOG_ARENA_NS_PER_INTENT + lock_ns
    return lock_ns
