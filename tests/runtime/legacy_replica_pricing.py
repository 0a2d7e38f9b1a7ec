"""The replica's private pricing: the specification of a chain hop's cost.

:class:`~repro.replication.node.ReplicaNode` prices every local
transaction through its :class:`~repro.runtime.context.ExecutionContext`
(``execute`` / ``drain`` / ``measure``).  These are its three methods as
they were before that: each marks the device counters itself, ``execute``
installs a closure trace hook that fills a ``captured`` dict, and each
interval is priced by :func:`~repro.nvm.stats.interval_cost` from its own
marks.  One liberty: the per-intent charge is read from the running
engine by the scheduler's helper instead of from a copy cached per
engine.  The chain leg of the record differential
(``test_record_differential.py``) patches them onto ``ReplicaNode`` and
demands a bit-identical run.
"""

import struct
from typing import Any, Optional, Tuple

from repro.nvm.stats import NVMStats, interval_cost
from repro.sim.resources import serial_ns_per_intent
from repro.tx.base import IntentKind


def persist_to_input_queue(self, payload_bytes: int) -> float:
    stats = self.device.stats
    s0 = NVMStats.mark(stats)
    payload = struct.pack("<I", payload_bytes) + b"\x5a" * min(payload_bytes, 248)
    if self.input_queue.free_bytes < 2 * (len(payload) + 16):
        self.input_queue.drain()
    self.input_queue.append(payload)
    return interval_cost(s0, NVMStats.mark(stats), self.device.model)[0]


def execute(self, proc: str, args: Tuple[Any, ...]) -> Tuple[Any, float]:
    fn = self.procs[proc]
    captured = {"intents": 0, "ranges": []}

    def hook(tx):
        captured["intents"] = len(tx.intents)
        captured["ranges"] = [
            (off, size)
            for off, size, kind in tx.intents
            if kind is not IntentKind.FREE
        ]

    stats = self.device.stats
    self.engine.trace_hook = hook
    s0 = NVMStats.mark(stats)
    try:
        result = fn(self.kv, *args)
    finally:
        self.engine.trace_hook = None
    self.last_write_set = captured["ranges"]
    cost = interval_cost(s0, NVMStats.mark(stats), self.device.model)[0]
    cost += serial_ns_per_intent(self.engine) * captured["intents"]
    return result, cost


def sync_backup(self, limit: Optional[int] = 1) -> float:
    stats = self.device.stats
    s0 = NVMStats.mark(stats)
    self.engine.sync_pending(limit=limit)
    return interval_cost(s0, NVMStats.mark(stats), self.device.model)[0]


METHODS = {
    "persist_to_input_queue": persist_to_input_queue,
    "execute": execute,
    "sync_backup": sync_backup,
}
