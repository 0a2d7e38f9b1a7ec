"""Per-transaction cost records and aggregate simulation results.

One record type for the context, the scheduler, and the benchmark layer
(:mod:`repro.bench` re-exports them next to its runners).  A record
keeps what a transaction cost, not what it locked: the lock footprint
(the committed transaction's write and read sets) is needed only while
the transaction is live, so the scheduler holds it until it releases
the locks and no record carries it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple


class TxRecord(NamedTuple):
    """Costs of one executed transaction.

    A tuple: :meth:`~repro.runtime.context.ExecutionContext.run_tx`
    builds one per operation, positionally.
    """

    kind: str
    crit_ns: float
    async_ns: float
    crit_bytes: int
    async_bytes: int
    crit_copy_bytes: int
    n_intents: int


@dataclass
class ReplayResult:
    """Aggregate metrics of one simulated multi-client run."""

    engine: str
    workload: str
    nthreads: int
    ops: int
    duration_ns: float
    latencies_ns: List[float] = field(repr=False, default_factory=list)
    latencies_by_kind: Dict[str, List[float]] = field(repr=False, default_factory=dict)
    #: starts that found a conflicting object locked and had to wait
    dependent_waits: int = 0

    @property
    def throughput_kops(self) -> float:
        """Committed operations per second, in thousands."""
        if self.duration_ns <= 0:
            return 0.0
        return self.ops / self.duration_ns * 1e9 / 1e3

    @property
    def mean_latency_us(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1e3

    def mean_latency_us_of(self, kind: str) -> float:
        """Mean latency of one operation kind (e.g. 'update')."""
        lats = self.latencies_by_kind.get(kind, ())
        if not lats:
            return 0.0
        return sum(lats) / len(lats) / 1e3

    def percentile_latency_us(self, pct: float) -> float:
        if not self.latencies_ns:
            return 0.0
        data = sorted(self.latencies_ns)
        idx = min(len(data) - 1, int(pct / 100.0 * len(data)))
        return data[idx] / 1e3
