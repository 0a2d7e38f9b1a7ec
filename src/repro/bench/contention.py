"""Contended multi-client zipfian YCSB battery.

The concurrent-engine family exists for exactly one claim: under real
contention, per-object striped locking beats serializing every
transaction through global lock-table state.  This module is the driver
that makes the claim measurable and regression-testable:

* :func:`run_contended_cell` — one (engine × client-count) cell of a
  zipfian YCSB-A run through the online scheduler
  (:mod:`repro.runtime.online`), returning scheduler metrics
  (duration, throughput, latency, dependent waits) *and* the engine's
  lock-table counters side by side.
* :func:`run_contention_sweep` — the full battery over client counts,
  with the **crossover** computed: the smallest client count at which
  the challenger (`kamino-finegrained`) strictly beats the baseline
  (`kamino-dynamic`, same α, global lock table) on wall duration.

The cells deliberately shrink the key space (``nrecords`` defaults to
a few hundred) so the zipfian hot set actually collides: contention is
the subject, not an accident.  Everything is virtual-time
deterministic — the same seed gives bit-identical cells on every
run, which is what lets CI gate on the crossover.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..nvm.latency import NVDIMM, LatencyModel
from ..runtime.online import run_online
from .runners import _load_ycsb

#: contention-battery defaults: a hot key space a few hundred wide makes
#: the zipfian head collide across clients without inflating runtimes
CONTENTION_RECORDS = 240
CONTENTION_OPS = 720
CONTENTION_VALUE_SIZE = 256

DEFAULT_BASELINE = "kamino-dynamic"
DEFAULT_CHALLENGER = "kamino-finegrained"
DEFAULT_CLIENTS: Tuple[int, ...] = (1, 2, 4, 8)


@dataclass
class ContentionCell:
    """One engine × client-count measurement."""

    engine: str
    nclients: int
    ops: int
    duration_ns: float
    mean_latency_ns: float
    max_latency_ns: float
    dependent_waits: int
    lock_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_kops(self) -> float:
        """Thousands of committed ops per virtual millisecond × 1000
        (i.e. ops per virtual microsecond, scaled): ops / duration_ms."""
        if self.duration_ns <= 0:
            return 0.0
        return self.ops / (self.duration_ns / 1e6)

    def to_dict(self) -> Dict[str, object]:
        return {
            "engine": self.engine,
            "nclients": self.nclients,
            "ops": self.ops,
            "duration_ns": self.duration_ns,
            "throughput_kops": self.throughput_kops,
            "mean_latency_ns": self.mean_latency_ns,
            "max_latency_ns": self.max_latency_ns,
            "dependent_waits": self.dependent_waits,
            "lock_stats": dict(self.lock_stats),
        }


def _engine_lock_stats(engine) -> Dict[str, int]:
    """The engine lock table's counters, plus its stripe count if striped."""
    locks = engine.locks
    out = asdict(locks.stats)
    if hasattr(locks, "nstripes"):
        out["stripes"] = locks.nstripes
    return out


def run_contended_cell(
    engine_name: str,
    nclients: int,
    workload_name: str = "A",
    nrecords: int = CONTENTION_RECORDS,
    nops: int = CONTENTION_OPS,
    value_size: int = CONTENTION_VALUE_SIZE,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    heap_mb: int = 24,
    **engine_kwargs,
) -> ContentionCell:
    """Run one zipfian cell online and report scheduler + lock metrics."""
    ctx, workload = _load_ycsb(
        engine_name,
        workload_name,
        nrecords,
        value_size,
        seed,
        model,
        heap_mb=heap_mb,
        **engine_kwargs,
    )
    result = run_online(
        ctx,
        list(workload.run_ops(nops)),
        lambda op: workload.execute(ctx.kv, op),
        nclients,
    )
    latencies = result.latencies_ns
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    return ContentionCell(
        engine=engine_name,
        nclients=nclients,
        ops=result.ops,
        duration_ns=result.duration_ns,
        mean_latency_ns=mean,
        max_latency_ns=max(latencies) if latencies else 0.0,
        dependent_waits=result.dependent_waits,
        lock_stats=_engine_lock_stats(ctx.engine),
    )


@dataclass
class ContentionSweep:
    """The full battery plus the computed crossover."""

    workload: str
    nrecords: int
    nops: int
    seed: int
    cells: List[ContentionCell]
    baseline: str
    challenger: str

    def cell(self, engine: str, nclients: int) -> Optional[ContentionCell]:
        for c in self.cells:
            if c.engine == engine and c.nclients == nclients:
                return c
        return None

    def crossover_clients(self) -> Optional[int]:
        """Smallest client count where the challenger strictly beats the
        baseline on duration; ``None`` if it never does."""
        counts = sorted({c.nclients for c in self.cells})
        for n in counts:
            base = self.cell(self.baseline, n)
            chal = self.cell(self.challenger, n)
            if base is None or chal is None:
                continue
            if chal.duration_ns < base.duration_ns:
                return n
        return None

    def speedup_at(self, nclients: int) -> Optional[float]:
        base = self.cell(self.baseline, nclients)
        chal = self.cell(self.challenger, nclients)
        if base is None or chal is None or chal.duration_ns <= 0:
            return None
        return base.duration_ns / chal.duration_ns

    def to_dict(self) -> Dict[str, object]:
        max_clients = max((c.nclients for c in self.cells), default=0)
        return {
            "workload": self.workload,
            "nrecords": self.nrecords,
            "nops": self.nops,
            "seed": self.seed,
            "baseline": self.baseline,
            "challenger": self.challenger,
            "cells": [c.to_dict() for c in self.cells],
            "crossover_clients": self.crossover_clients(),
            "speedup_at_max_clients": self.speedup_at(max_clients),
        }


def run_contention_sweep(
    engines: Sequence[str] = (DEFAULT_BASELINE, DEFAULT_CHALLENGER),
    client_counts: Sequence[int] = DEFAULT_CLIENTS,
    workload_name: str = "A",
    nrecords: int = CONTENTION_RECORDS,
    nops: int = CONTENTION_OPS,
    value_size: int = CONTENTION_VALUE_SIZE,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    baseline: str = DEFAULT_BASELINE,
    challenger: str = DEFAULT_CHALLENGER,
    engine_kwargs: Optional[Dict[str, dict]] = None,
) -> ContentionSweep:
    """Sweep the battery: every engine × client count, one fresh stack each."""
    engine_kwargs = engine_kwargs or {}
    cells: List[ContentionCell] = []
    for engine_name in engines:
        for nclients in client_counts:
            cells.append(
                run_contended_cell(
                    engine_name,
                    nclients,
                    workload_name=workload_name,
                    nrecords=nrecords,
                    nops=nops,
                    value_size=value_size,
                    seed=seed,
                    model=model,
                    **engine_kwargs.get(engine_name, {}),
                )
            )
    return ContentionSweep(
        workload=workload_name,
        nrecords=nrecords,
        nops=nops,
        seed=seed,
        cells=cells,
        baseline=baseline,
        challenger=challenger,
    )
