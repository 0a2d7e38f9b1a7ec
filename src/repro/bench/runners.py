"""Shared setup glue for the benchmark scripts.

Builds the full execution context for a named engine, loads a workload,
and runs its operation stream — the part every figure's benchmark has
in common.  Every stack is an
:class:`~repro.runtime.context.ExecutionContext` (device + latency model
+ clock + shared resource servers), so single-client tracing and
multi-client online simulation use the same objects.  Scaled defaults
keep each figure's regeneration in the tens of seconds while preserving
the paper's ratios: record count shrinks from 10 M to a few thousand,
but value size, operation mixes, key skew, and data-structure shapes
are the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..nvm.latency import NVDIMM, LatencyModel
from ..runtime.context import ExecutionContext
from ..runtime.online import run_online
from ..runtime.records import ReplayResult, TxRecord
from ..workloads import TPCCLite, YCSBWorkload

#: scaled-down benchmark defaults (paper: 10 M records, 1 KB values)
DEFAULT_RECORDS = 2000
DEFAULT_OPS = 4000
DEFAULT_VALUE_SIZE = 1024


@dataclass
class Stack:
    """One engine's full stack — a view over its execution context."""

    ctx: ExecutionContext

    @property
    def device(self):
        return self.ctx.device

    @property
    def heap(self):
        return self.ctx.heap

    @property
    def kv(self):
        return self.ctx.kv

    @property
    def engine(self):
        return self.ctx.engine

    @property
    def engine_name(self) -> str:
        return self.ctx.engine_name


def build_stack(
    engine_name: str,
    value_size: int = DEFAULT_VALUE_SIZE,
    heap_mb: int = 48,
    model: LatencyModel = NVDIMM,
    fanout: int = 32,
    coalesce_flushes: bool = False,
    **engine_kwargs,
) -> Stack:
    """Device + pool + heap + KV store for ``engine_name``.

    The pool is sized for the worst-case engine footprint (full mirror +
    logs), so every engine sees an identically sized heap.
    """
    ctx = ExecutionContext.create(
        engine_name,
        value_size=value_size,
        heap_mb=heap_mb,
        model=model,
        fanout=fanout,
        coalesce_flushes=coalesce_flushes,
        **engine_kwargs,
    )
    return Stack(ctx=ctx)


def _load_ycsb(
    engine_name: str,
    workload_name: str,
    nrecords: int,
    value_size: int,
    seed: int,
    model: LatencyModel,
    coalesce_flushes: bool = False,
    heap_mb: int = 48,
    **engine_kwargs,
) -> Tuple[Stack, YCSBWorkload]:
    """Build a stack and load a YCSB table into it (accounting zeroed)."""
    stack = build_stack(
        engine_name,
        value_size=value_size,
        heap_mb=heap_mb,
        model=model,
        coalesce_flushes=coalesce_flushes,
        **engine_kwargs,
    )
    workload = YCSBWorkload(workload_name, nrecords, value_size, seed=seed)
    workload.load(stack.kv)
    stack.ctx.reset()
    return stack, workload


def trace_ycsb(
    engine_name: str,
    workload_name: str,
    nrecords: int = DEFAULT_RECORDS,
    nops: int = DEFAULT_OPS,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    **engine_kwargs,
) -> List[TxRecord]:
    """Load + trace one YCSB workload on one engine (single client)."""
    stack, workload = _load_ycsb(
        engine_name, workload_name, nrecords, value_size, seed, model, **engine_kwargs
    )
    stack.ctx.run_ops(
        workload.run_ops(nops),
        lambda op: workload.execute(stack.kv, op),
        charge=False,
    )
    return stack.ctx.records


def run_ycsb_online(
    engine_name: str,
    workload_name: str,
    nthreads: int,
    nrecords: int = DEFAULT_RECORDS,
    nops: int = DEFAULT_OPS,
    value_size: int = DEFAULT_VALUE_SIZE,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    coalesce_flushes: bool = False,
    sync_lag_ns: float = 0.0,
    heap_mb: int = 48,
    **engine_kwargs,
) -> ReplayResult:
    """Run one YCSB workload online under ``nthreads`` virtual clients.

    Each operation executes functionally at the virtual time its client
    reaches it, charging the context's shared bandwidth/log-management
    servers inline — no trace pass, exact dependent-transaction timing.
    """
    stack, workload = _load_ycsb(
        engine_name,
        workload_name,
        nrecords,
        value_size,
        seed,
        model,
        coalesce_flushes=coalesce_flushes,
        heap_mb=heap_mb,
        **engine_kwargs,
    )
    ops = list(workload.run_ops(nops))
    return run_online(
        stack.ctx,
        ops,
        lambda op: workload.execute(stack.kv, op),
        nthreads,
        workload=workload_name,
        sync_lag_ns=sync_lag_ns,
    )


def trace_tpcc(
    engine_name: str,
    nops: int = 600,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    **engine_kwargs,
) -> List[TxRecord]:
    """Load + trace the TPC-C-lite mix on one engine."""
    stack = build_stack(engine_name, value_size=64, heap_mb=24, model=model, **engine_kwargs)
    tpcc = TPCCLite(seed=seed)
    tpcc.load(stack.kv)
    stack.ctx.reset()
    names = []

    def one(_ignored) -> None:
        names.append(tpcc.run_op(stack.kv))

    stack.ctx.run_ops(range(nops), one, kind_of=lambda _i: "tpcc", charge=False)
    return stack.ctx.records


def run_tpcc_online(
    engine_name: str,
    nthreads: int,
    nops: int = 600,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    coalesce_flushes: bool = False,
    sync_lag_ns: float = 0.0,
    **engine_kwargs,
) -> ReplayResult:
    """Run the TPC-C-lite mix online under ``nthreads`` virtual clients."""
    stack = build_stack(
        engine_name,
        value_size=64,
        heap_mb=24,
        model=model,
        coalesce_flushes=coalesce_flushes,
        **engine_kwargs,
    )
    tpcc = TPCCLite(seed=seed)
    tpcc.load(stack.kv)
    stack.ctx.reset()

    def one(_ignored) -> None:
        tpcc.run_op(stack.kv)

    return run_online(
        stack.ctx,
        range(nops),
        one,
        nthreads,
        kind_of=lambda _i: "tpcc",
        workload="tpcc",
        sync_lag_ns=sync_lag_ns,
    )


def run_ycsb_matrix(
    engines: Sequence[str],
    workloads: Sequence[str],
    nthreads_list: Sequence[int] = (4,),
    nrecords: int = DEFAULT_RECORDS,
    nops: int = DEFAULT_OPS,
    value_size: int = DEFAULT_VALUE_SIZE,
    model: LatencyModel = NVDIMM,
    engine_kwargs: Optional[Dict[str, dict]] = None,
    coalesce_flushes: bool = False,
) -> Dict[Tuple[str, str, int], ReplayResult]:
    """The engine x workload x thread-count cross product behind Figure 12.

    Each cell runs a fresh online simulation, so dependent transactions
    execute at their true virtual times and the flush coalescer
    (``coalesce_flushes``) can be engaged.
    """
    engine_kwargs = engine_kwargs or {}
    results: Dict[Tuple[str, str, int], ReplayResult] = {}
    for engine_name in engines:
        for workload_name in workloads:
            for nthreads in nthreads_list:
                results[(engine_name, workload_name, nthreads)] = run_ycsb_online(
                    engine_name,
                    workload_name,
                    nthreads,
                    nrecords=nrecords,
                    nops=nops,
                    value_size=value_size,
                    model=model,
                    coalesce_flushes=coalesce_flushes,
                    **engine_kwargs.get(engine_name, {}),
                )
    return results
