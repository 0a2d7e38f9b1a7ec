"""Shared setup glue for the benchmark scripts.

Builds the full execution context for a named engine, loads a workload,
and runs its operation stream online (:func:`~repro.runtime.online.run_online`)
under N virtual clients — the part every figure's benchmark has in
common.  Every stack is an
:class:`~repro.runtime.context.ExecutionContext` (device + latency model
+ clock + shared resource servers), and every operation executes at the
virtual time its client reaches it, one client or many.  Scaled defaults
keep each figure's regeneration in the tens of seconds while preserving
the paper's ratios: record count shrinks from 10 M to a few thousand,
but value size, operation mixes, key skew, and data-structure shapes
are the paper's.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..nvm.latency import NVDIMM, LatencyModel
from ..runtime.context import ExecutionContext
from ..runtime.online import run_online
from ..runtime.records import ReplayResult
from ..workloads import TPCCLite, YCSBWorkload

#: scaled-down benchmark defaults (paper: 10 M records, 1 KB values)
DEFAULT_RECORDS = 2000
DEFAULT_OPS = 4000
DEFAULT_VALUE_SIZE = 1024


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
) -> Tuple[ExecutionContext, YCSBWorkload]:
    """Build a stack and load a YCSB table into it (accounting zeroed)."""
    ctx = ExecutionContext.create(
        engine_name,
        value_size=value_size,
        heap_mb=heap_mb,
        model=model,
        coalesce_flushes=coalesce_flushes,
        **engine_kwargs,
    )
    workload = YCSBWorkload(workload_name, nrecords, value_size, seed=seed)
    workload.load(ctx.kv)
    ctx.reset()
    return ctx, workload


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
    heap_mb: int = 48,
    **engine_kwargs,
) -> ReplayResult:
    """Run one YCSB workload online under ``nthreads`` virtual clients.

    Each operation executes functionally at the virtual time its client
    reaches it, charging the context's shared bandwidth/log-management
    servers inline, so dependent-transaction timing is exact.
    """
    ctx, workload = _load_ycsb(
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
        ctx,
        ops,
        lambda op: workload.execute(ctx.kv, op),
        nthreads,
        workload=workload_name,
    )


def run_tpcc_online(
    engine_name: str,
    nthreads: int,
    nops: int = 600,
    seed: int = 0,
    model: LatencyModel = NVDIMM,
    **engine_kwargs,
) -> ReplayResult:
    """Run the TPC-C-lite mix online under ``nthreads`` virtual clients.

    Each client draws its next transaction from the shared mix at the
    virtual time it reaches it.
    """
    ctx = ExecutionContext.create(
        engine_name, value_size=64, heap_mb=24, model=model, **engine_kwargs
    )
    tpcc = TPCCLite(seed=seed)
    tpcc.load(ctx.kv)
    ctx.reset()
    return run_online(
        ctx,
        range(nops),
        lambda _i: tpcc.run_op(ctx.kv),
        nthreads,
        kind_of=lambda _i: "tpcc",
        workload="tpcc",
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
