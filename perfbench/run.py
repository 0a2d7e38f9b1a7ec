"""One run = one workload in one fresh process.

Untraced (``--trace 0``): calibration cell, build + load several times
(``setup_s`` is their median), ``gc.collect()``, the timed region with
the collector left on, then the untimed correctness gate.  The result
carries every end-to-end metric of ``BENCHMARK.json``.

Traced (``--trace 1``): a quarter of the operations, once plain and once
under the span tracer of :mod:`perfbench.trace`; the result carries
every per-layer metric.  The traced leg must reproduce the plain leg's
simulated results and device counters exactly -- tracing may cost host
time but must be invisible to the simulation.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import ROOT, spec
from .layers import count_metrics, span_metrics
from .trace import Tracer, calibrate, install_repo_spans
from .workloads import WORKLOADS, percentile

_clock = time.perf_counter_ns

#: the traced run measures this fraction of the untraced operation count
TRACE_FRACTION = 0.25

#: build + load is repeated until this much time went into it (at least
#: SETUP_MIN, at most SETUP_MAX times), so that a setup of milliseconds
#: gets as steady a median as one of seconds
SETUP_BUDGET_S = 4.0
SETUP_MIN = 3
SETUP_MAX = 15

#: host-time metrics are medians over this many equal-count slices of
#: the timed region: a neighbour on the shared host slows the run for
#: seconds at a time, and a median of slices shrugs off the episodes a
#: whole-region figure averages in
SLICES = 8


def calibration_cell() -> float:
    """Milliseconds a fixed pure-python spin + bytearray slice loop takes
    (median of 5): host drift between runs and days, visible next to
    every number.  It normalises nothing."""
    times = []
    for _ in range(5):
        buf = bytearray(1 << 16)
        acc = 0
        start = _clock()
        for i in range(100_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        for i in range(25_000):
            off = (i * 64) & 0xFF80
            buf[off:off + 64] = buf[off + 64:off + 128]
        times.append((_clock() - start) / 1e6)
    return statistics.median(times)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _backend(devices: List[Any]) -> Optional[str]:
    """The byte-store backend the run resolved (recorded, never chosen)."""
    return getattr(devices[0], "backend", None) if devices else None


def timed_setups(workload: Any, seed: int, ops: int, repeat: bool) -> Tuple[Any, List[float]]:
    """Build + load; returns the last state and every setup's seconds."""
    times: List[float] = []
    while True:
        start = _clock()
        state = workload.setup(seed, ops)
        times.append((_clock() - start) / 1e9)
        done = len(times) >= SETUP_MAX or (
            len(times) >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S
        )
        if not repeat or done:
            return state, times
        workload.close(state)
        del state
        gc.collect()


def timed_region(workload: Any, state: Any, tracer: Any = None) -> Tuple[Any, int]:
    """``gc.collect()``, then the region with the collector left on."""
    gc.collect()
    collections = _gc_collections()
    if tracer is not None:
        tracer.enabled = True
    try:
        measured = workload.run(state, tracer)
    finally:
        if tracer is not None:
            tracer.enabled = False
    return measured, _gc_collections() - collections


def _slices(values: List[int]) -> List[List[int]]:
    """``values`` cut into ``SLICES`` runs of equal length, in order."""
    size = len(values) // SLICES
    return [values[i * size:(i + 1) * size] for i in range(SLICES)] if size else []


def _throughput(measured: Any) -> float:
    """Operations per host second: the median over ``SLICES`` equal-count
    slices of the region where the harness sees operations start, the
    whole region otherwise (the crash sweep is one library call)."""
    stamps = measured.stamps_ns
    size = (len(stamps) - 1) // SLICES
    if size < 1:
        return measured.attempted / (measured.wall_ns / 1e9)
    return statistics.median(
        size / ((stamps[(i + 1) * size] - stamps[i * size]) / 1e9) for i in range(SLICES)
    )


def latency_metrics(workload: Any, measured: Any) -> Dict[str, float]:
    """Host latencies in us, none of them gated by the driver (their
    run-to-run spread on a shared host is wider than any bound).

    The served workload has requests a user waits for: ``req_p50_us`` /
    ``req_p99_us`` are the medians, over ``SLICES`` slices of the
    region, of each slice's percentile of send -> reply (the whole
    region's percentile when a slice would hold under 100 samples).  On
    the library workloads the harness only sees operations start; the
    ``op_*`` numbers are percentiles of one operation's start to the
    next one's, for the workload's primary kind."""
    ordered = sorted(measured.latencies_ns)
    if not ordered:
        return {}
    if not workload.has_requests:
        return {"op_p50_us": percentile(ordered, 50) / 1e3,
                "op_p99_us": percentile(ordered, 99) / 1e3, "op_samples": len(ordered)}
    slices = [sorted(part) for part in _slices(measured.latencies_ns)]
    if not slices or len(slices[0]) < 100:
        slices = [ordered]
    return {
        "req_p50_us": statistics.median(percentile(part, 50) for part in slices) / 1e3,
        "req_p99_us": statistics.median(percentile(part, 99) for part in slices) / 1e3,
        "req_p999_us": percentile(ordered, 99.9) / 1e3,
        "req_whole_region_p99_us": percentile(ordered, 99) / 1e3,
        "req_samples": len(ordered),
    }


def run_plain(workload: Any, seed: int, ops: int) -> Dict[str, Any]:
    calib_ms = calibration_cell()
    state, setups = timed_setups(workload, seed, ops, repeat=True)
    measured, collections = timed_region(workload, state)
    peak_rss = _peak_rss_mb()
    violations, extra = workload.verify(state, measured)
    backend = _backend(workload.live(state)[0])
    workload.close(state)

    metrics: Dict[str, Optional[float]] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": _throughput(measured),
        "peak_rss_mb": peak_rss,
    }
    info = count_metrics(measured, extra)
    info.update(latency_metrics(workload, measured))
    info.update({
        "region_s": measured.wall_ns / 1e9,
        "setup_repeats": len(setups),
        "bench.calib_ms": calib_ms,
        "bench.gc_collections": collections,
    })
    return {
        "measured": measured, "violations": violations, "metrics": metrics, "info": info,
        "backend": backend,
    }


def run_traced(workload: Any, seed: int, ops: int, raw_path: Path) -> Dict[str, Any]:
    calib_ms = calibration_cell()
    inner_ns, outer_ns = calibrate()
    state, _ = timed_setups(workload, seed, ops, repeat=False)
    plain, _ = timed_region(workload, state)
    devices, engines = workload.live(state)
    backend = _backend(devices)
    workload.close(state)
    del state

    # the program caches bound methods when it builds its stack (the
    # heap's device-read and on-read fast paths), so the spans go in
    # before the traced leg's setup and stay disabled until its region
    tracer = Tracer()
    install_repo_spans(tracer, devices, engines, getattr(workload, "check_workload", None))
    del devices, engines
    try:
        state, _ = timed_setups(workload, seed, ops, repeat=False)
        traced, collections = timed_region(workload, state, tracer)
    finally:
        tracer.uninstall()
    violations, extra = workload.verify(state, traced)
    workload.close(state)

    same = (
        plain.counts == traced.counts
        and plain.sim_ns_per_op == traced.sim_ns_per_op
        and plain.sim_p99_us == traced.sim_p99_us
        and plain.attempted == traced.attempted
    )
    if not same:
        differing = sorted(
            name for name in set(plain.counts) | set(traced.counts)
            if plain.counts.get(name) != traced.counts.get(name)
        )
        violations.append(f"tracing changed the simulation (differs: {differing or 'sim_*'})")

    metrics = span_metrics(tracer, traced, inner_ns, outer_ns)
    metrics.update(count_metrics(traced, extra))
    # what a user waits for is measured without spans: the plain leg's
    latency = latency_metrics(workload, plain)
    metrics["req_p50_us"] = latency.get("req_p50_us")
    metrics["req_p99_us"] = latency.get("req_p99_us")
    metrics["bench.trace_overhead_frac"] = _throughput(plain) / _throughput(traced) - 1.0
    metrics["bench.calib_ms"] = calib_ms
    metrics["bench.gc_collections"] = collections
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    raw_spans = tracer.write_raw(raw_path)
    info = {
        "plain_region_s": plain.wall_ns / 1e9,
        "traced_region_s": traced.wall_ns / 1e9,
        "span_inner_ns": inner_ns,
        "span_outer_ns": outer_ns,
        "spans": tracer.total_calls(),
        "raw_spans_written": raw_spans,
        # what the calibration is worth: traced wall minus the estimated
        # cost of the spans, over the plain wall (1.0 = exact)
        "overhead_model_ratio": (
            traced.wall_ns - metrics["bench.span_overhead_us_per_op"] * 1e3 * traced.attempted
        ) / plain.wall_ns,
    }
    return {
        "measured": traced, "violations": violations, "metrics": metrics, "info": info,
        "backend": backend, "span_table": tracer.span_table()[:40],
        "missing_spans": tracer.missing,
    }


def _emit(name: str, value: Optional[float], unit: str) -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"{name:<40} {shown:>14} {unit}")


def one_run(workload_name: str, seed: int, seconds: float, trace: bool, scale: float,
            out_dir: Path) -> int:
    workload = WORKLOADS[workload_name]()
    ops = workload.ops_for(seconds, scale)
    if trace:
        ops = max(1, round(ops * TRACE_FRACTION))
        result = run_traced(workload, seed, ops,
                            out_dir / f"{workload_name}-seed{seed}.trace.jsonl")
        declared = spec.per_layer()
    else:
        result = run_plain(workload, seed, ops)
        declared = spec.end_to_end()
    measured = result["measured"]
    correct = not result["violations"] and measured.failed == 0
    failed = measured.failed + (len(result["violations"]) if measured.failed == 0 else 0)

    print(f"# {workload_name} seed={seed} seconds={seconds:g} scale={scale:g} "
          f"trace={int(trace)} ops={ops} ({workload.op_unit}) backend={result['backend']}")
    values = result["metrics"]
    for name, entry in declared.items():
        _emit(name, values.get(name), entry["unit"])
    for name in sorted(result["info"]):
        if result["info"][name] is not None:
            _emit(name, result["info"][name], "")
    for violation in result["violations"]:
        print(f"VIOLATION: {violation}")
    missing = sorted(set(workload.missing) | set(result.get("missing_spans", ())))
    if missing:
        print(f"# missing_probes: {', '.join(missing)}")

    document = {
        "schema": "perfbench/1",
        "workload": workload_name, "seed": seed, "seconds": seconds, "scale": scale,
        "trace": int(trace), "ops": ops, "op_unit": workload.op_unit,
        "host": {
            "python": platform.python_version(), "machine": platform.machine(),
            "cpu_count": os.cpu_count(), "nvm_backend": result["backend"],
        },
        "correct": correct, "attempted": measured.attempted, "failed": failed,
        "violations": result["violations"],
        "metrics": {name: {"value": values.get(name), "unit": entry["unit"]}
                    for name, entry in declared.items()},
        "info": result["info"],
        "counts": measured.counts,
        "missing_probes": missing,
        "span_table": result.get("span_table"),
        "claim": None,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{workload_name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")

    # the driver's contract: last line, exactly these keys, numbers only
    # (a per-layer metric that does not apply to this workload reads 0)
    print(json.dumps({
        "correct": correct,
        "attempted": measured.attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name) or 0.0, "unit": entry["unit"]}
                    for name, entry in declared.items()},
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench",
        description="Run one workload of the benchmark in this process.",
    )
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length the operation count is sized for "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every operation count (smoke tests use 0.01)")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out",
                        help="directory for the run's JSON document and raw trace")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else spec.run_seconds()
    return one_run(args.workload, args.seed, seconds, bool(args.trace), args.scale, args.out)
