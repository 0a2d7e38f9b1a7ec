"""Benchmark harness: per-op records, online scheduling, shape checks."""

import pytest

from repro.bench.report import format_table, speedup_note
from repro.bench.tco import CostModel, normalized_ops_per_dollar, provisioned_gb
from repro.nvm.latency import NVDIMM
from repro.runtime import ExecutionContext, run_online
from repro.workloads import YCSBWorkload

from ..conftest import spy_lock_sets


def small_run(engine="kamino-simple", workload="A", nthreads=1, nops=300, sets=None):
    """One small YCSB run online; returns the context (its ``records``)
    and the scheduler's result.  ``sets``, when a list, gains each
    record's committed ``(write_set, read_set)``."""
    ctx = ExecutionContext.create(engine, value_size=256, heap_mb=16)
    wl = YCSBWorkload(workload, 200, 256)
    wl.load(ctx.kv)
    ctx.reset()
    if sets is not None:
        spy_lock_sets(ctx, sets)
    ops = list(wl.run_ops(nops))
    result = run_online(ctx, ops, lambda op: wl.execute(ctx.kv, op), nthreads)
    return ctx, result


def small_trace(engine="kamino-simple", workload="A", nops=300):
    return small_run(engine, workload, nops=nops)[0].records


class TestTraceCollector:
    def test_records_one_per_op(self):
        records = small_trace(nops=100)
        assert len(records) == 100

    def test_kamino_trace_splits_crit_and_async(self):
        records = small_trace("kamino-simple")
        updates = [r for r in records if r.kind == "update"]
        assert updates
        assert all(r.async_ns > 0 for r in updates)
        assert all(r.crit_copy_bytes == 0 for r in updates)

    def test_undo_trace_has_no_async_but_copies(self):
        records = small_trace("undo")
        updates = [r for r in records if r.kind == "update"]
        assert all(r.async_ns == 0 for r in updates)
        assert all(r.crit_copy_bytes > 0 for r in updates)

    def test_reads_have_empty_write_sets(self):
        sets = []
        records = small_run(sets=sets)[0].records
        reads = [s for r, s in zip(records, sets, strict=True) if r.kind == "read"]
        assert reads
        assert all(not write_set for write_set, _read_set in reads)
        assert all(read_set for _write_set, read_set in reads)

    def test_kamino_updates_cheaper_critical_path(self):
        k = small_trace("kamino-simple")
        u = small_trace("undo")
        k_up = [r.crit_ns for r in k if r.kind == "update"]
        u_up = [r.crit_ns for r in u if r.kind == "update"]
        assert sum(k_up) / len(k_up) < sum(u_up) / len(u_up)


class TestReplay:
    def test_all_ops_complete(self):
        ctx, result = small_run(nthreads=4)
        assert result.ops == len(ctx.records) == 300
        assert result.duration_ns > 0

    def test_more_threads_more_throughput_read_only(self):
        _, r1 = small_run(workload="C", nthreads=1)
        _, r8 = small_run(workload="C", nthreads=8)
        assert r8.throughput_kops > 4 * r1.throughput_kops

    def test_single_thread_latency_matches_trace(self):
        ctx, r = small_run(workload="C", nthreads=1)
        records = ctx.records
        expect = sum(rec.crit_ns for rec in records) / len(records) / 1e3
        assert r.mean_latency_us == pytest.approx(expect, rel=0.1)

    def test_invalid_threads(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        with pytest.raises(ValueError):
            run_online(ctx, [], lambda op: None, 0)

    def test_deterministic(self):
        _, a = small_run(nthreads=4)
        _, b = small_run(nthreads=4)
        assert a.duration_ns == b.duration_ns
        assert a.latencies_ns == b.latencies_ns

    def test_percentiles_monotone(self):
        _, r = small_run(nthreads=4)
        assert (
            r.percentile_latency_us(50)
            <= r.percentile_latency_us(95)
            <= r.percentile_latency_us(99)
        )


class TestPaperShapes:
    """The headline comparisons the evaluation section rests on."""

    def test_kamino_beats_undo_on_write_heavy(self):
        _, k = small_run("kamino-simple", "A", nthreads=4)
        _, u = small_run("undo", "A", nthreads=4)
        assert k.throughput_kops > 1.2 * u.throughput_kops
        assert k.mean_latency_us < u.mean_latency_us

    def test_parity_on_read_only(self):
        _, k = small_run("kamino-simple", "C", nthreads=4)
        _, u = small_run("undo", "C", nthreads=4)
        assert k.throughput_kops == pytest.approx(u.throughput_kops, rel=0.05)

    def test_gap_grows_with_threads(self):
        ratios = []
        for n in (2, 8):
            _, k = small_run("kamino-simple", "A", nthreads=n)
            _, u = small_run("undo", "A", nthreads=n)
            ratios.append(k.throughput_kops / u.throughput_kops)
        assert ratios[1] > ratios[0]


class TestTCO:
    def test_provisioning_multiples(self):
        assert provisioned_gb(10, "undo") == 10
        assert provisioned_gb(10, "kamino-simple") == 20
        assert provisioned_gb(10, "kamino-dynamic-30", alpha=0.3) == pytest.approx(13)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            provisioned_gb(10, "raid")

    def test_normalization_base_is_one(self):
        series = {"undo": 100.0, "kamino-simple": 200.0}
        norm = normalized_ops_per_dollar(series, 10, alphas={})
        assert norm["undo"] == 1.0
        assert norm["kamino-simple"] > 1.0

    def test_storage_cost_penalises_full_mirror(self):
        # equal throughput => the mirror's extra NVM must cost it
        series = {"undo": 100.0, "kamino-simple": 100.0}
        norm = normalized_ops_per_dollar(series, 50, alphas={})
        assert norm["kamino-simple"] < 1.0


class TestReport:
    def test_format_table_alignment(self):
        out = format_table("T", ["a", "bb"], [[1, 2.5], [30, 4.0]])
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_speedup_note(self):
        note = speedup_note("undo", {"undo": 2.0, "kamino": 5.0})
        assert "2.50x" in note
