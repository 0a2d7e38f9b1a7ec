"""Benchmark runner glue: stack building and the YCSB matrix."""

import pytest

from repro.bench import run_tpcc_online, run_ycsb_matrix
from repro.nvm.latency import DRAM
from repro.runtime import ExecutionContext


class TestBuildStack:
    def test_stack_components_wired(self):
        stack = ExecutionContext.create("kamino-simple", value_size=256, heap_mb=4)
        assert stack.engine is stack.heap.engine
        assert stack.kv.heap is stack.heap
        assert stack.engine_name == "kamino-simple"

    def test_engine_kwargs_forwarded(self):
        stack = ExecutionContext.create("kamino-dynamic", value_size=256, heap_mb=4, alpha=0.25)
        assert stack.engine.name == "kamino-dynamic-25"

    def test_latency_model_applied(self):
        stack = ExecutionContext.create("undo", value_size=256, heap_mb=4, model=DRAM)
        assert stack.device.model is DRAM

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            ExecutionContext.create("quantum")


class TestMatrix:
    def test_cross_product_keys(self):
        results = run_ycsb_matrix(
            ["undo"], ["C"], nthreads_list=(1, 2), nrecords=40, nops=60,
            value_size=128,
        )
        assert set(results) == {("undo", "C", 1), ("undo", "C", 2)}
        for result in results.values():
            assert result.ops == 60

    def test_trace_shared_across_thread_counts(self):
        results = run_ycsb_matrix(
            ["kamino-simple"], ["C"], nthreads_list=(1, 4), nrecords=40, nops=60,
            value_size=128,
        )
        # read-only workload: 4 virtual clients must beat 1
        assert (
            results[("kamino-simple", "C", 4)].throughput_kops
            > results[("kamino-simple", "C", 1)].throughput_kops
        )


class TestTpccTrace:
    def test_records_produced(self):
        result = run_tpcc_online("undo", 4, nops=30)
        assert result.ops == 30
        assert set(result.latencies_by_kind) == {"tpcc"}
        # clients wait on each other's write locks: the mix writes shared rows
        assert result.dependent_waits > 0
