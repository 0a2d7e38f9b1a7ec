"""NVMStats arithmetic and the latency-model cost conversion."""

import pytest

from repro.nvm import DRAM, NVDIMM, PCM_LIKE, NVMStats, profile


class TestCounters:
    def test_reset(self):
        s = NVMStats(loads=5, store_bytes=100, fences=2)
        s.reset()
        assert s.loads == 0 and s.store_bytes == 0 and s.fences == 0

    def test_snapshot_is_independent(self):
        s = NVMStats(loads=1)
        snap = s.snapshot()
        s.loads = 10
        assert snap.loads == 1

    def test_delta(self):
        s = NVMStats(loads=10, copy_bytes=500)
        base = NVMStats(loads=4, copy_bytes=100)
        d = s.delta(base)
        assert d.loads == 6 and d.copy_bytes == 400

    def test_total_bytes(self):
        s = NVMStats(load_bytes=10, store_bytes=20, copy_bytes=30)
        assert s.total_bytes == 60


class TestCostConversion:
    def test_zero_stats_cost_zero(self):
        assert NVMStats().simulated_ns(NVDIMM) == 0

    def test_costs_scale_with_model(self):
        s = NVMStats(store_bytes=1024, flushed_lines=16, fences=1, copy_bytes=1024)
        assert s.simulated_ns(PCM_LIKE) > s.simulated_ns(NVDIMM) > 0

    def test_line_rounding(self):
        one_byte = NVMStats(load_bytes=1)
        full_line = NVMStats(load_bytes=64)
        assert one_byte.simulated_ns(NVDIMM) == full_line.simulated_ns(NVDIMM)

    def test_profile_lookup(self):
        assert profile("nvdimm") is NVDIMM
        assert profile("dram") is DRAM
        with pytest.raises(KeyError):
            profile("optane9000")

    def test_model_helpers(self):
        assert NVDIMM.copy_ns(1000) == pytest.approx(1000 * NVDIMM.byte_copy_ns)
        assert NVDIMM.flush_ns(65) == pytest.approx(2 * NVDIMM.flush_line_ns)
