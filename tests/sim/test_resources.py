"""FIFO servers, bandwidth, and engine cost-model lookup."""

import pytest

from repro.runtime.registry import engine_info
from repro.sim import BandwidthResource, FIFOServer, cost_model_for


class TestFIFOServer:
    def test_idle_server_serves_immediately(self):
        s = FIFOServer("s")
        assert s.request(arrival=100, service_ns=50) == 150

    def test_queueing_behind_busy_server(self):
        s = FIFOServer("s")
        s.request(0, 100)
        assert s.request(10, 50) == 150  # waits until 100

    def test_idle_gap_is_not_worked_through(self):
        s = FIFOServer("s")
        s.request(0, 10)
        assert s.request(100, 10) == 110  # server idle 10..100

    def test_negative_service_rejected(self):
        s = FIFOServer("s")
        with pytest.raises(ValueError):
            s.request(0, -1)

    def test_utilization(self):
        s = FIFOServer("s")
        s.request(0, 50)
        assert s.utilization(100) == pytest.approx(0.5)

    def test_reset(self):
        s = FIFOServer("s")
        s.request(0, 100)
        s.reset()
        assert s.request(0, 10) == 10


class TestBandwidth:
    def test_transfer_time_scales_with_bytes(self):
        bw = BandwidthResource(bandwidth_gbps=1.0)  # 1 byte/ns
        assert bw.transfer(0, 1000) == 1000

    def test_contention_queues(self):
        bw = BandwidthResource(bandwidth_gbps=1.0)
        bw.transfer(0, 1000)
        assert bw.transfer(0, 1000) == 2000

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            BandwidthResource(0)


class TestCostModels:
    def test_undo_is_serialized_and_copies(self):
        m = cost_model_for("undo")
        assert m.serial_ns_per_intent > 0
        assert m.serial_includes_copy
        assert not engine_info("undo").capabilities.locks_released_after_sync

    def test_kamino_variants_share_model(self):
        simple = cost_model_for("kamino-simple")
        dynamic = cost_model_for("kamino-dynamic-30")
        assert simple is dynamic
        assert engine_info("kamino-dynamic-30").capabilities.locks_released_after_sync
        assert simple.serial_ns_per_intent < cost_model_for("undo").serial_ns_per_intent

    def test_unknown_engine_gets_neutral_model(self):
        m = cost_model_for("exotic")
        assert m.serial_ns_per_intent == 0
