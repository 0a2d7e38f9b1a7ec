"""FIFO servers, bandwidth, and what an engine's write intent costs."""

import pytest

from repro.sim import BandwidthResource, FIFOServer
from repro.sim.resources import LOG_ARENA_NS_PER_INTENT, LockCost, serial_ns_per_intent
from repro.tx import (
    CoWEngine,
    ObjectLockTable,
    StripedLockTable,
    UndoLogEngine,
    kamino_dynamic,
    kamino_finegrained,
    kamino_simple,
)


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
    """Read from the engine: its lock table's op, plus log-arena
    management on an engine with a log data arena."""

    def test_lock_tables_own_the_lock_op(self):
        assert ObjectLockTable.cost == LockCost(serial_ns=40.0)
        assert StripedLockTable.cost == LockCost(serial_ns=8.0, local_ns=32.0)

    def test_undo_is_serialized_and_copies(self):
        assert LOG_ARENA_NS_PER_INTENT == 860.0
        for engine in (UndoLogEngine(), CoWEngine()):
            assert engine.log_data_bytes > 0
            assert serial_ns_per_intent(engine) == 900.0

    def test_kamino_variants_share_model(self):
        simple = kamino_simple()
        dynamic = kamino_dynamic(alpha=0.3)
        assert simple.log_data_bytes == dynamic.log_data_bytes == 0
        assert serial_ns_per_intent(simple) == serial_ns_per_intent(dynamic) == 40.0
        assert serial_ns_per_intent(kamino_finegrained()) == 8.0
