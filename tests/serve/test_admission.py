"""Admission control: typed rejection and pipeline bounds."""

import pytest

from repro.errors import AdmissionRejected
from repro.replication import KAMINO, ChainCluster
from repro.serve import AdmissionConfig, AdmissionController

_US = 1_000.0


def small_cluster(**kw):
    kw.setdefault("f", 1)
    kw.setdefault("mode", KAMINO)
    kw.setdefault("heap_mb", 2)
    kw.setdefault("value_size", 64)
    return ChainCluster(**kw)


class TestRejectPolicy:
    def test_healthy_cluster_admits(self):
        ctrl = AdmissionController(small_cluster())
        ctrl.admit()
        assert ctrl.admitted == 1

    def test_open_breaker_rejects_with_cooldown_hint(self):
        cluster = small_cluster()
        ctrl = AdmissionController(cluster)
        cluster.trip_breaker(cooldown_ns=500 * _US)
        with pytest.raises(AdmissionRejected) as exc:
            ctrl.admit()
        # the hint is the breaker's remaining cooldown, not a default
        assert 0 < exc.value.retry_after_ns <= 500 * _US
        assert ctrl.rejected_degraded == 1

    def test_closed_breaker_admits_again(self):
        cluster = small_cluster()
        ctrl = AdmissionController(cluster)
        cluster.trip_breaker()
        with pytest.raises(AdmissionRejected):
            ctrl.admit()
        cluster.close_breaker()
        ctrl.admit()
        assert ctrl.admitted == 1


class TestPipelineWindow:
    def test_positions_beyond_window_are_shed(self):
        ctrl = AdmissionController(
            small_cluster(), AdmissionConfig(max_inflight=2)
        )
        ctrl.admit(batch_index=0)
        ctrl.admit(batch_index=1)
        with pytest.raises(AdmissionRejected):
            ctrl.admit(batch_index=2)
        assert ctrl.rejected_overload == 1
        assert ctrl.admitted == 2


class TestBreakerEvents:
    def test_listener_records_open_and_close_edges(self):
        # the cluster counts the breaker's edges; a re-trip while open
        # and a close while shut are not edges
        cluster = small_cluster()
        cluster.trip_breaker()
        cluster.trip_breaker()
        cluster.close_breaker()
        cluster.close_breaker()
        assert cluster.breaker_transitions == 2
