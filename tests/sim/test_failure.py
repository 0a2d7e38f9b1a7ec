"""Fail-point primitives every crash sweep stands on: the device's
scheduled crash and :func:`repro.parallel.count_mutating_ops`, which
counts a run's mutating operations against it."""

import pytest

import repro.parallel
from repro.errors import DeviceCrashedError
from repro.nvm import CrashPolicy, NVMDevice
from repro.parallel import count_mutating_ops


class TestCrashPoints:
    def test_counts_device_operations(self):
        device = NVMDevice(4096)

        def run():
            device.write(0, b"x" * 64)
            device.flush(0, 64)
            device.fence()

        assert count_mutating_ops(device, run) == 3
        assert device.scheduled_crash_remaining() is None  # disarmed

    def test_reads_do_not_tick(self):
        device = NVMDevice(4096)

        def run():
            device.write(0, b"x" * 8)
            device.read(0, 8)
            device.read(0, 8)

        assert count_mutating_ops(device, run) == 1

    def test_raises_when_bound_exceeded(self, monkeypatch):
        """A run longer than the budget crashes rather than miscounting."""
        monkeypatch.setattr(repro.parallel, "OP_BUDGET", 5)
        device = NVMDevice(4096)

        def run():
            for _ in range(10):
                device.write(0, b"x")

        with pytest.raises(DeviceCrashedError):
            count_mutating_ops(device, run)

    def test_uses_public_accessor(self):
        """The count comes from NVMDevice.scheduled_crash_remaining()."""
        device = NVMDevice(4096)
        assert device.scheduled_crash_remaining() is None
        device.schedule_crash(10, CrashPolicy.DROP_ALL)
        assert device.scheduled_crash_remaining() == 10
        device.write(0, b"x")
        assert device.scheduled_crash_remaining() == 9
        device.cancel_scheduled_crash()
        assert device.scheduled_crash_remaining() is None


class TestRunUntilCrash:
    def test_detects_scheduled_crash(self):
        device = NVMDevice(4096)
        device.schedule_crash(1)
        device.write(0, b"a")
        with pytest.raises(DeviceCrashedError):
            device.write(8, b"b")
        assert device.crashed

    def test_clean_run_returns_false(self):
        """A run that ends before its fail-point leaves the device up."""
        device = NVMDevice(4096)
        device.schedule_crash(5)
        device.write(0, b"a")
        assert not device.crashed
        assert device.scheduled_crash_remaining() == 4
