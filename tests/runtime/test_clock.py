"""SimClock: the unified virtual time source."""

from repro.runtime import ClockSnapshot, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_reset_contract(self):
        clock = SimClock()
        clock.now = 42.0
        clock.reset()
        assert clock.now == 0.0

    def test_snapshot_is_immutable_view(self):
        clock = SimClock()
        clock.now = 10.0
        snap = clock.snapshot()
        assert snap == ClockSnapshot(now=10.0)
        clock.now += 5.0
        assert snap.now == 10.0  # frozen
        assert clock.snapshot().delta(snap) == 5.0


class TestEventSimulatorBinding:
    def test_shared_clock_sees_event_time(self):
        from repro.sim.events import EventSimulator

        clock = SimClock()
        sim = EventSimulator(clock=clock)
        fired = []
        sim.schedule(120.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [120.0]
        assert clock.now == 120.0

    def test_inline_advance_visible_to_simulator(self):
        from repro.sim.events import EventSimulator

        clock = SimClock()
        sim = EventSimulator(clock=clock)
        clock.now += 500.0
        assert sim.now == 500.0
        event = sim.schedule(10.0, lambda: None)
        assert event.time == 510.0

    def test_standalone_simulator_unchanged(self):
        from repro.sim.events import EventSimulator

        sim = EventSimulator()
        sim.schedule(30.0, lambda: None)
        sim.run()
        assert sim.now == 30.0
