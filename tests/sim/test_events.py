"""Event simulator: ordering, determinism, cancellation, bounds."""

import pytest

from repro.sim import EventSimulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(30, fired.append, "c")
        sim.schedule(10, fired.append, "a")
        sim.schedule(20, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        sim = EventSimulator()
        fired = []
        for tag in "abcde":
            sim.schedule(5, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_now_advances(self):
        sim = EventSimulator()
        times = []
        sim.schedule(10, lambda: times.append(sim.now))
        sim.schedule(25, lambda: times.append(sim.now))
        sim.run()
        assert times == [10, 25]

    def test_nested_scheduling(self):
        sim = EventSimulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5, lambda: fired.append(("inner", sim.now)))

        sim.schedule(10, outer)
        sim.run()
        assert fired == [("outer", 10), ("inner", 15)]

    def test_negative_delay_rejected(self):
        sim = EventSimulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_at_absolute_time(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(10, lambda: sim.at(30, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [30]

    def test_at_in_the_past_clamps_to_now(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(10, lambda: sim.at(5, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [10]

    def test_coalesced_batch_restores_clock_after_inline_advance(self):
        """The fast path pops same-timestamp events as one batch, but a
        callback may advance the shared clock inline (cost charging);
        every event in the batch must still observe its scheduled time."""
        sim = EventSimulator()
        observed = []

        def charge_and_record(tag):
            observed.append((tag, sim.now))
            sim.clock.now += 7  # inline cost charged on the shared clock

        for tag in "abc":
            sim.schedule(10, charge_and_record, tag)
        sim.schedule(20, lambda: observed.append(("late", sim.now)))
        sim.run()
        assert observed == [("a", 10), ("b", 10), ("c", 10), ("late", 20)]

    def test_zero_delay_events_fire_within_the_batch(self):
        sim = EventSimulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(10, outer)
        sim.schedule(10, lambda: fired.append(("peer", sim.now)))
        sim.run()
        assert fired == [("outer", 10), ("peer", 10), ("inner", 10)]


class TestControl:
    def test_cancel(self):
        sim = EventSimulator()
        fired = []
        ev = sim.schedule(10, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_run_until(self):
        sim = EventSimulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(50, fired.append, "b")
        sim.run(until=20)
        assert fired == ["a"]
        assert sim.now == 20
        sim.run()
        assert fired == ["a", "b"]

    def test_max_events(self):
        sim = EventSimulator()
        fired = []
        for i in range(5):
            sim.schedule(i + 1, fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1]

    def test_pending_count(self):
        sim = EventSimulator()
        a = sim.schedule(1, lambda: None)
        sim.schedule(2, lambda: None)
        a.cancel()
        assert sim.pending == 1

    def test_determinism_across_runs(self):
        def trial():
            sim = EventSimulator()
            out = []
            sim.schedule(5, lambda: (out.append("x"), sim.schedule(0, out.append, "y")))
            sim.schedule(5, out.append, "z")
            sim.run()
            return out

        assert trial() == trial()
