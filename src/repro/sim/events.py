"""A deterministic discrete-event simulator.

Used by the benchmark harness (replaying transaction cost traces under
N concurrent clients) and by the replication layer (message-passing
replica state machines).  Determinism: events at equal timestamps fire
in scheduling order (a monotonic sequence number breaks ties), so every
run with the same inputs produces identical timelines.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Callable, args: Tuple):
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _FloatClock:
    """Default standalone time source (duck-typed like ``SimClock``)."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0


class EventSimulator:
    """Priority-queue event loop over virtual nanoseconds.

    ``clock`` may be any object with a writable ``now`` attribute —
    typically a :class:`repro.runtime.clock.SimClock` shared with an
    execution context, so inline cost charging and scheduled events
    observe the same virtual time.  Without one, the simulator keeps a
    private clock (the original behaviour).
    """

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else _FloatClock()
        #: ``(time, seq, event)`` heap: the unique ``seq`` settles every
        #: tie, so ordering is a tuple comparison done in C
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @now.setter
    def now(self, time_ns: float) -> None:
        self.clock.now = time_ns

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` ``delay`` ns from now; returns the event."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.clock.now + delay
        event = Event(time, fn, args)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        return event

    def at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn`` at an absolute virtual time >= now."""
        return self.schedule(max(0.0, time - self.clock.now), fn, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the queue (optionally bounded by time or event count).

        Returns the number of events processed.
        """
        # Local bindings: this loop dispatches every event of a
        # simulation, so attribute and property lookups are hoisted out.
        queue = self._queue
        heappop = heapq.heappop
        clock = self.clock
        processed = 0
        if until is None and max_events is None:
            while queue:
                now, _, event = heappop(queue)
                if event.cancelled:
                    continue
                clock.now = now
                event.fn(*event.args)
                processed += 1
                # coalesce the same-timestamp batch: everything already
                # due *now* (including events the callback just scheduled
                # at zero delay) pops in seq order right here.  The clock
                # store stays per-event — a callback may have advanced the
                # shared clock inline, and the contract is that each event
                # observes its own scheduled time.
                while queue and queue[0][0] == now:
                    event = heappop(queue)[2]
                    if event.cancelled:
                        continue
                    clock.now = now
                    event.fn(*event.args)
                    processed += 1
            self._processed += processed
            return processed
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time, _, event = queue[0]
            if until is not None and time > until:
                break
            heappop(queue)
            if event.cancelled:
                continue
            clock.now = time
            event.fn(*event.args)
            processed += 1
        if until is not None and (not queue or queue[0][0] > until):
            clock.now = max(clock.now, until)
        self._processed += processed
        return processed

    @property
    def pending(self) -> int:
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    @property
    def processed(self) -> int:
        return self._processed
