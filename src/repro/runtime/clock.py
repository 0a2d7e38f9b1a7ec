"""The unified virtual clock every runtime layer charges.

Before the :mod:`repro.runtime` refactor each layer kept its own notion
of virtual time: the device counted primitives, the benchmark harness
re-derived nanoseconds in a separate replay pass, and the replication
cluster ran its own :class:`~repro.sim.events.EventSimulator`.  A
:class:`SimClock` is the single time source an
:class:`~repro.runtime.context.ExecutionContext` hands to all of them:
the context's event simulator binds to it and drives it, so every
scheduled callback — the online scheduler's and the replication
cluster's — observes the same ``now``.

The uniform ``reset()`` / ``snapshot()`` contract (shared with
:class:`~repro.nvm.stats.NVMStats` and
:class:`~repro.sim.resources.FIFOServer`) lets a benchmark zero every
accounting surface between engine runs with one call and assert that no
counter leaked.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClockSnapshot:
    """An immutable point-in-time view of a :class:`SimClock`."""

    now: float

    def delta(self, since: "ClockSnapshot") -> float:
        """Nanoseconds elapsed since the ``since`` snapshot."""
        return self.now - since.now


class SimClock:
    """A monotonic virtual-nanosecond clock.

    ``now`` is a plain attribute so an
    :class:`~repro.sim.events.EventSimulator` can bind to the clock and
    drive it from its event queue, the one thing that moves it.
    """

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now: float = 0.0

    # -- uniform reset/snapshot contract ------------------------------------

    def reset(self) -> None:
        """Return to time zero (between benchmark runs)."""
        self.now = 0.0

    def snapshot(self) -> ClockSnapshot:
        """An independent, immutable copy of the current state."""
        return ClockSnapshot(now=self.now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimClock now={self.now:.1f}ns>"
