"""Primitive-operation counters for the simulated NVM device.

The device increments these counters on every access.  A transaction is
priced from *marks*: :attr:`NVMStats.mark` reads the six counters that
carry a cost into one tuple (one C call, no object built), and
:func:`interval_cost` turns the counters between two marks into
simulated nanoseconds with a :class:`~repro.nvm.latency.LatencyModel`.
:meth:`NVMStats.snapshot` and :meth:`NVMStats.delta` stay for callers
that want every counter, media accounting included.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, ClassVar, Tuple

from .latency import CACHE_LINE, LatencyModel

#: the counters that price an interval, in the order a mark holds them
PRICED = ("load_bytes", "store_bytes", "copy_bytes", "flushed_lines", "flush_bursts", "fences")

#: what :attr:`NVMStats.mark` returns: the :data:`PRICED` counters
Mark = Tuple[int, int, int, int, int, int]

#: the mark of fresh (or reset) counters
ZERO_MARK: Mark = (0, 0, 0, 0, 0, 0)


def interval_cost(since: Mark, now: Mark, model: LatencyModel) -> Tuple[float, int, int]:
    """``(simulated_ns, total_bytes, copy_bytes)`` of the counters
    accumulated between two marks: the program's one pricing formula.

    Loads and stores are charged per touched cache line; flushes per
    flushed line; copies per byte.  This is a serial-time estimate; the
    event simulator layers queueing for shared bandwidth on top.
    :meth:`NVMStats.simulated_ns` is this from :data:`ZERO_MARK`, so
    ``delta.simulated_ns(model)``, ``delta.total_bytes`` and
    ``delta.copy_bytes`` of the same interval's :meth:`NVMStats.delta`
    are bit-identical to it: the same integer deltas enter the same
    float expression in the same order.
    """
    load0, store0, copy0, lines0, bursts0, fences0 = since
    load1, store1, copy1, lines1, bursts1, fences1 = now
    load_bytes = load1 - load0
    store_bytes = store1 - store0
    copy_bytes = copy1 - copy0
    flushed_lines = lines1 - lines0
    # Without a coalescing device every flushed line is its own burst
    # (the device keeps bursts == lines), so this reduces to lines *
    # flush_line_ns.  Counters built by hand with no burst information
    # fall back to the same uncoalesced pricing.
    bursts = bursts1 - bursts0
    if not bursts:
        bursts = flushed_lines
    load_lines = (load_bytes + CACHE_LINE - 1) // CACHE_LINE if load_bytes else 0
    store_lines = (store_bytes + CACHE_LINE - 1) // CACHE_LINE if store_bytes else 0
    ns = (
        load_lines * model.read_line_ns
        + store_lines * model.write_line_ns
        + bursts * model.flush_line_ns
        + (flushed_lines - bursts) * model.effective_burst_line_ns()
        + (fences1 - fences0) * model.fence_ns
        + copy_bytes * model.byte_copy_ns
    )
    return ns, load_bytes + store_bytes + copy_bytes, copy_bytes


@dataclass(slots=True)
class NVMStats:
    """Counters of device primitives since construction (or last reset)."""

    loads: int = 0
    load_bytes: int = 0
    stores: int = 0
    store_bytes: int = 0
    flushes: int = 0
    flushed_lines: int = 0
    flush_bursts: int = 0
    fences: int = 0
    copies: int = 0
    copy_bytes: int = 0
    # media-fault accounting (repro.integrity): injected bit flips, lines
    # declared dead, corruptions detected by checksum verification, and
    # lines repaired from a surviving copy.  Bookkeeping only — these do
    # not contribute to simulated_ns (a latent fault costs no time until
    # a scrub or repair issues real device operations, which are charged
    # through the ordinary counters).
    media_flips: int = 0
    media_dead: int = 0
    media_detected: int = 0
    media_repaired: int = 0
    # adversarial stale-CRC replays injected (line + matching stale
    # checksum rewritten together — consistent corruption the per-line
    # sidecar cannot see; detection is the integrity tree's job)
    media_stale: int = 0

    #: ``NVMStats.mark(stats)``: the :data:`PRICED` counters as a tuple,
    #: the cheap bound of an interval :func:`interval_cost` prices
    mark: ClassVar[Callable[["NVMStats"], Mark]] = attrgetter(*PRICED)

    def reset(self) -> None:
        """Zero every counter in place."""
        self.loads = 0
        self.load_bytes = 0
        self.stores = 0
        self.store_bytes = 0
        self.flushes = 0
        self.flushed_lines = 0
        self.flush_bursts = 0
        self.fences = 0
        self.copies = 0
        self.copy_bytes = 0
        self.media_flips = 0
        self.media_dead = 0
        self.media_detected = 0
        self.media_repaired = 0
        self.media_stale = 0

    def snapshot(self) -> "NVMStats":
        """Return an independent copy of the current counters."""
        return NVMStats(
            self.loads,
            self.load_bytes,
            self.stores,
            self.store_bytes,
            self.flushes,
            self.flushed_lines,
            self.flush_bursts,
            self.fences,
            self.copies,
            self.copy_bytes,
            self.media_flips,
            self.media_dead,
            self.media_detected,
            self.media_repaired,
            self.media_stale,
        )

    def delta(self, since: "NVMStats") -> "NVMStats":
        """Return counters accumulated since the ``since`` snapshot."""
        return NVMStats(
            self.loads - since.loads,
            self.load_bytes - since.load_bytes,
            self.stores - since.stores,
            self.store_bytes - since.store_bytes,
            self.flushes - since.flushes,
            self.flushed_lines - since.flushed_lines,
            self.flush_bursts - since.flush_bursts,
            self.fences - since.fences,
            self.copies - since.copies,
            self.copy_bytes - since.copy_bytes,
            self.media_flips - since.media_flips,
            self.media_dead - since.media_dead,
            self.media_detected - since.media_detected,
            self.media_repaired - since.media_repaired,
            self.media_stale - since.media_stale,
        )

    def simulated_ns(self, model: LatencyModel) -> float:
        """These counters in simulated nanoseconds (see
        :func:`interval_cost`)."""
        return interval_cost(ZERO_MARK, NVMStats.mark(self), model)[0]

    @property
    def total_bytes(self) -> int:
        """All bytes moved to or from the media (loads+stores+copies)."""
        return self.load_bytes + self.store_bytes + self.copy_bytes
