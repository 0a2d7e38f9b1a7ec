"""Primitive-operation counters for the simulated NVM device.

The device increments these counters on every access; the benchmark
harness snapshots them around a transaction and converts the delta into
simulated nanoseconds with a :class:`~repro.nvm.latency.LatencyModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .latency import CACHE_LINE, LatencyModel


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
        """Return an independent copy of the current counters.

        Positional construction: this runs twice per simulated
        transaction, so it is one of the harness's hottest call sites.
        """
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
        """Convert these counters into simulated nanoseconds.

        Loads and stores are charged per touched cache line; flushes per
        flushed line; copies per byte.  This is a serial-time estimate; the
        event simulator layers queueing for shared bandwidth on top.
        """
        load_lines = (self.load_bytes + CACHE_LINE - 1) // CACHE_LINE if self.load_bytes else 0
        store_lines = (self.store_bytes + CACHE_LINE - 1) // CACHE_LINE if self.store_bytes else 0
        # Without a coalescing device every flushed line is its own burst
        # (the device keeps bursts == lines), so this reduces to the
        # original lines * flush_line_ns.  Counters built by hand with no
        # burst information fall back to the same uncoalesced pricing.
        bursts = self.flush_bursts if self.flush_bursts else self.flushed_lines
        burst_extra_lines = self.flushed_lines - bursts
        return (
            load_lines * model.read_line_ns
            + store_lines * model.write_line_ns
            + bursts * model.flush_line_ns
            + burst_extra_lines * model.effective_burst_line_ns()
            + self.fences * model.fence_ns
            + self.copy_bytes * model.byte_copy_ns
        )

    def cost_since(self, since: "NVMStats", model: LatencyModel) -> Tuple[float, int, int]:
        """``(simulated_ns, total_bytes, copy_bytes)`` of the counters
        accumulated since ``since``, without building the delta.

        Bit-identical to ``self.delta(since).simulated_ns(model)``,
        ``.total_bytes`` and ``.copy_bytes``: the same integer deltas
        enter the same float expression in the same order.
        """
        load_bytes = self.load_bytes - since.load_bytes
        store_bytes = self.store_bytes - since.store_bytes
        copy_bytes = self.copy_bytes - since.copy_bytes
        flushed_lines = self.flushed_lines - since.flushed_lines
        bursts = self.flush_bursts - since.flush_bursts
        if not bursts:
            bursts = flushed_lines
        load_lines = (load_bytes + CACHE_LINE - 1) // CACHE_LINE if load_bytes else 0
        store_lines = (store_bytes + CACHE_LINE - 1) // CACHE_LINE if store_bytes else 0
        ns = (
            load_lines * model.read_line_ns
            + store_lines * model.write_line_ns
            + bursts * model.flush_line_ns
            + (flushed_lines - bursts) * model.effective_burst_line_ns()
            + (self.fences - since.fences) * model.fence_ns
            + copy_bytes * model.byte_copy_ns
        )
        return ns, load_bytes + store_bytes + copy_bytes, copy_bytes

    @property
    def total_bytes(self) -> int:
        """All bytes moved to or from the media (loads+stores+copies)."""
        return self.load_bytes + self.store_bytes + self.copy_bytes
