"""Admission control: the front door's load-shedding brain.

Converts the cluster's health signals — the chain circuit breaker /
write-quorum loss behind :attr:`ChainCluster.degraded`, and the bounded
pipeline window — into one of two outcomes *before* a request touches
the cluster:

* **reject** (the default): a typed
  :class:`~repro.errors.AdmissionRejected` carrying ``retry_after_ns``
  (the aggregated :meth:`retry_after_ns` hint), surfaced on the wire as
  ``-RETRY-AFTER`` so well-behaved clients back off for exactly the
  breaker's remaining cooldown instead of hammering it;
* **queue**: the request is parked (bounded by ``queue_limit``) and the
  simulator is run forward until the breaker closes — the server-side
  queue-and-readmit path.  Breaker transitions also arrive via
  :meth:`ChainCluster.add_degradation_listener`, so the controller's
  counters record every open/close edge it lived through.

Pipelined bursts are additionally bounded by ``max_inflight``: commands
beyond the window in one batch are shed with the same typed error (a
hint of one cluster round-trip), which keeps one greedy connection from
starving the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import AdmissionRejected, ServeError


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for :class:`AdmissionController`."""

    #: pipeline window: mutating commands admitted per batch
    max_inflight: int = 64
    #: concurrent holders of the queue-and-readmit path
    queue_limit: int = 16
    #: "reject" (typed RETRY-AFTER) or "queue" (park until the breaker
    #: closes, bounded by ``max_wait_ns``)
    policy: str = "reject"
    #: give up on a queued request after this much virtual waiting
    max_wait_ns: float = 50_000_000.0
    #: retry hint when the cluster offers none (overload shedding)
    default_retry_after_ns: float = 400_000.0


class AdmissionController:
    """Gate requests against cluster degradation and pipeline bounds."""

    def __init__(self, cluster, config: Optional[AdmissionConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else AdmissionConfig()
        if self.config.policy not in ("reject", "queue"):
            raise ServeError(
                f"unknown admission policy '{self.config.policy}'"
            )
        self.queued_now = 0
        # counters (the METRICS endpoint's admission block)
        self.admitted = 0
        self.rejected_degraded = 0
        self.rejected_overload = 0
        self.queued = 0
        self.readmitted = 0
        self.queue_overflow = 0
        self.shed_after_wait = 0
        #: (virtual time, degraded?) breaker transitions observed
        self.breaker_events: List[Tuple[float, bool]] = []
        cluster.add_degradation_listener(self._on_breaker)

    # -- signals ---------------------------------------------------------------

    def _on_breaker(self, _group, degraded: bool) -> None:
        self.breaker_events.append((self.cluster.sim.now, bool(degraded)))

    def retry_after_hint(self) -> float:
        hint = self.cluster.retry_after_ns()
        if hint is None or hint <= 0.0:
            hint = self.config.default_retry_after_ns
        return hint

    # -- the gate --------------------------------------------------------------

    def admit(self, batch_index: int = 0) -> None:
        """Admit one mutating command, or raise
        :class:`~repro.errors.AdmissionRejected`.

        ``batch_index`` is the command's position in its pipelined
        batch; positions at or beyond ``max_inflight`` are shed
        outright (the bounded pipeline window).
        """
        if batch_index >= self.config.max_inflight:
            self.rejected_overload += 1
            raise AdmissionRejected(
                f"pipeline window full ({self.config.max_inflight} in flight)",
                retry_after_ns=self.config.default_retry_after_ns,
            )
        if self.cluster.degraded:
            if self.config.policy == "queue":
                self._hold()
            else:
                self.rejected_degraded += 1
                raise AdmissionRejected(
                    "cluster degraded (circuit breaker open or below "
                    "write quorum)",
                    retry_after_ns=self.retry_after_hint(),
                )
        self.admitted += 1

    def _hold(self) -> None:
        """The queue-and-readmit path: park (bounded), run virtual time
        forward past the breaker's cooldown, then readmit."""
        if self.queued_now >= self.config.queue_limit:
            self.queue_overflow += 1
            raise AdmissionRejected(
                f"admission queue full ({self.config.queue_limit} parked)",
                retry_after_ns=self.retry_after_hint(),
            )
        self.queued += 1
        self.queued_now += 1
        waited = 0.0
        sim = self.cluster.sim
        try:
            while self.cluster.degraded:
                hint = self.retry_after_hint()
                if waited + hint > self.config.max_wait_ns:
                    self.shed_after_wait += 1
                    raise AdmissionRejected(
                        f"still degraded after {waited:.0f}ns parked",
                        retry_after_ns=hint,
                    )
                # run the shared simulator to the readmit horizon: heals,
                # breaker cooldowns and listener callbacks all fire here
                sim.run(until=sim.now + hint)
                waited += hint
            self.readmitted += 1
        finally:
            self.queued_now -= 1

    # -- metrics ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "policy": self.config.policy,
            "admitted": self.admitted,
            "rejected_degraded": self.rejected_degraded,
            "rejected_overload": self.rejected_overload,
            "queued": self.queued,
            "readmitted": self.readmitted,
            "queue_overflow": self.queue_overflow,
            "shed_after_wait": self.shed_after_wait,
            "breaker_transitions": len(self.breaker_events),
        }
