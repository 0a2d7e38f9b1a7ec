"""Admission control: the front door's load-shedding brain.

Converts the cluster's health signals — the chain circuit breaker /
write-quorum loss behind :attr:`ChainCluster.degraded`, and the bounded
pipeline window — into a typed
:class:`~repro.errors.AdmissionRejected` *before* a request touches the
cluster.  A degraded cluster's rejection carries ``retry_after_ns``
(the aggregated :meth:`retry_after_ns` hint), surfaced on the wire as
``-RETRY-AFTER`` so well-behaved clients back off for exactly the
breaker's remaining cooldown instead of hammering it.

Pipelined bursts are additionally bounded by ``max_inflight``: commands
beyond the window in one batch are shed with the same typed error (a
hint of one cluster round-trip), which keeps one greedy connection from
starving the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import AdmissionRejected


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs for :class:`AdmissionController`."""

    #: pipeline window: mutating commands admitted per batch
    max_inflight: int = 64
    #: retry hint when the cluster offers none (overload shedding)
    default_retry_after_ns: float = 400_000.0


class AdmissionController:
    """Gate requests against cluster degradation and pipeline bounds."""

    def __init__(self, cluster, config: Optional[AdmissionConfig] = None):
        self.cluster = cluster
        self.config = config if config is not None else AdmissionConfig()
        # counters (the METRICS endpoint's admission block)
        self.admitted = 0
        self.rejected_degraded = 0
        self.rejected_overload = 0

    # -- signals ---------------------------------------------------------------

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
            self.rejected_degraded += 1
            raise AdmissionRejected(
                "cluster degraded (circuit breaker open or below "
                "write quorum)",
                retry_after_ns=self.retry_after_hint(),
            )
        self.admitted += 1

    # -- metrics ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "admitted": self.admitted,
            "rejected_degraded": self.rejected_degraded,
            "rejected_overload": self.rejected_overload,
        }
