"""Synchronous gateway between the serving layer and the simulated cluster.

The asyncio server (":mod:`repro.serve.server`") accepts real sockets in
real time, but the cluster it fronts lives in virtual time on one
:class:`~repro.sim.events.EventSimulator`.  The gateway is the bridge:
each request is submitted to the cluster, the simulator is drained to
its resolution, and the (virtual-time) result comes back synchronously —
the same closed-loop discipline :func:`repro.replication.run_clients`
uses, packaged per request instead of per stream.

Each call is one :class:`~repro.replication.client.Request`, the retry
ladder :class:`~repro.replication.client.ChainClient` runs: a
per-request timer with capped exponential backoff
(:class:`~repro.replication.chain.RetryPolicy`), resubmission under the
same ``(client_id, request_id)`` so the head's dedup table absorbs
duplicates, and stale shard maps refreshed on the typed redirect.  A
write whose outcome is unknown (timeout) lands in
:attr:`ClusterGateway.unknown_rids` before the retry — the serving
layer's own record that a reply may still be in flight for that id.  A
:class:`~repro.errors.ClusterDegraded` rejection is backed off and
retried like any other typed error: the head never records it, so the
retry executes once the breaker's cooldown has passed.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..errors import ReplicationError, RequestTimeoutError
from ..replication.chain import RetryPolicy
from ..replication.client import Request, Submitter


class ClusterGateway(Submitter):
    """Per-server request runner over a ``ChainCluster``-compatible target.

    ``unknown_rids`` holds ``(client_id, request_id)`` pairs: the ids
    the dedup table protects on retry.
    """

    def __init__(self, cluster, retry: Optional[RetryPolicy] = None):
        super().__init__(cluster, retry)
        self.reads = 0
        self.writes = 0
        self.timed_out = 0

    @property
    def internal_retries(self) -> int:
        return self.retries

    # -- submission ------------------------------------------------------------

    def call_write(self, proc: str, args: Tuple[Any, ...], keys: Sequence[Any],
                   client_id: str, request_id: int) -> Any:
        """Submit one write and drain the simulator to its resolution.

        Returns the committed result; raises the typed
        :class:`~repro.errors.ReplicationError` once internal retries
        are exhausted (``RequestTimeoutError`` means outcome unknown —
        the caller may retry under the same id, which the head's dedup
        makes exactly-once).
        """
        self.writes += 1
        return self._run(Request(
            self, proc, args, keys, client_id, request_id,
            unknown_id=(client_id, request_id),
        ))

    def call_read(self, proc: str, args: Tuple[Any, ...]) -> Any:
        """Linearizable read via the routed group's tail, on the same
        ladder."""
        self.reads += 1
        return self._run(Request(self, proc, args, None))

    def _run(self, request: Request) -> Any:
        request.submit()
        # the ladder's timers and backoffs are all simulator events, so
        # running it dry resolves the request or proves nothing will
        self.cluster.drain()
        if not request.done:
            # simulator ran dry with the request unresolved: with retries
            # disabled a dropped message is simply lost
            request.abandon(
                f"never resolved (simulator dry; retries "
                f"{'enabled' if self.retry.enabled else 'disabled'})"
            )
        result = request.result
        if isinstance(result, ReplicationError):
            if isinstance(result, RequestTimeoutError):
                self.timed_out += 1
            raise result
        return result

    # -- metrics ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "internal_retries": self.retries,
            "map_refreshes": self.map_refreshes,
            "timed_out": self.timed_out,
            "unknown_rids": len(self.unknown_rids),
        }
