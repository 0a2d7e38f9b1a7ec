"""Closed-loop chain clients for benchmarks, examples, and fault tests.

The paper's replicated experiments drive YCSB operations through the
chain: writes enter at the head, reads hit the tail.  A closed-loop
client issues its next operation the moment the previous one completes,
so N clients model N application threads.

Hardening (the nemesis layer throws lossy links at the chain):

* every operation carries ``(client_id, request_id)`` so the head can
  deduplicate retries — a retransmitted request never re-executes a
  completed transaction;
* a per-operation timeout with capped exponential backoff resubmits
  operations whose reply was lost (e.g. the head failed over and its
  volatile client table died with it);
* a typed error reply (:class:`~repro.errors.ClusterDegraded`,
  :class:`~repro.errors.RequestTimeoutError`) is retried under the same
  id while attempts remain — the head records neither, so a retry
  executes instead of replaying the error — then surfaced exactly once
  in :attr:`ChainClient.failed`;
* all of the above is one :class:`Request` object, the retry ladder the
  serving layer's :class:`~repro.serve.gateway.ClusterGateway` runs too;
* :func:`run_clients` raises :class:`~repro.errors.ClientStuckError`
  naming the stuck clients if the simulator drains with operations
  still unresolved, instead of silently returning ``done == False``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..errors import (
    ClientStuckError,
    ReplicationError,
    RequestTimeoutError,
    StaleShardMapError,
)
from ..workloads.ycsb import INSERT, READ, RMW, SCAN, SCAN_LENGTH, UPDATE, Op
from .chain import ChainCluster, RetryPolicy


class Submitter:
    """What a request ladder runs against: the cluster, the retry
    policy, the cached shard-map version and the ladder's counters.

    ``retry=None`` inherits the cluster's policy.
    """

    def __init__(self, cluster: ChainCluster, retry: Optional[RetryPolicy]):
        self.cluster = cluster
        self.retry = retry if retry is not None else cluster.retry
        #: resubmissions: timeouts, backed-off error replies and map
        #: refreshes
        self.retries = 0
        #: the cached shard-map version (None on a plain chain);
        #: refreshed on every typed stale-map redirect
        self.map_version: Optional[int] = cluster.map_version
        #: stale-map redirects taken (each one refreshed the cache)
        self.map_refreshes = 0
        #: ids whose chain-wide outcome is unknown: some attempt timed
        #: out (client- or head-side), so the write may have executed
        #: even though the final resolution was an error.  The nemesis
        #: durability oracle must not assume these are absent.
        self.unknown_rids: set = set()

    def route(self, key: Any) -> ChainCluster:
        """Per-key submission target via the cluster's shard map.

        A stale cached map version gets a typed
        :class:`~repro.errors.StaleShardMapError` redirect: refresh the
        cache from the error (one retry's worth of work) and re-route —
        the second lookup is authoritative by construction.
        """
        try:
            return self.cluster.route(key, self.map_version)
        except StaleShardMapError as exc:
            self.map_refreshes += 1
            self.retries += 1
            self.map_version = exc.current_version
            return self.cluster.route(key, self.map_version)


class Request:
    """One operation's retry ladder, from submission to its one
    resolution.

    :meth:`submit` routes, submits and — while retries are enabled and
    the request is still open — arms a timer.  Then:

    * a timeout resubmits at once under the same ``(client_id,
      request_id)`` (the head's dedup table absorbs the duplicate if the
      original is still in flight); with ``max_retries`` spent it
      resolves with :class:`~repro.errors.RequestTimeoutError`;
    * an error reply backs off ``retry.timeout_for(attempt + 1)`` and
      resubmits (a degraded chain is ridden out this way), unless
      retries are disabled or spent — then it resolves with that error;
    * any other reply resolves the request with it.

    Every timeout, the request's own or the head's, puts ``unknown_id``
    in the submitter's ``unknown_rids``.

    ``keys is None`` makes the request a read (routed to the tail, no
    dedup identity).
    """

    __slots__ = (
        "source", "proc", "args", "keys", "client_id", "request_id",
        "unknown_id", "on_resolve", "attempt", "done", "result",
        "latency_ns", "timer",
    )

    def __init__(self, source: Submitter, proc: str, args: Tuple[Any, ...],
                 keys: Optional[Sequence[Any]], client_id: Optional[str] = None,
                 request_id: Optional[int] = None,
                 unknown_id: Optional[Hashable] = None,
                 on_resolve: Optional[Callable[["Request"], None]] = None):
        self.source = source
        self.proc = proc
        self.args = args
        self.keys = keys
        self.client_id = client_id
        self.request_id = request_id
        self.unknown_id = unknown_id
        self.on_resolve = on_resolve
        self.attempt = 0
        self.done = False
        self.result: Any = None
        self.latency_ns: Optional[float] = None
        self.timer = None

    def submit(self) -> None:
        source = self.source
        target = source.route(self.keys[0] if self.keys else self.args[0])
        if self.keys is None:
            target.submit_read(self.proc, self.args, self._on_reply)
        else:
            target.submit_write(
                self.proc, self.args, self.keys, self._on_reply,
                client_id=self.client_id, request_id=self.request_id,
            )
        if source.retry.enabled and not self.done:
            self._cancel_timer()
            self.timer = source.cluster.sim.schedule(
                source.retry.timeout_for(self.attempt), self._on_timeout
            )

    def _resubmit(self) -> None:
        if not self.done:
            self.submit()

    def _cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def _mark_unknown(self) -> None:
        if self.unknown_id is not None:
            self.source.unknown_rids.add(self.unknown_id)

    def abandon(self, why: str) -> None:
        """Resolve an open request with a
        :class:`~repro.errors.RequestTimeoutError`: its outcome is
        unknown."""
        self._mark_unknown()
        label = (f"{self.proc}{self.args!r}" if self.request_id is None
                 else f"{self.proc} {self.client_id}/{self.request_id}")
        self._resolve(RequestTimeoutError(f"{label} {why}"))

    def _on_timeout(self) -> None:
        self.timer = None
        if self.done:
            return
        if self.attempt >= self.source.retry.max_retries:
            self.abandon(f"unresolved after {self.attempt} retries")
            return
        # a previous attempt may still be in flight somewhere in the
        # chain: the outcome is no longer "never happened" even if a
        # later attempt is rejected
        self._mark_unknown()
        self.attempt += 1
        self.source.retries += 1
        self.submit()

    def _on_reply(self, result: Any, latency_ns: float) -> None:
        if self.done:
            return  # a duplicate completion (original + retry): first wins
        if isinstance(result, ReplicationError):
            if isinstance(result, RequestTimeoutError):
                self._mark_unknown()
            retry = self.source.retry
            if retry.enabled and self.attempt < retry.max_retries:
                # rejected or timed out at the head: back off and retry
                self._cancel_timer()
                self.attempt += 1
                self.source.retries += 1
                self.source.cluster.sim.schedule(
                    retry.timeout_for(self.attempt), self._resubmit
                )
                return
        self._resolve(result, latency_ns)

    def _resolve(self, result: Any, latency_ns: Optional[float] = None) -> None:
        self.done = True
        self.result = result
        self.latency_ns = latency_ns
        self._cancel_timer()
        if self.on_resolve is not None:
            self.on_resolve(self)


class ChainClient(Submitter):
    """Feeds a deterministic operation stream through the cluster, one
    :class:`Request` at a time.

    ``retry=None`` inherits the cluster's policy;
    ``RetryPolicy.disabled()`` reproduces the old fire-and-forget client
    (which the nemesis corpus demonstrates gets stranded by one dropped
    reply).
    """

    def __init__(
        self,
        cluster: ChainCluster,
        client_id: str,
        ops: List[Op],
        retry: Optional[RetryPolicy] = None,
    ):
        super().__init__(cluster, retry)
        self.client_id = client_id
        self.ops = ops
        #: operations submitted so far (the next one's request id)
        self.issued = 0
        self.completed = 0
        self.latencies_ns: List[float] = []
        #: (request_id, op, error) for operations that resolved with a
        #: typed error — each rejected operation appears exactly once
        self.failed: List[Tuple[int, Op, ReplicationError]] = []
        #: key -> value of the most recent *acknowledged* write per key,
        #: in completion order — the nemesis convergence oracle checks
        #: these against the tail
        self.acked_writes: Dict[Any, bytes] = {}

    def start(self) -> None:
        self._issue_next()

    def _issue_next(self) -> None:
        """Submit the next operation; its request id is its index."""
        if self.issued >= len(self.ops):
            return
        rid = self.issued
        op = self.ops[rid]
        self.issued += 1
        if op.kind == READ:
            proc, args, keys = "get", (op.key,), None
        elif op.kind in (UPDATE, INSERT):
            proc, args, keys = "put", (op.key, op.value), [op.key]
        elif op.kind == RMW:
            proc, args, keys = "rmw_const", (op.key, op.value), [op.key]
        elif op.kind == SCAN:
            proc, args, keys = "scan", (op.key, SCAN_LENGTH), None
        else:
            raise ValueError(f"unsupported op kind {op.kind}")
        Request(
            self, proc, args, keys, self.client_id, rid, unknown_id=rid,
            on_resolve=partial(self._resolved, op),
        ).submit()

    def _resolved(self, op: Op, request: Request) -> None:
        result = request.result
        if isinstance(result, ReplicationError):
            self.failed.append((request.request_id, op, result))
        else:
            self.latencies_ns.append(request.latency_ns)
            if op.kind in (UPDATE, INSERT, RMW):
                self.acked_writes[op.key] = op.value
        self.completed += 1
        self._issue_next()

    @property
    def done(self) -> bool:
        return self.completed >= len(self.ops)


def run_clients(
    cluster: ChainCluster,
    streams: List[List[Op]],
    raise_on_stuck: bool = True,
) -> List[ChainClient]:
    """Start one closed-loop client per stream and run to completion.

    Raises :class:`~repro.errors.ClientStuckError` if the simulator
    drains with clients still waiting — an operation was lost and
    nothing will ever retry it (set ``raise_on_stuck=False`` to get the
    old silent behaviour back for inspection-style tests).
    """
    clients = [
        ChainClient(cluster, f"c{i}", ops)
        for i, ops in enumerate(streams)
    ]
    for client in clients:
        client.start()
    cluster.drain()
    stuck = [c for c in clients if not c.done]
    if stuck and raise_on_stuck:
        detail = ", ".join(
            f"{c.client_id} ({c.completed}/{len(c.ops)} ops)" for c in stuck
        )
        raise ClientStuckError(
            f"{len(stuck)} client(s) never completed: {detail}",
            client_ids=[c.client_id for c in stuck],
        )
    return clients
