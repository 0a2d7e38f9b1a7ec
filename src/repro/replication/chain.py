"""Chain replication: the traditional baseline and Kamino-Tx-Chain (§5).

Both deployments share the message flow of Figure 8:

1. every write enters at the **head**, which admission-controls
   dependent transactions (an operation touching a key still held by an
   in-flight transaction queues at the head);
2. the head executes the transaction locally; only *committed*
   transactions are forwarded down the chain as named-procedure RPCs;
3. each replica durably buffers the call, executes it, and forwards it;
4. the **tail** acknowledges completion to the head (the client lives on
   the head, §5.1) and sends clean-up acks upstream;
5. the head releases the transaction's locks when (a) the tail ack
   arrived and (b) — Kamino only — the head's backup sync for the
   transaction has landed.

Differences:

=================  =====================  ============================
                   traditional            kamino
=================  =====================  ============================
replicas           f + 1                  f + 2
per-replica undo   yes (copies in the     none; head keeps the only
                   critical path at       backup, others are in-place
                   every replica)         with intent logs
storage            (f+1) × dataSize       (f+2+α) × dataSize
                   (+ undo logs)
=================  =====================  ============================

Reads execute at the tail (linearizability, as in van Renesse &
Schneider's original protocol).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..errors import ChainConfigError, ClusterDegraded, RequestTimeoutError, TxAborted
from ..runtime.context import ExecutionContext
from ..sim.events import Event
from ..sim.network import SimNetwork
from ..sim.resources import FIFOServer
from .membership import MembershipManager
from .messages import CleanupAck, TailAck, TxForward, wire_size
from .node import ReplicaNode

TRADITIONAL = "traditional"
KAMINO = "kamino"

#: how long an open circuit breaker rejects writes before the next
#: attempt, and the retry hint a chain below its write quorum gives
DEGRADED_COOLDOWN_NS = 10_000_000.0


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retransmission knobs shared by the head and the clients.

    The head arms a timer per forwarded transaction; a missing tail ack
    retransmits the forward end-to-end with capped exponential backoff
    (each replica's ``applied_seq`` filter and the idempotent procedures
    make duplicates harmless).  After ``max_retries`` the outcome is
    unknown and the submitter gets a typed
    :class:`~repro.errors.RequestTimeoutError`.

    ``timeout_for(attempt)`` = ``min(timeout_ns * backoff**attempt,
    max_timeout_ns)``.
    """

    timeout_ns: float = 400_000.0
    backoff: float = 2.0
    max_timeout_ns: float = 6_400_000.0
    max_retries: int = 10
    enabled: bool = True

    @classmethod
    def disabled(cls) -> "RetryPolicy":
        """The deliberately unhardened configuration: no timers, no
        retransmission — what the nemesis corpus proves is insufficient."""
        return cls(enabled=False)

    def timeout_for(self, attempt: int) -> float:
        return min(self.timeout_ns * (self.backoff ** attempt), self.max_timeout_ns)


class _PendingWrite:
    """A client write queued at the head (admission or execution)."""

    __slots__ = (
        "proc", "args", "keys", "callback", "submitted_at", "seq", "result",
        "client_id", "request_id", "attempts",
    )

    def __init__(self, proc, args, keys, callback, submitted_at,
                 client_id=None, request_id=None):
        self.proc = proc
        self.args = args
        self.keys = tuple(keys)
        self.callback = callback
        self.submitted_at = submitted_at
        self.seq: Optional[int] = None
        self.result: Any = None
        self.client_id: Optional[str] = client_id
        self.request_id: Optional[int] = request_id
        self.attempts = 0


class ChainCluster:
    """A full chain deployment over the event simulator.

    Args:
        f: failures to tolerate; traditional builds f+1 replicas,
            kamino f+2 (§5's impossibility argument).
        mode: ``"traditional"`` or ``"kamino"``.
        alpha: head backup sizing for kamino (1.0 = full mirror).
        runtime: an :class:`~repro.runtime.context.ExecutionContext`
            supplying the cluster's clock, event simulator, and shared
            resource registry; a private one is built when omitted.  The
            per-node FIFO servers register with it, so the uniform
            reset/snapshot contract covers the whole cluster.
    """

    def __init__(
        self,
        f: int = 2,
        mode: str = KAMINO,
        heap_mb: int = 8,
        value_size: int = 128,
        alpha: float = 1.0,
        runtime: Optional["ExecutionContext"] = None,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
        max_backup_lag: int = 64,
        write_quorum: Optional[int] = None,
        degrade_after: int = 3,
        net: Optional[SimNetwork] = None,
        node_prefix: str = "",
    ):
        if f < 1:
            raise ChainConfigError("f must be at least 1")
        if mode not in (TRADITIONAL, KAMINO):
            raise ChainConfigError(f"unknown mode '{mode}'")
        self.f = f
        self.mode = mode
        self.runtime = (
            runtime if runtime is not None else ExecutionContext(seed=seed)
        )
        self.sim = self.runtime.events
        # ``net`` lets many chain groups share one transport (the
        # sharded cluster); ``node_prefix`` keeps their node ids from
        # colliding on it.  The defaults are the original single-chain
        # deployment: a private network and bare ``r<i>`` names.
        self.net = (
            net if net is not None
            else SimNetwork(self.sim, rng=self.runtime.rng)
        )
        self.node_prefix = node_prefix
        self.retry = retry if retry is not None else RetryPolicy()
        #: bound on the head's deferred backup-sync backlog: admission
        #: stalls (back-pressure) instead of letting a slow tail grow it
        self.max_backup_lag = max_backup_lag
        #: minimum chain length that still accepts writes; kamino needs
        #: two live replicas to repair an in-place crash (§5)
        self.write_quorum = (
            write_quorum if write_quorum is not None else (2 if mode == KAMINO else 1)
        )
        self.degrade_after = degrade_after
        n = f + 2 if mode == KAMINO else f + 1
        self.chain: List[ReplicaNode] = []
        for i in range(n):
            node = ReplicaNode(
                f"{node_prefix}r{i}", mode, is_head=i == 0, heap_mb=heap_mb,
                value_size=value_size, alpha=alpha, seed=i,
            )
            self.chain.append(node)
            self.net.register(node.node_id, self._make_handler(node))
        self._servers: Dict[str, FIFOServer] = {
            node.node_id: self.runtime.resources.register(FIFOServer(node.node_id))
            for node in self.chain
        }
        # the Zookeeper stand-in (§5.3): owns the view id; the order is
        # ``self.chain`` alone, and a replica's role is its index in it
        self.membership = MembershipManager()
        for node in self.chain:
            node.view_id = self.membership.view_id
        # head protocol state
        self._next_seq = 1
        self._busy_keys: Dict[Any, int] = {}
        self._admission_queue: Deque[_PendingWrite] = deque()
        self._inflight_writes: Dict[int, _PendingWrite] = {}
        self._tail_acked: Dict[int, float] = {}
        #: seq -> armed retransmission timer (cancelled at the tail ack)
        self._retx_events: Dict[int, Event] = {}
        #: client dedup table: client_id -> (request_id, result) of the
        #: last completed request — closed-loop clients have exactly one
        #: outstanding request, so one slot per client suffices
        self._completed_requests: Dict[str, Tuple[int, Any]] = {}
        #: (client_id, request_id) -> seq for requests still in flight
        self._inflight_requests: Dict[Tuple[str, int], int] = {}
        # circuit breaker: consecutive exhausted retransmission ladders
        # open it; a success (or a view change) closes it again
        self._consecutive_failures = 0
        self._degraded_until: Optional[float] = None
        self._backpressure_event: Optional[Event] = None
        # metrics
        self.write_latencies_ns: List[float] = []
        self.read_latencies_ns: List[float] = []
        self.aborted = 0
        self.committed = 0
        self.dependent_queued = 0
        self.retransmissions = 0
        self.timed_out = 0
        self.degraded_rejections = 0
        #: circuit-breaker open and close edges
        self.breaker_transitions = 0
        self.duplicate_requests = 0
        self.backpressure_stalls = 0

    # -- topology ------------------------------------------------------------

    @property
    def view_id(self) -> int:
        """Current view, owned by the membership manager."""
        return self.membership.view_id

    @property
    def head(self) -> ReplicaNode:
        return self.chain[0]

    @property
    def tail(self) -> ReplicaNode:
        return self.chain[-1]

    def successor(self, node: ReplicaNode) -> Optional[ReplicaNode]:
        idx = self.chain.index(node)
        return self.chain[idx + 1] if idx + 1 < len(self.chain) else None

    def predecessor(self, node: ReplicaNode) -> Optional[ReplicaNode]:
        idx = self.chain.index(node)
        return self.chain[idx - 1] if idx > 0 else None

    def node_ids(self) -> List[str]:
        """The replicas' ids in chain order (membership checks each
        view change against them)."""
        return [node.node_id for node in self.chain]

    def resend_window(self, node: ReplicaNode, upto: Optional[int] = None) -> None:
        """Re-send ``node``'s un-cleaned window (through seq ``upto``
        when given) to its successor under the current view, in
        sequence order.  The successors' ``applied_seq`` filter and the
        idempotent procedures make the duplicates free."""
        successor = self.successor(node)
        if successor is None:
            return
        for seq in sorted(node.inflight):
            if upto is not None and seq > upto:
                break
            _txid, msg = node.inflight[seq]
            self.net.send(
                node.node_id, successor.node_id,
                TxForward(self.view_id, msg.seq, msg.proc, msg.args),
            )

    @property
    def total_storage_bytes(self) -> int:
        """Cluster-wide provisioned NVM (Table 1's storage column)."""
        return sum(node.storage_bytes for node in self.chain)

    # -- degradation ----------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the cluster cannot responsibly accept writes:
        either the chain is below its write quorum, or the circuit
        breaker is open after repeated end-to-end delivery failures."""
        if len(self.chain) < self.write_quorum:
            return True
        if self._degraded_until is not None and self.sim.now < self._degraded_until:
            return True
        return False

    def _note_write_failure(self) -> None:
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.degrade_after:
            # open the breaker: reject fast for a cooldown window rather
            # than burning a full retransmission ladder per write
            self._open_breaker(DEGRADED_COOLDOWN_NS)

    def _note_write_success(self) -> None:
        self._consecutive_failures = 0
        if self._degraded_until is not None:
            self._degraded_until = None
            self.breaker_transitions += 1

    def _open_breaker(self, cooldown_ns: float) -> None:
        if self._degraded_until is None:
            self.breaker_transitions += 1
        self._degraded_until = self.sim.now + cooldown_ns

    def retry_after_ns(self) -> Optional[float]:
        """Admission-control hint: how long until this group can be
        expected to accept writes again.  ``None`` when healthy; the
        breaker's remaining cooldown when it is open; one full cooldown
        when below write quorum (repair has no fixed deadline, so the
        cooldown doubles as the client's poll interval)."""
        if self._degraded_until is not None and self.sim.now < self._degraded_until:
            return self._degraded_until - self.sim.now
        if len(self.chain) < self.write_quorum:
            return DEGRADED_COOLDOWN_NS
        return None

    def trip_breaker(self, cooldown_ns: Optional[float] = None) -> None:
        """Force the circuit breaker open for one cooldown window, as if
        ``degrade_after`` ladders had just been exhausted — the nemesis
        verb behind the overload scenarios and an operator's manual
        drain switch."""
        self._consecutive_failures = self.degrade_after
        self._open_breaker(
            cooldown_ns if cooldown_ns is not None else DEGRADED_COOLDOWN_NS
        )

    def close_breaker(self) -> None:
        """Force the breaker shut."""
        self._note_write_success()

    # -- routing --------------------------------------------------------------------

    #: single-chain deployments have no shard map; clients that cache a
    #: map version see ``None`` and skip version checks entirely
    map_version: Optional[int] = None

    def route(self, key: Any, map_version: Optional[int] = None) -> "ChainCluster":
        """Per-key submission target.  A plain chain owns every key, so
        routing is the identity; the sharded cluster overrides this with
        consistent-hash placement and stale-map redirects."""
        return self

    # -- client API -----------------------------------------------------------------

    def submit_write(
        self,
        proc: str,
        args: Tuple[Any, ...],
        keys: Sequence[Any],
        callback: Optional[Callable[[Any, float], None]] = None,
        client_id: Optional[str] = None,
        request_id: Optional[int] = None,
    ) -> None:
        """Submit a write transaction at the head.

        ``keys`` is the transaction's object footprint, used for the
        head's admission control of dependent transactions.  The
        callback receives (result, latency_ns) at chain-wide commit; on
        rejection or timeout ``result`` is a typed
        :class:`~repro.errors.ReplicationError` instance
        (:class:`~repro.errors.ClusterDegraded` /
        :class:`~repro.errors.RequestTimeoutError`), surfaced exactly
        once per submission.

        ``(client_id, request_id)`` makes the submission idempotent: a
        retransmitted request whose original is still in flight is
        absorbed (the original's completion answers both), and one whose
        original already completed is answered from the dedup table
        without re-executing.
        """
        op = _PendingWrite(
            proc, args, keys, callback, self.sim.now,
            client_id=client_id, request_id=request_id,
        )
        if client_id is not None and request_id is not None:
            done = self._completed_requests.get(client_id)
            if done is not None and done[0] == request_id:
                # duplicate of a completed request: replay the reply
                self.duplicate_requests += 1
                self._reply(op, done[1])
                return
            if (client_id, request_id) in self._inflight_requests:
                # duplicate of an in-flight request: drop; the original's
                # completion resolves the client's state
                self.duplicate_requests += 1
                return
            self._inflight_requests[(client_id, request_id)] = -1
        if self.degraded:
            self.degraded_rejections += 1
            self._reply(op, ClusterDegraded(
                f"chain has {len(self.chain)} replica(s), write quorum is "
                f"{self.write_quorum}" if len(self.chain) < self.write_quorum
                else "circuit breaker open after repeated delivery failures"
            ))
            return
        self._try_admit(op)

    def _reply(self, op: _PendingWrite, result: Any) -> None:
        """Complete one submission exactly once: record it in the dedup
        table, free the in-flight slot, and up-call the client."""
        if op.client_id is not None and op.request_id is not None:
            self._inflight_requests.pop((op.client_id, op.request_id), None)
            # only outcomes are recorded: a timeout's outcome is unknown
            # and a degraded rejection never ran, so a retry under the
            # same id must execute (idempotence makes a timeout's safe)
            if not isinstance(result, (RequestTimeoutError, ClusterDegraded)):
                self._completed_requests[op.client_id] = (op.request_id, result)
        if op.callback is not None:
            op.callback(result, self.sim.now - op.submitted_at)

    def _read_target(self) -> Optional[ReplicaNode]:
        """The deepest live replica: normally the tail; with the tail
        unreachable, reads degrade to the longest consistent prefix
        (every replica's state is a prefix of its predecessor's)."""
        for node in reversed(self.chain):
            if not self.net.is_down(node.node_id):
                return node
        return None

    def submit_read(
        self, proc: str, args: Tuple[Any, ...],
        callback: Optional[Callable[[Any, float], None]] = None,
    ) -> None:
        """Linearizable read at the tail (one hop there, one back)."""
        submitted = self.sim.now
        tail = self._read_target()
        if tail is None:
            if callback is not None:
                callback(ClusterDegraded("no live replica to serve reads"), 0.0)
            return

        def deliver() -> None:
            result, cost = tail.execute(proc, args)
            done = self._servers[tail.node_id].request(self.sim.now, cost)

            def reply() -> None:
                latency = self.sim.now - submitted
                self.read_latencies_ns.append(latency)
                if callback is not None:
                    callback(result, latency)

            self.sim.at(done + self.net.hop_latency_ns, reply)

        self.sim.schedule(self.net.hop_latency_ns, deliver)

    # -- head: admission + execution ---------------------------------------------------

    def _try_admit(self, op: _PendingWrite) -> None:
        if any(k in self._busy_keys for k in op.keys):
            self.dependent_queued += 1
            self._admission_queue.append(op)
            return
        head = self.head
        if head.engine.pending_count >= self.max_backup_lag:
            # back-pressure: the head's backup-sync backlog is at its
            # bound; stall admission and drain before taking new work,
            # so a slow tail cannot grow the lag without limit
            self.backpressure_stalls += 1
            self._admission_queue.append(op)
            if self._backpressure_event is None:
                self._backpressure_event = self.sim.schedule(
                    0.0, self._relieve_backpressure
                )
            return
        seq = self._next_seq
        self._next_seq += 1
        op.seq = seq
        if op.client_id is not None and op.request_id is not None:
            self._inflight_requests[(op.client_id, op.request_id)] = seq
        for k in op.keys:
            self._busy_keys[k] = seq
        self._execute_at_head(op)

    def _relieve_backpressure(self) -> None:
        self._backpressure_event = None
        head = self.head
        cost = head.sync_backup(limit=max(1, self.max_backup_lag // 2))
        done = self._servers[head.node_id].request(self.sim.now, cost)
        self.sim.at(done, self._drain_admission_queue)

    def _execute_at_head(self, op: _PendingWrite) -> None:
        head = self.head
        try:
            result, cost = head.execute(op.proc, op.args)
        except TxAborted:
            # aborts are resolved locally at the head (Figure 8, right):
            # the backup (or undo log) rolls the head back; nothing is
            # ever forwarded downstream.
            self.aborted += 1
            self._release_keys(op)
            self._reply(op, None)
            return
        self._inflight_writes[op.seq] = op
        op.result = result  # type: ignore[attr-defined]
        done = self._servers[head.node_id].request(self.sim.now, cost)
        msg = TxForward(self.view_id, op.seq, op.proc, op.args)
        successor = self.successor(head)
        head.applied_seq = op.seq
        head.inflight[op.seq] = (op.seq, msg)
        head.applied_ranges[op.seq] = head.last_write_set
        if successor is None:  # degenerate single-node chain (tests)
            self.sim.at(done, self._on_tail_ack, TailAck(self.view_id, op.seq))
        else:
            self.sim.at(done, self.net.send, head.node_id, successor.node_id, msg)
            self._arm_retransmit(op)

    # -- head: retransmission (timeouts + capped exponential backoff) ------------------

    def _arm_retransmit(self, op: _PendingWrite) -> None:
        if not self.retry.enabled or op.seq is None:
            return
        old = self._retx_events.pop(op.seq, None)
        if old is not None:
            old.cancel()
        self._retx_events[op.seq] = self.sim.schedule(
            self.retry.timeout_for(op.attempts), self._retransmit, op.seq
        )

    def _retransmit(self, seq: int) -> None:
        op = self._inflight_writes.get(seq)
        self._retx_events.pop(seq, None)
        if op is None or seq in self._tail_acked:
            return  # completed while the timer was in flight
        if op.attempts >= self.retry.max_retries:
            self._abandon(op)
            return
        op.attempts += 1
        self.retransmissions += 1
        if len(self.chain) == 1:
            self._on_tail_ack(TailAck(self.view_id, seq))
            return
        # resend the whole un-cleaned window up to this seq, not just the
        # stalled forward: an earlier transaction (even an abandoned one)
        # may still be a sequence-gap blocker at some replica
        self.resend_window(self.head, upto=seq)
        self._arm_retransmit(op)

    def _abandon(self, op: _PendingWrite) -> None:
        """Retransmission budget exhausted: the transaction's chain-wide
        outcome is unknown.  Release its keys, surface a typed timeout to
        the submitter (exactly once), and trip the circuit breaker.

        The head's protocol-window entry (``head.inflight``) is kept: the
        head *did* execute the transaction, so downstream replicas must
        still receive it eventually (later retransmissions resend it as
        part of the window) or they could never apply anything after it.
        """
        self.timed_out += 1
        self._inflight_writes.pop(op.seq, None)
        self._note_write_failure()
        self._release_keys(op)
        self._reply(op, RequestTimeoutError(
            f"seq={op.seq} saw no tail ack after {op.attempts} retransmissions"
        ))

    def _release_keys(self, op: _PendingWrite) -> None:
        for k in op.keys:
            if self._busy_keys.get(k) == op.seq or op.seq is None:
                self._busy_keys.pop(k, None)
        self._drain_admission_queue()

    def _drain_admission_queue(self) -> None:
        requeue = list(self._admission_queue)
        self._admission_queue.clear()
        for op in requeue:
            self._try_admit(op)

    # -- replica message handling -----------------------------------------------------------

    def _make_handler(self, node: ReplicaNode):
        def handler(src: str, msg: Any) -> None:
            if isinstance(msg, TxForward):
                self._on_forward(node, msg)
            elif isinstance(msg, TailAck):
                self._on_tail_ack(msg)
            elif isinstance(msg, CleanupAck):
                self._on_cleanup(node, msg)
        return handler

    def _on_forward(self, node: ReplicaNode, msg: TxForward) -> None:
        if msg.view_id < self.view_id:
            return  # stale view: reject (§5.3)
        if msg.seq > node.applied_seq + 1:
            # sequence gap: a crash consumed an earlier forward and this
            # one overtook its retransmission.  Applying it would commit
            # a state that is no prefix, so drop it — the upstream
            # retransmission window resends the run in order.
            return
        qcost = node.persist_to_input_queue(wire_size(msg))
        if msg.seq > node.applied_seq:
            _result, cost = node.execute(msg.proc, msg.args)
            node.applied_seq = msg.seq
            node.applied_ranges[msg.seq] = node.last_write_set
        else:
            cost = 0.0  # replayed during chain repair: already applied
        done = self._servers[node.node_id].request(self.sim.now, qcost + cost)
        successor = self.successor(node)
        if successor is not None:
            node.inflight[msg.seq] = (msg.seq, msg)
            self.sim.at(done, self.net.send, node.node_id, successor.node_id, msg)
        else:
            # tail: completion ack to the head, clean-up acks upstream;
            # the tail's own intent log is freed at its commit point
            release = getattr(node.engine, "release_oldest_committed", None)
            if release is not None:
                release()
            head = self.head
            self.sim.at(done, self.net.send, node.node_id, head.node_id,
                        TailAck(self.view_id, msg.seq))
            pred = self.predecessor(node)
            if pred is not None:
                self.sim.at(done, self.net.send, node.node_id, pred.node_id,
                            CleanupAck(self.view_id, msg.seq))

    def _on_tail_ack(self, msg: TailAck) -> None:
        if msg.view_id < self.view_id:
            return
        timer = self._retx_events.pop(msg.seq, None)
        if timer is not None:
            timer.cancel()
        op = self._inflight_writes.pop(msg.seq, None)
        if op is None:
            return  # duplicate ack, or the head already abandoned it
        self._tail_acked[msg.seq] = self.sim.now
        head = self.head
        # the final call to the client is a local up-call on the head
        # (§5.1) — it happens at the tail ack, not after the backup sync
        self.committed += 1
        self._note_write_success()
        head.inflight.pop(msg.seq, None)
        head.applied_ranges.pop(msg.seq, None)
        latency = self.sim.now - op.submitted_at
        self.write_latencies_ns.append(latency)
        self._reply(op, getattr(op, "result", None))
        if self.mode == KAMINO:
            # §5.1's two lock-release conditions: tail ack received AND
            # the head's backup has absorbed the transaction — dependent
            # transactions stay queued until then
            cost = head.sync_backup(limit=1)
            done = self._servers[head.node_id].request(self.sim.now, cost)
            self.sim.at(done, self._release_keys, op)
        else:
            self._release_keys(op)

    def _on_cleanup(self, node: ReplicaNode, msg: CleanupAck) -> None:
        if msg.view_id < self.view_id:
            return
        node.inflight.pop(msg.seq, None)
        node.applied_ranges.pop(msg.seq, None)
        release = getattr(node.engine, "release_oldest_committed", None)
        if release is not None:
            release()
        pred = self.predecessor(node)
        if pred is not None:
            self.net.send(node.node_id, pred.node_id, msg)

    # -- view installation --------------------------------------------------------------------

    def _install_view(self) -> None:
        """Propagate the membership's current view to every live replica
        (so a later quick reboot rejoins claiming the right view) and
        reset the head's degradation state — a repaired topology deserves
        a fresh chance before the circuit breaker re-opens."""
        for node in self.chain:
            node.view_id = self.view_id
        self._note_write_success()

    # -- execution driver ---------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def drain(self) -> None:
        """Run the simulator dry and flush any head backup backlog."""
        self.sim.run()
        while self.head.engine.pending_count:
            self.head.engine.sync_pending()

    # -- verification ----------------------------------------------------------------------------

    def kv_states(self) -> List[Dict[int, bytes]]:
        """Every replica's logical KV contents (tests/verification)."""
        states = []
        for node in self.chain:
            state = {}
            for key, ptr in node.kv.tree.items():
                state[key] = node.heap.read_blob(ptr)
            states.append(state)
        return states

    def assert_replicas_consistent(self) -> None:
        states = self.kv_states()
        for i, state in enumerate(states[1:], start=1):
            if state != states[0]:
                diff = {
                    k
                    for k in set(state) | set(states[0])
                    if state.get(k) != states[0].get(k)
                }
                raise AssertionError(
                    f"replica {i} diverges from head on keys {sorted(diff)[:10]}"
                )
