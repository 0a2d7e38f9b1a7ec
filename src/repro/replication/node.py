"""One chain replica: a full NVM stack plus the chain-protocol state.

Every replica owns its own simulated device, pool, heap, and KV store —
the replicated system really is N independent persistent stores kept
consistent by the protocol, exactly like the paper's deployment.  The
node prices everything it executes through its own
:class:`~repro.runtime.context.ExecutionContext`, the one pricing path,
so the chain harness can schedule message forwarding at realistic times
(the ``lt``/``lc`` terms of Table 1).  :meth:`ReplicaNode.open_stack`
is the one place a replica's engine and heap are (re)bound.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..heap import PersistentHeap
from ..kvstore import KVStore
from ..kvstore.ring import PersistentRing
from ..nvm.device import CrashPolicy, NVMDevice
from ..nvm.latency import NVDIMM, LatencyModel
from ..nvm.pool import PmemPool
from ..runtime.context import ExecutionContext
from ..sim.resources import cost_model_for
from ..tx import IntentOnlyEngine, UndoLogEngine, kamino_dynamic, kamino_simple
from ..tx.base import IntentKind

INPUT_QUEUE_REGION = "input_queue"

#: roles a replica can play
ROLE_HEAD = "head"
ROLE_MID = "mid"
ROLE_TAIL = "tail"


def engine_for(mode: str, role: str, alpha: float = 1.0):
    """The engine a replica runs, by deployment mode and chain role.

    * traditional — undo logging everywhere (copies in the critical path
      at every replica);
    * kamino — the head runs Kamino-Tx (full backup when α=1, dynamic
      otherwise); every other replica updates in place with only an
      intent log (no local copies at all).
    """
    if mode == "traditional":
        return UndoLogEngine(n_slots=128)
    if mode == "kamino":
        if role == ROLE_HEAD:
            if alpha >= 1.0:
                return kamino_simple(n_slots=128)
            return kamino_dynamic(alpha=alpha, n_slots=128)
        return IntentOnlyEngine()
    raise ValueError(f"unknown chain mode '{mode}'")


class ReplicaNode:
    """A chain replica's local state machine (transport-agnostic)."""

    def __init__(
        self,
        node_id: str,
        mode: str,
        role: str,
        heap_mb: int = 8,
        value_size: int = 128,
        alpha: float = 1.0,
        model: LatencyModel = NVDIMM,
        seed: int = 0,
    ):
        self.node_id = node_id
        self.mode = mode
        self.role = role
        self.alpha = alpha
        self.model = model
        heap_bytes = heap_mb << 20
        pool_bytes = heap_bytes * 3 + (16 << 20)
        self.device = NVMDevice(pool_bytes, model=model, seed=seed)
        pool = self.open_stack(heap_size=heap_bytes)
        # a persistent ring for the input queue of forwarded calls (§5.1:
        # "replicas buffer such calls in an input queue in non-volatile
        # memory before the receipt is acknowledged upstream")
        self.queue_region = pool.create_region(INPUT_QUEUE_REGION, 1 << 20)
        self.input_queue = PersistentRing.create(self.queue_region)
        self.kv = KVStore.create(self.heap, value_size=value_size)
        # setup transactions precede the protocol: no cleanup acks coming
        release_setup = getattr(self.engine, "release_all_committed", None)
        if release_setup is not None:
            release_setup()
        self.procs: Dict[str, Callable] = {}
        self._register_builtin_procs()
        # protocol state
        self.view_id = 0
        self.applied_seq = 0
        #: seq -> (txid, TxForward) awaiting downstream clean-up
        self.inflight: Dict[int, Tuple[int, Any]] = {}
        #: seq -> byte ranges the transaction wrote, kept while the seq
        #: is in flight so a rebooting successor can repair by copying
        #: the write-set instead of re-executing (see _replay_missed)
        self.applied_ranges: Dict[int, List[Tuple[int, int]]] = {}
        #: write-set of the most recent execute() (volatile scratch)
        self.last_write_set: List[Tuple[int, int]] = []

    def open_stack(self, heap_size: Optional[int] = None) -> PmemPool:
        """Open the engine and heap for the replica's current role over
        a fresh pool of ``heap_size`` heap bytes, or, when None, over
        the pool that survives on the device; returns the pool.

        The one rebind point: the pricing context and the scheduler
        cost row (whose per-intent charge :meth:`execute` adds) are
        rebuilt with the engine, so neither can outlive it.
        """
        engine = engine_for(self.mode, self.role, self.alpha)
        if heap_size is None:
            pool = PmemPool.open(self.device)
            self.heap = PersistentHeap.open(pool, engine)
        else:
            pool = PmemPool.create(self.device)
            self.heap = PersistentHeap.create(pool, engine, heap_size=heap_size)
        self.engine = engine
        self.ctx = ExecutionContext(self.model, self.device, engine)
        self.cost = cost_model_for(engine.name)
        return pool

    # -- procedures -------------------------------------------------------------

    def _register_builtin_procs(self) -> None:
        self.register_proc("put", lambda kv, key, value: kv.put(key, value))
        self.register_proc("delete", lambda kv, key: kv.delete(key))
        self.register_proc("get", lambda kv, key: kv.get(key))
        self.register_proc(
            "rmw_const", lambda kv, key, value: kv.read_modify_write(key, lambda _o: value)
        )
        self.register_proc("scan", lambda kv, key, limit: kv.scan(key, limit))

    def register_proc(self, name: str, fn: Callable) -> None:
        """Procedures must be deterministic and idempotent — the chain
        may re-execute them during repair."""
        self.procs[name] = fn

    # -- execution with cost measurement ----------------------------------------------

    def persist_to_input_queue(self, payload_bytes: int) -> float:
        """Durably buffer an incoming call; returns the simulated cost.

        The queue is a crash-consistent :class:`PersistentRing`; records
        are drained once the transaction has been executed and forwarded
        (they exist to survive the window in between).
        """
        payload = struct.pack("<I", payload_bytes) + b"\x5a" * min(payload_bytes, 248)
        return self.ctx.measure(self._enqueue, payload)

    def _enqueue(self, payload: bytes) -> None:
        if self.input_queue.free_bytes < 2 * (len(payload) + 16):
            self.input_queue.drain()
        self.input_queue.append(payload)

    def execute(self, proc: str, args: Tuple[Any, ...]) -> Tuple[Any, float]:
        """Run a named procedure locally; returns (result, cost_ns).

        The cost is the critical path the replica's context prices —
        the ``lt`` (+ ``lc`` for copying schemes) term of Table 1 — plus
        the scheme's log-management software overhead (allocating,
        indexing and freeing log entries; see
        :mod:`repro.sim.resources`), which the paper identifies as most
        of undo-logging's cost.  That overhead is a flat per-intent
        term: log management on a chain node never queues (DESIGN.md
        §2.5).  The engine's deferred work is not drained here; the head
        drains it on its own schedule (:meth:`sync_backup`).
        """
        result, record, tx = self.ctx.execute(proc, self.procs[proc], self.kv, *args)
        # the committed byte-level write-set (FREE'd blocks excluded:
        # their contents are dead, and the bitmap clears have their own
        # WRITE intents) — neighbours copy these during repair
        self.last_write_set = [] if tx is None else [
            (off, size) for off, size, kind in tx.intents if kind is not IntentKind.FREE
        ]
        # fixed per-intent software cost only (log management plus the
        # write-lock op): the log copy's device time is already inside
        # the critical path
        return result, record.crit_ns + self.cost.serial_ns_per_intent * record.n_intents

    def sync_backup(self, limit: int) -> float:
        """Head only: drain up to ``limit`` committed transactions'
        backup sync; returns its cost."""
        return self.ctx.drain(limit)[0]

    # -- failure & repair support ----------------------------------------------------------

    def crash(self, policy: CrashPolicy = CrashPolicy.DROP_ALL, survival: float = 0.5) -> None:
        self.device.crash(policy, survival)

    def reopen(self) -> None:
        """Local restart: fresh engine + heap on the surviving bytes."""
        self.device.restart()
        pool = self.open_stack()
        self.queue_region = pool.region(INPUT_QUEUE_REGION)
        self.input_queue = PersistentRing.open(self.queue_region)
        self.kv = KVStore.open(self.heap)
        self.inflight = {}
        self.applied_ranges = {}

    def read_heap_bytes(self, offset: int, size: int) -> bytes:
        """State-transfer read used by neighbours during repair."""
        return self.heap.region.read(offset, size)

    def write_heap_bytes(self, offset: int, data: bytes) -> None:
        """Apply repair bytes received from a neighbour, durably."""
        self.heap.region.write(offset, data)
        self.heap.region.flush(offset, len(data))
        self.device.fence()

    def heap_image(self) -> bytes:
        """Full heap snapshot for new-replica state transfer."""
        return self.heap.region.read(0, self.heap.region.size)

    def load_heap_image(self, image: bytes) -> None:
        self.heap.region.write(0, image)
        self.heap.region.flush(0, len(image))
        self.device.fence()
        self.heap.allocator.open()

    @property
    def storage_bytes(self) -> int:
        """Provisioned NVM, for Table 1's storage-requirement check."""
        total = self.heap.region.size
        if self.engine.backup is not None:
            total += self.engine.backup.storage_bytes
        return total
