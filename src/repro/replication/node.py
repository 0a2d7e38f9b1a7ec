"""One chain replica: a full NVM stack plus the chain-protocol state.

Every replica owns its own simulated device, pool, heap, and KV store —
the replicated system really is N independent persistent stores kept
consistent by the protocol, exactly like the paper's deployment.  The
node measures the simulated NVM cost of everything it executes so the
chain harness can schedule message forwarding at realistic times (the
``lt``/``lc`` terms of Table 1).
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
from ..sim.resources import cost_model_for
from ..tx import UndoLogEngine, kamino_dynamic, kamino_simple
from ..tx.base import IntentKind
from .inplace_engine import IntentOnlyEngine

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
        pool = PmemPool.create(self.device)
        self.engine = engine_for(mode, role, alpha)
        self.heap = PersistentHeap.create(pool, self.engine, heap_size=heap_bytes)
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
        s0 = self.device.stats.snapshot()
        payload = struct.pack("<I", payload_bytes) + b"\x5a" * min(payload_bytes, 248)
        if self.input_queue.free_bytes < 2 * (len(payload) + 16):
            self.input_queue.drain()
        self.input_queue.append(payload)
        return self.device.stats.delta(s0).simulated_ns(self.model)

    def execute(self, proc: str, args: Tuple[Any, ...]) -> Tuple[Any, float]:
        """Run a named procedure locally; returns (result, cost_ns).

        The cost is the simulated NVM time of the local transaction —
        the ``lt`` (+ ``lc`` for copying schemes) term of Table 1 — plus
        the scheme's log-management software overhead (allocating,
        indexing and freeing log entries; see
        :mod:`repro.sim.resources`), which the paper identifies as most
        of undo-logging's cost.
        """
        fn = self.procs[proc]
        captured = {"intents": 0, "ranges": []}

        def hook(tx):
            captured["intents"] = len(tx.intents)
            # the committed byte-level write-set (FREE'd blocks excluded:
            # their contents are dead, and the bitmap clears have their
            # own WRITE intents) — neighbours copy these during repair
            captured["ranges"] = [
                (off, size)
                for off, size, kind in tx.intents
                if kind is not IntentKind.FREE
            ]

        self.engine.trace_hook = hook
        s0 = self.device.stats.snapshot()
        try:
            result = fn(self.kv, *args)
        finally:
            self.engine.trace_hook = None
        self.last_write_set = captured["ranges"]
        delta = self.device.stats.delta(s0)
        cost = delta.simulated_ns(self.model)
        cm = cost_model_for(self.engine.name)
        # fixed per-intent software cost only: the log copy's device time
        # is already inside the measured delta
        cost += cm.serial_ns_per_intent * captured["intents"]
        return result, cost

    def sync_backup(self, limit: Optional[int] = 1) -> float:
        """Head only: drain one committed tx's backup sync; returns cost."""
        s0 = self.device.stats.snapshot()
        self.engine.sync_pending(limit=limit)
        return self.device.stats.delta(s0).simulated_ns(self.model)

    # -- failure & repair support ----------------------------------------------------------

    def crash(self, policy: CrashPolicy = CrashPolicy.DROP_ALL, survival: float = 0.5) -> None:
        self.device.crash(policy, survival)

    def reopen(self) -> None:
        """Local restart: fresh engine + heap on the surviving bytes."""
        self.device.restart()
        pool = PmemPool.open(self.device)
        self.engine = engine_for(self.mode, self.role, self.alpha)
        self.heap = PersistentHeap.open(pool, self.engine)
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
        backup = getattr(self.engine, "backup", None)
        if backup is not None:
            total += backup.storage_bytes
        return total
