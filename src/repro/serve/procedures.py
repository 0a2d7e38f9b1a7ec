"""Durable server-side procedures: persistent-stack continuations in NVM.

*Execution of NVRAM Programs with Persistent Stack* (PAPERS.md) keeps a
program's continuation state in NVM so a crash resumes it rather than
restarting it.  This module is that idea grafted onto the serving
layer: a :class:`DurableProcedure` is a short server-side program —
read-modify-write, a cross-shard batch — expressed as a sequence of
*steps*, and the engine persists one *frame* (the step's binding) into
an NVM ring after each step completes.  The ring rides the same
crash-atomic append discipline the replicas' input queues use
(:class:`~repro.kvstore.ring.PersistentRing`: write, flush, fence, then
advance the durable produce word), so a frame either exists completely
or not at all; the step's *effects* ride the cluster's transaction
engines like any other client write.

Crash story (what :class:`~repro.serve.explorer.ServeCrashExplorer`
sweeps):

* A step whose frame persisted is **never re-executed** — resume skips
  straight past it and every value it bound is back in scope.
* A step whose frame did not persist re-executes from its persisted
  inputs.  Its effects are exactly-once anyway: every effect is
  submitted under ``client_id="proc:<pid>"`` and a request id derived
  from ``(step, effect index)``, so the head's dedup table absorbs the
  replay of anything the first execution already committed, and the
  re-computed values are identical because a step may only depend on
  ``args`` and earlier frames (reads bind in their own step, writes
  consume frames — never both against the same key in one step).
* A completed procedure's result is kept (bounded) in the log, so a
  client retrying a finished pid gets the stored result back as a typed
  :class:`~repro.errors.ProcedureResumed` instead of a re-execution.

``durable=False`` is the deliberately unhardened configuration:
``begin``/``done`` records still hit the log (the server knows *which*
procedures were in flight) but the frame stacks stay in volatile
memory, and the resume identity is lost with them — each recovery gets
a fresh dedup incarnation and restarts interrupted procedures from
step 0.  The explorer demonstrates this double-applies committed
effects, exactly the failure the persistent stack exists to rule out.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ProcedureError, ProcedureResumed
from ..kvstore.ring import PersistentRing
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool
from .gateway import ClusterGateway

LOG_REGION = "procedure_log"
LOG_BYTES = 96 * 1024
DEVICE_BYTES = 1 << 20
_COMPACT_HEADROOM = 4096

#: completed results kept in the log for exactly-once replay to
#: retrying clients; older ones age out at the next compaction
KEEP_DONE = 64

#: request-id stride per step: effect k of step i is request id
#: ``i * EFFECT_STRIDE + k`` under the procedure's client id
EFFECT_STRIDE = 64

_AUTO_PID = re.compile(r"^p(\d+)$")


# ---------------------------------------------------------------------------
# Procedure definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DurableProcedure:
    """A named sequence of steps; each step binds one JSON frame."""

    name: str
    #: ``(step_name, fn)`` — ``fn(ctx)`` returns the frame to persist
    steps: Tuple[Tuple[str, Callable[["ProcedureContext"], Any]], ...]


#: the global registry ``repro serve`` exposes; engines copy it at
#: construction so tests can register without leaking across instances
PROCEDURES: Dict[str, DurableProcedure] = {}


def register_procedure(
    name: str,
    steps: Sequence[Tuple[str, Callable[["ProcedureContext"], Any]]],
) -> DurableProcedure:
    proc = DurableProcedure(name, tuple(steps))
    PROCEDURES[name] = proc
    return proc


def _as_int(raw: Optional[bytes]) -> int:
    """Decode a cluster value as an integer (values come back padded to
    the store's value size; an absent key reads as zero)."""
    text = bytes(raw).rstrip(b"\x00") if raw else b""
    return int(text) if text else 0


def _encode_int(n: int) -> bytes:
    """Fixed-width decimal encoding for integer values.  Values
    overwrite their slot in place, so a shorter write must not leave
    stale digits of the previous value behind it."""
    return b"%019d" % n


# incr(key, delta): the canonical read-modify-write.  The read binds in
# its own frame so a re-executed write step recomputes the same value.

def _incr_read(ctx: "ProcedureContext") -> int:
    return _as_int(ctx.read(int(ctx.args[0])))


def _incr_write(ctx: "ProcedureContext") -> int:
    new = int(ctx.frames[0]) + int(ctx.args[1])
    ctx.write(int(ctx.args[0]), _encode_int(new))
    return new


register_procedure("incr", [("read", _incr_read), ("write", _incr_write)])


# transfer(src, dst, amount): the cross-shard batch — both reads bind
# before either write, and each write is its own step so a crash
# between them resumes with the debit already deduplicated.

def _transfer_read_src(ctx: "ProcedureContext") -> int:
    return _as_int(ctx.read(int(ctx.args[0])))


def _transfer_read_dst(ctx: "ProcedureContext") -> int:
    return _as_int(ctx.read(int(ctx.args[1])))


def _transfer_debit(ctx: "ProcedureContext") -> int:
    new_src = int(ctx.frames[0]) - int(ctx.args[2])
    ctx.write(int(ctx.args[0]), _encode_int(new_src))
    return new_src


def _transfer_credit(ctx: "ProcedureContext") -> Dict[str, int]:
    new_dst = int(ctx.frames[1]) + int(ctx.args[2])
    ctx.write(int(ctx.args[1]), _encode_int(new_dst))
    return {"src": int(ctx.frames[2]), "dst": new_dst}


register_procedure("transfer", [
    ("read_src", _transfer_read_src),
    ("read_dst", _transfer_read_dst),
    ("debit", _transfer_debit),
    ("credit", _transfer_credit),
])


class ProcedureContext:
    """What a step sees: its arguments, every persisted frame before it,
    and effect primitives with exactly-once identities."""

    __slots__ = ("engine", "pid", "args", "frames", "step", "_effects")

    def __init__(self, engine: "ProcedureEngine", pid: str,
                 args: Sequence[Any], frames: Sequence[Any], step: int):
        self.engine = engine
        self.pid = pid
        self.args = tuple(args)
        self.frames = tuple(frames)
        self.step = step
        self._effects = 0

    def read(self, key: int) -> Optional[bytes]:
        """Linearizable cluster read (no dedup identity needed: reads
        re-execute freely because their frame is the only effect)."""
        return self.engine.gateway.call_read("get", (key,))

    def write(self, key: int, value: bytes) -> Any:
        """Effectful cluster write under this step's dedup identity."""
        if self._effects >= EFFECT_STRIDE:
            raise ProcedureError(
                f"step {self.step} of {self.pid} exceeded {EFFECT_STRIDE} effects"
            )
        request_id = self.step * EFFECT_STRIDE + self._effects
        self._effects += 1
        return self.engine.gateway.call_write(
            "put", (key, bytes(value)), (key,),
            client_id=self.engine.client_tag(self.pid),
            request_id=request_id,
        )


# ---------------------------------------------------------------------------
# The durable frame log
# ---------------------------------------------------------------------------


class ProcedureStore:
    """Frame stack + result log in an NVM ring (one little pool).

    Three record types, JSON payloads, mirroring the placement service's
    checkpoint-and-truncate log:

    * ``begin`` — a procedure started (name + args);
    * ``frame`` — step ``step`` of ``pid`` bound ``bind``;
    * ``done`` — ``pid`` completed with ``result`` (retires its frames
      at the next compaction, keeps the result for replay).
    """

    def __init__(self, device: Optional[NVMDevice] = None,
                 log_bytes: int = LOG_BYTES, _replay: bool = False):
        self.device = device if device is not None else NVMDevice(DEVICE_BYTES, seed=0)
        if _replay:
            self.pool = PmemPool.open(self.device)
            self.ring = PersistentRing.open(self.pool.region(LOG_REGION))
        else:
            self.pool = PmemPool.create(self.device)
            self.ring = PersistentRing.create(
                self.pool.create_region(LOG_REGION, log_bytes)
            )
        #: pid -> {"name", "args", "frames"} for procedures mid-flight
        self.pending: Dict[str, dict] = {}
        #: pid -> result, insertion-ordered so replay eviction is FIFO
        self.done: "OrderedDict[str, Any]" = OrderedDict()
        self.recoveries = 0
        self.compactions = 0

    @classmethod
    def open(cls, device: NVMDevice) -> "ProcedureStore":
        """Rebuild the store from its durable log (server reboot)."""
        store = cls(device=device, _replay=True)
        for payload in store.ring.peek_all():
            rec = json.loads(payload.decode("utf-8"))
            if rec["t"] == "begin":
                store.pending[rec["pid"]] = {
                    "name": rec["name"], "args": list(rec["args"]), "frames": [],
                }
            elif rec["t"] == "frame":
                entry = store.pending.get(rec["pid"])
                # a frame below the current height is a compaction
                # re-append; a frame for a finished pid is stale history
                if entry is not None and rec["step"] == len(entry["frames"]):
                    entry["frames"].append(rec["bind"])
            elif rec["t"] == "done":
                store.pending.pop(rec["pid"], None)
                store.done[rec["pid"]] = rec["result"]
        return store

    def begin(self, pid: str, name: str, args: Sequence[Any]) -> None:
        self._log({"t": "begin", "pid": pid, "name": name, "args": list(args)})
        self.pending[pid] = {"name": name, "args": list(args), "frames": []}

    def push_frame(self, pid: str, step: int, bind: Any) -> None:
        """The frame-persist boundary: the append is flushed and fenced
        before the durable produce word advances, so the frame is all
        there or not there — the crash points the explorer sweeps."""
        self._log({"t": "frame", "pid": pid, "step": step, "bind": bind})
        self.pending[pid]["frames"].append(bind)

    def finish(self, pid: str, result: Any) -> None:
        self._log({"t": "done", "pid": pid, "result": result})
        self.pending.pop(pid, None)
        self.done[pid] = result
        while len(self.done) > KEEP_DONE:
            self.done.popitem(last=False)

    def crash_and_recover(self) -> "ProcedureStore":
        """Server power-fail: volatile state dies, the ring survives.

        Safe whether the device already crashed (a scheduled fail-point
        fired mid-append) or is being failed deliberately.  Rebuilds in
        place so holders of this store keep their reference.
        """
        if not self.device.crashed:
            self.device.crash()
        self.device.restart()
        reborn = ProcedureStore.open(self.device)
        self.pool = reborn.pool
        self.ring = reborn.ring
        self.pending = reborn.pending
        self.done = reborn.done
        self.recoveries += 1
        return self

    def _log(self, record: dict) -> None:
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        if self.ring.free_bytes < len(payload) + _COMPACT_HEADROOM:
            self._compact()
        self.ring.append(payload)

    def _compact(self) -> None:
        """Checkpoint-and-truncate: keep pending stacks and the bounded
        replay window, drop everything already both finished and aged."""
        self.compactions += 1
        self.ring.drain()
        for pid, entry in self.pending.items():
            self.ring.append(json.dumps(
                {"t": "begin", "pid": pid, "name": entry["name"],
                 "args": entry["args"]}, sort_keys=True).encode("utf-8"))
            for step, bind in enumerate(entry["frames"]):
                self.ring.append(json.dumps(
                    {"t": "frame", "pid": pid, "step": step, "bind": bind},
                    sort_keys=True).encode("utf-8"))
        for pid, result in self.done.items():
            self.ring.append(json.dumps(
                {"t": "done", "pid": pid, "result": result},
                sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ProcedureEngine:
    """Runs procedures against the cluster, persisting frames per step."""

    def __init__(self, gateway: ClusterGateway,
                 store: Optional[ProcedureStore] = None, durable: bool = True,
                 registry: Optional[Dict[str, DurableProcedure]] = None):
        self.gateway = gateway
        self.store = store if store is not None else ProcedureStore()
        self.durable = durable
        self.registry = dict(PROCEDURES) if registry is None else dict(registry)
        self.started = 0
        self.completed = 0
        self.resumes = 0
        self.resumed_replies = 0
        self.skipped_steps = 0
        self.replayed_steps = 0
        self._next_pid = 0
        self._bump_pid_floor()

    # -- identity --------------------------------------------------------------

    def client_tag(self, pid: str) -> str:
        """The dedup identity a procedure's effects are submitted under.

        Durable mode reuses the bare pid across crashes — the persistent
        stack is exactly what entitles a resumed execution to the
        original identity.  The unhardened volatile mode cannot know
        which ids a lost execution used, so each recovery incarnation
        gets a fresh identity (and with it, double-application)."""
        if self.durable:
            return f"proc:{pid}"
        return f"proc:{pid}:i{self.store.recoveries}"

    def _bump_pid_floor(self) -> None:
        """Keep auto-assigned pids clear of everything in the log."""
        for pid in list(self.store.pending) + list(self.store.done):
            m = _AUTO_PID.match(pid)
            if m is not None:
                self._next_pid = max(self._next_pid, int(m.group(1)) + 1)

    # -- execution -------------------------------------------------------------

    def _pending_map(self) -> Dict[str, dict]:
        return self.store.pending

    def _done_map(self) -> Dict[str, Any]:
        return self.store.done

    def result(self, pid: str) -> Optional[Any]:
        """The stored result of a completed pid (None if unknown)."""
        return self._done_map().get(pid)

    def run(self, name: str, args: Sequence[Any],
            pid: Optional[str] = None) -> Any:
        """Run (or resume) procedure ``name``; returns the result.

        A pid that already completed raises
        :class:`~repro.errors.ProcedureResumed` carrying the stored
        result — the exactly-once reply for a retrying client.  A pid
        still pending (a crashed execution) resumes from its last
        persisted frame.
        """
        if pid is None:
            pid = f"p{self._next_pid}"
            self._next_pid += 1
        done = self._done_map()
        if pid in done:
            self.resumed_replies += 1
            raise ProcedureResumed(
                f"procedure {pid} already completed; replaying stored result",
                pid=pid, result=done[pid],
            )
        pending = self._pending_map()
        if pid not in pending:
            if name not in self.registry:
                raise ProcedureError(f"unknown procedure '{name}'")
            self.store.begin(pid, name, list(args))
            self.started += 1
        return self._drive(pid)

    def resume_all(self) -> List[Tuple[str, Any]]:
        """Drive every pending procedure to completion (post-recovery).

        Returns ``(pid, result)`` pairs in pid order.  Frames persisted
        before the crash are skipped; only the interrupted step (and
        later ones) re-execute, and their committed effects are absorbed
        by the cluster's dedup."""
        out: List[Tuple[str, Any]] = []
        for pid in sorted(self._pending_map(), key=_pid_order):
            self.resumes += 1
            self.skipped_steps += len(self._pending_map()[pid]["frames"])
            out.append((pid, self._drive(pid, resuming=True)))
        return out

    def _drive(self, pid: str, resuming: bool = False) -> Any:
        entry = self._pending_map()[pid]
        proc = self.registry.get(entry["name"])
        if proc is None:
            raise ProcedureError(
                f"procedure '{entry['name']}' (pid {pid}) is not registered"
            )
        frames = entry["frames"]
        for step in range(len(frames), len(proc.steps)):
            ctx = ProcedureContext(self, pid, entry["args"], list(frames), step)
            bind = proc.steps[step][1](ctx)
            if resuming:
                self.replayed_steps += 1
            if self.durable:
                self.store.push_frame(pid, step, bind)
            else:
                # unhardened: the frame exists only in memory — a crash
                # rewinds this procedure to step 0 with a fresh identity
                frames.append(bind)
        result = frames[-1] if frames else None
        self.store.finish(pid, result)
        self.completed += 1
        return result

    # -- metrics ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "started": self.started,
            "completed": self.completed,
            "resumes": self.resumes,
            "resumed_replies": self.resumed_replies,
            "skipped_steps": self.skipped_steps,
            "replayed_steps": self.replayed_steps,
            "pending": len(self._pending_map()),
            "recoveries": self.store.recoveries,
            "compactions": self.store.compactions,
        }


def _pid_order(pid: str):
    m = _AUTO_PID.match(pid)
    return (0, int(m.group(1)), pid) if m else (1, 0, pid)
