"""Span tracer, installed from the benchmark's own files.

A traced run wraps the public boundary functions of every layer of the
program (device, heap, engine, log, locks, backup, KV store, runtime,
simulator, replication, cluster, serving, checker).  Each call becomes a
span: name, layer, start, end, parent span, operation id.  Aggregates
(calls, self time, inclusive time, caller->callee counts) are folded as
spans close; raw spans are kept only for the first ``raw_ops``
operations and written out when the run ends.

A span's *self time* is its duration minus the part its child spans
cover.  A call that reaches a layer without passing one of its wrapped
methods is charged to the caller's layer -- a documented limit of
tracing from outside the program.

Nothing here changes what the program computes: wrappers only read the
clock.  The traced run asserts that (simulated results and device
counters equal the untraced run's).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: the repo's packages, in stack order; ``other`` is everything outside
#: every wrapped span (asyncio, sockets, hashlib, the harness itself)
LAYERS = (
    "nvm",
    "heap",
    "tx.engine",
    "tx.log",
    "tx.lock",
    "tx.backup",
    "kvstore",
    "runtime",
    "sim",
    "replication",
    "cluster",
    "serve",
    "check",
    "other",
)

_MARK = "_perfbench_original"


class Tracer:
    """Folds spans into per-span-id aggregates; see the module docstring."""

    def __init__(self, raw_ops: int = 200, raw_spans: int = 50_000,
                 clock: Callable[[], int] = time.perf_counter_ns):
        #: raw spans are kept for the first ``raw_ops`` operations, and
        #: never more than ``raw_spans`` of them (a TPC-C transaction is
        #: two thousand spans)
        self.raw_ops = raw_ops
        self.raw_spans = raw_spans
        self.clock = clock
        self.enabled = False
        #: operation id of the span being recorded (-1 before the first)
        self.op = -1
        self.names: List[str] = []
        self.layers: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.incl_ns: List[int] = []
        #: kids[parent sid][child sid] = direct child spans
        self.kids: List[List[int]] = []
        #: per-sid span durations, kept only where asked for
        self.samples: List[Optional[List[int]]] = []
        self.top_ns = 0
        self.top_calls = 0
        self.raw: List[Tuple[int, int, int, int, int, int]] = []
        self.missing: List[str] = []
        self._sids: Dict[str, int] = {}
        self._stack: List[list] = []
        self._seq = 0
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # -- span ids --------------------------------------------------------------

    def sid(self, layer: str, name: str, sample: bool = False) -> int:
        """The id of span ``name`` (created on first use)."""
        key = f"{layer}:{name}"
        sid = self._sids.get(key)
        if sid is None:
            sid = self._sids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
            self.samples.append(None)
            self.kids.append([])
            width = len(self.names)
            for row in self.kids:
                row.extend([0] * (width - len(row)))
        if sample and self.samples[sid] is None:
            self.samples[sid] = []
        return sid

    def find(self, name: str) -> Optional[int]:
        for sid, known in enumerate(self.names):
            if known == name:
                return sid
        return None

    # -- wrapping ----------------------------------------------------------------

    def wrap(self, fn: Callable, sid: int, root: bool = False) -> Callable:
        """``fn`` recorded as span ``sid``; ``root`` spans start a new
        operation id."""
        tracer = self
        stack = self._stack
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        kids, samples, raw = self.kids, self.samples, self.raw
        clock = self.clock

        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if root:
                tracer.op += 1
            tracer._seq = seq = tracer._seq + 1
            frame = [sid, 0, seq]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                calls[sid] += 1
                incl_ns[sid] += dur
                self_ns[sid] += dur - frame[1]
                kept = samples[sid]
                if kept is not None:
                    kept.append(dur)
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    kids[parent[0]][sid] += 1
                    parent_seq = parent[2]
                else:
                    tracer.top_ns += dur
                    tracer.top_calls += 1
                    parent_seq = 0
                if tracer.op < tracer.raw_ops and seq <= tracer.raw_spans:
                    raw.append((seq, parent_seq, sid, t0, t1, tracer.op))

        functools.update_wrapper(span, fn)
        setattr(span, _MARK, fn)
        return span

    def install(
        self,
        owner: Any,
        attr: str,
        layer: str,
        role: str,
        root: bool = False,
        sample: bool = False,
    ) -> bool:
        """Replace ``owner.attr`` (a class's method or a module's
        function) by its span wrapper.  A target that does not exist is
        recorded under :attr:`missing` and skipped."""
        label = f"{role}.{attr}"
        static = inspect.getattr_static(owner, attr, None)
        if static is None or isinstance(static, (classmethod, property)):
            self.missing.append(f"{layer}:{label}")
            return False
        fn = getattr(owner, attr)
        fn = getattr(fn, _MARK, fn)
        wrapped = self.wrap(fn, self.sid(layer, label, sample), root)
        own = attr in vars(owner)
        self._patched.append((owner, attr, static, own))
        setattr(owner, attr, staticmethod(wrapped) if isinstance(static, staticmethod) else wrapped)
        return True

    def install_many(
        self, owner: Any, attrs: Iterable[str], layer: str, role: str, **opts: Any
    ) -> None:
        for attr in attrs:
            self.install(owner, attr, layer, role, **opts)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        for owner, attr, static, own in reversed(self._patched):
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def next_op(self) -> None:
        """Start a new operation id (for runs whose operations begin in
        the harness, not in a root span)."""
        self.op += 1

    # -- results -----------------------------------------------------------------

    def total_calls(self) -> int:
        return sum(self.calls)

    def by_layer(
        self, wall_ns: int, inner_ns: float = 0.0, outer_ns: float = 0.0
    ) -> Dict[str, Dict[str, float]]:
        """Per-layer calls and self time, with the calibrated cost of
        the spans themselves taken out.

        A span costs ``inner_ns`` inside its own window and ``outer_ns``
        outside it (charged to whatever encloses it).  ``other`` is the
        wall time no span covers.  The removed cost is returned under
        the pseudo-layer ``span_overhead`` so that all entries still add
        up to ``wall_ns``.
        """
        out = {layer: {"calls": 0, "self_ns": 0.0} for layer in LAYERS}
        removed = 0.0
        for sid, layer in enumerate(self.layers):
            cost = self.calls[sid] * inner_ns + sum(self.kids[sid]) * outer_ns
            removed += cost
            entry = out.setdefault(layer, {"calls": 0, "self_ns": 0.0})
            entry["calls"] += self.calls[sid]
            entry["self_ns"] += self.self_ns[sid] - cost
        top_cost = self.top_calls * outer_ns
        removed += top_cost
        out["other"]["self_ns"] += wall_ns - self.top_ns - top_cost
        for entry in out.values():
            if entry["self_ns"] < 0:
                # an over-estimated overhead on a near-empty layer
                removed += entry["self_ns"]
                entry["self_ns"] = 0.0
        out["span_overhead"] = {"calls": self.total_calls(), "self_ns": removed}
        return out

    def span_table(self) -> List[Dict[str, Any]]:
        """One row per span id that was called, largest self time first."""
        rows = [
            {
                "name": self.names[sid],
                "layer": self.layers[sid],
                "calls": self.calls[sid],
                "self_ns": self.self_ns[sid],
                "incl_ns": self.incl_ns[sid],
            }
            for sid in range(len(self.names))
            if self.calls[sid]
        ]
        rows.sort(key=lambda row: -row["self_ns"])
        return rows

    def calls_of(self, *names: str) -> int:
        return sum(self.calls[sid] for sid in map(self.find, names) if sid is not None)

    def self_of(self, *names: str) -> int:
        return sum(self.self_ns[sid] for sid in map(self.find, names) if sid is not None)

    def incl_of(self, *names: str) -> int:
        return sum(self.incl_ns[sid] for sid in map(self.find, names) if sid is not None)

    def children_in_layer(self, parent: str, layer: str) -> int:
        """Direct child spans of ``parent`` that belong to ``layer``."""
        p = self.find(parent)
        if p is None:
            return 0
        return sum(n for sid, n in enumerate(self.kids[p]) if self.layers[sid] == layer)

    def samples_of(self, name: str) -> List[int]:
        sid = self.find(name)
        if sid is None:
            return []
        return self.samples[sid] or []

    def write_raw(self, path) -> int:
        """Write the raw spans kept in memory as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for seq, parent, sid, t0, t1, op in self.raw:
                out.write(
                    json.dumps(
                        {
                            "span": seq,
                            "parent": parent,
                            "name": self.names[sid],
                            "layer": self.layers[sid],
                            "start_ns": t0,
                            "end_ns": t1,
                            "op": op,
                        }
                    )
                )
                out.write("\n")
        return len(self.raw)


def calibrate(repeats: int = 5, calls: int = 20000) -> Tuple[float, float]:
    """Cost of one span around an empty function: ``(inner_ns,
    outer_ns)`` -- the part inside the span's own window and the part its
    parent sees.  Minimum over ``repeats`` (host noise only adds)."""

    def empty() -> None:
        pass

    def loop(fn: Callable[[], None]) -> None:
        for _ in range(calls):
            fn()

    inner: List[float] = []
    outer: List[float] = []
    for _ in range(repeats):
        tracer = Tracer(raw_spans=0)
        child = tracer.wrap(empty, tracer.sid("other", "calib.child"))
        parent = tracer.wrap(loop, tracer.sid("other", "calib.parent"))
        t0 = time.perf_counter_ns()
        loop(empty)
        bare = time.perf_counter_ns() - t0
        tracer.enabled = True
        parent(child)
        tracer.enabled = False
        inner.append(tracer.self_ns[0] / calls)
        outer.append(max(0.0, (tracer.self_ns[1] - bare) / calls))
    return min(inner), min(outer)


# ---------------------------------------------------------------------------
# What gets wrapped in this repo
# ---------------------------------------------------------------------------

#: classes and modules named by import path: (module, class or None,
#: layer, role, methods, options)
_FIXED: Sequence[Tuple[str, Optional[str], str, str, Sequence[str], Dict[str, Any]]] = (
    (
        "repro.heap.heap", "PersistentHeap", "heap", "PersistentHeap",
        ("begin", "alloc", "alloc_blob", "free", "deref", "read_object_field",
         "write_object_field", "read_blob", "read_blob_at", "write_blob",
         "write_blob_at", "tx_raw_write", "tx_add"), {},
    ),
    # ``obj.field`` loads inline ``read_object_field`` in the descriptor,
    # so the descriptor is the boundary field reads actually cross
    ("repro.heap.object", "_FieldDescriptor", "heap", "field", ("__get__", "__set__"), {}),
    ("repro.tx.intent_log", "TxLog", "tx.log", "TxLog",
     ("append", "make_durable", "set_state", "release"), {}),
    ("repro.kvstore.kv", "KVStore", "kvstore", "KVStore",
     ("get", "put", "delete", "scan", "read_modify_write"), {"sample": True}),
    ("repro.kvstore.btree", "BPlusTree", "kvstore", "BPlusTree",
     ("get", "put", "delete", "scan"), {}),
    ("repro.runtime.context", "ExecutionContext", "runtime", "ExecutionContext",
     ("run_tx",), {"root": True}),
    # the virtual-client scheduler runs as event callbacks and has no
    # public boundary; without these its work would read as ``sim``
    ("repro.runtime.online", "VirtualClients", "runtime", "VirtualClients",
     ("_try_start", "_transfer_crit", "_commit", "_start_sync", "_release"), {}),
    ("repro.nvm.stats", "NVMStats", "runtime", "NVMStats", ("snapshot",), {}),
    ("repro.sim.events", "EventSimulator", "sim", "EventSimulator", ("run",), {}),
    ("repro.sim.network", "SimNetwork", "sim", "SimNetwork", ("send",), {}),
    ("repro.sim.resources", "FIFOServer", "sim", "FIFOServer", ("request",), {}),
    ("repro.replication.chain", "ChainCluster", "replication", "ChainCluster",
     ("submit_write", "submit_read"), {}),
    ("repro.replication.node", "ReplicaNode", "replication", "ReplicaNode",
     ("execute", "persist_to_input_queue", "sync_backup"), {}),
    ("repro.cluster.sharded", "ShardedCluster", "cluster", "ShardedCluster",
     ("submit_write", "submit_read", "route"), {}),
    ("repro.serve.server", "ReproServer", "serve", "ReproServer", ("handle_batch",), {}),
    ("repro.serve.protocol", "ProtocolReader", "serve", "ProtocolReader",
     ("feed", "pop_all"), {}),
    ("repro.serve.admission", "AdmissionController", "serve", "AdmissionController",
     ("admit",), {}),
    ("repro.serve.gateway", "ClusterGateway", "serve", "ClusterGateway",
     ("call_write", "call_read"), {}),
    ("repro.check.explorer", "CrashExplorer", "check", "CrashExplorer",
     ("replay",), {"root": True, "sample": True}),
    # the oracle entry points, as the explorer module sees them
    ("repro.check.explorer", None, "check", "oracle",
     ("check_against_ledger", "verify_backup_consistency"), {}),
    ("repro.check.explorer", None, "tx.engine", "recovery", ("reopen_after_crash",), {}),
)

_DEVICE = ("__init__", "read", "write", "copy", "flush", "flush_multi", "fence",
           "persist_all", "crash", "restart", "clone_durable", "overlay_fingerprint")
_ENGINE = ("begin", "on_add", "on_read", "commit", "abort", "sync_pending", "recover")
_BACKUP = ("ensure_copy", "absorb", "absorb_entries", "restore")
_CHECK_WORKLOAD = ("setup", "step", "observe", "validate")


def _lock_methods(cls: type) -> List[str]:
    return sorted(
        name
        for name in dir(cls)
        if name.startswith(("acquire_", "release_")) or name == "mark_pending"
    )


def install_repo_spans(
    tracer: Tracer, devices: Iterable[Any] = (), engines: Iterable[Any] = (),
    check_workload: Optional[str] = None,
) -> None:
    """Wrap every layer boundary of the program.

    ``devices`` and ``engines`` are live objects of the run: their
    concrete classes (and those of each engine's log manager, lock table
    and backup strategy) are what gets patched, so a run on another
    device backend or engine is traced without editing this file.
    """
    for module_name, class_name, layer, role, methods, opts in _FIXED:
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            tracer.missing.extend(f"{layer}:{role}.{m}" for m in methods)
            continue
        tracer.install_many(owner, methods, layer, role, **opts)
    seen: set = set()

    def once(obj: Any) -> Optional[type]:
        cls = type(obj)
        if obj is None or cls in seen:
            return None
        seen.add(cls)
        return cls

    for device in devices:
        cls = once(device)
        if cls is not None:
            tracer.install_many(cls, _DEVICE, "nvm", "NVMDevice")
    for engine in engines:
        cls = once(engine)
        if cls is not None:
            tracer.install_many(cls, _ENGINE, "tx.engine", "Engine")
        cls = once(getattr(engine, "log", None))
        if cls is not None:
            tracer.install_many(cls, ("acquire",), "tx.log", "LogManager")
        cls = once(getattr(engine, "locks", None))
        if cls is not None:
            tracer.install_many(cls, _lock_methods(cls), "tx.lock", "LockTable")
        cls = once(getattr(engine, "backup", None))
        if cls is not None:
            tracer.install_many(cls, _BACKUP, "tx.backup", "Backup")
    if check_workload is not None:
        try:
            canned = importlib.import_module("repro.check.workload").CANNED_WORKLOADS
            cls = canned[check_workload]
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"check:CheckWorkload[{check_workload}]")
        else:
            if isinstance(cls, type):
                tracer.install_many(cls, _CHECK_WORKLOAD, "check", "CheckWorkload")
            else:
                tracer.missing.append(f"check:CheckWorkload[{check_workload}]")
