"""Retired harnesses, options and the second device stay gone.

``perfbench/`` is the one perf harness; ``lock_mode``, ``device_cls`` and
the trace-then-replay matrix existed so ``repro.bench.wallclock`` could
compare the stack against itself.  There is one NVM device: the numpy
byte store, its backend selector and every ``backend`` option that fed
it are deleted, and the core imports nothing outside the standard
library.  A leftover keyword or flag must fail loudly, not vanish into
``**engine_kwargs``.

Every crash sweep runs on one loop (:mod:`repro.parallel`): the worker
job functions, the nemesis corpus wrapper, the chain ``pump`` veneer and
the constructor keywords only those jobs set are gone, and so are the
unused persistent hash table and the chain-budget knob nothing read.

The integrity tree has one propagation scheme: the eager baseline, its
mode selector, the watermark and sidecar-bless options and the CLI's
streamed-vs-eager comparison are gone, and ``tree`` is a plain switch.
So are the single-value options nothing passed and the fifth copy of the
op counter in ``repro.sim``.

Each engine is declared once, by its registration: ``kamino-finegrained``
is a factory over the one Kamino engine, the intent-only engine loads
with every other, and the class-level copy flag, the lock-counter
snapshot and the ``lock_timeout`` keyword nothing passed are gone.

An engine is priced from the engine the scheduler or replica holds, not
from its name: a lock op costs its lock table's ``cost``, and log-arena
management is one constant charged when the engine has a log data
arena.  The engine cost rows, their combination, the capabilities'
restated lock table and late-unlock flag, and the registry's
longest-prefix name match are gone.  So are the Kamino engine's
``coalesce_sync`` and ``recover(lazy=)`` switches, which only selected
a reference leg or repeated the ``lazy_recovery`` flag: the
entry-at-a-time sync lives in the tests (``tests/tx/entrywise_sync.py``).

The front door keeps no copies: the gateway runs the chain client's
request ladder, and the placement service and the procedure store are
one journal, so neither takes a ``_replay`` flag and the engine's
private views of the store are gone.

Which bytes back up which is the backup strategy's one answer
(``copies`` / ``partner_line``): no module finds the mirror by region
name or size, type-tests for the full mirror, or duck-types the engine's
backup or the device's media, and the heap no longer places its live
spans in a second region.  The surfaces nothing called are gone with it.

Operations reach virtual time one way, :func:`repro.runtime.run_online`:
the trace-then-replay runners, the record-queue source, ``run_ops``,
``run_tx``'s clock charge and the ``sync_lag_ns`` delay nothing set are
gone.

A write on a degraded chain has one answer: a typed ``ClusterDegraded``
the head does not record, ridden out by the request ladder.  The
head-side and admission-side queue-and-readmit paths, the breaker
listeners and the gateway's terminal exception are gone, and so are the
protocol names nothing sends or raises and the ``build_stack`` veneer.

A transaction is priced one way, by its context
(``ExecutionContext.execute`` / ``drain``): a chain replica prices through
its own context, so ``NVMStats.cost_since``, the replica's own marks and
trace hook, and the per-intent charge it cached by hand are gone, and
``run_tx`` grows no option.  A replica's engine and heap are rebound in
one place (``ReplicaNode.open_stack``): ``_set_engine`` is gone and no
module outside ``node.py`` assigns them.  The clock is moved only by the
event simulator, so ``SimClock.advance`` / ``advance_to`` are gone.

Constructors take only what a deployment chooses: every option nothing
in the program set became the constant it always was (the census in
``tests/test_option_census.py`` keeps it so), the surfaces only their
own unit tests called are gone, and so is the per-group split of the
transport's counters.  Whether an engine keeps a backup or copies data
in the critical path is read off the built engine, not restated in its
registration.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.bench
import repro.check.chain
import repro.integrity
import repro.kvstore
import repro.replication
import repro.runtime.registry
import repro.sim
import repro.sim.resources
import repro.tx
import repro.tx.finegrained
import repro.tx.striped_locks
from repro.check import ChainCrashExplorer, MigrationCrashExplorer
from repro.check.pytest_plugin import CheckBudget
from repro.cli import main
from repro.cluster.placement import PlacementService
from repro.cluster.router import ShardMap
from repro.integrity import IntegrityTree
from repro.nvm import NVMDevice
from repro.tx.dynamic import DynamicBackup
from repro.tx.recovery import verify_backup_consistency
from repro.nvm.backend import device_class
from repro.nvm.reference import ReferenceNVMDevice
from repro.runtime import ExecutionContext
from repro.runtime.registry import EngineCapabilities, make_engine, registered_engines
from repro.serve import ProcedureEngine, ProcedureStore, ServeCrashExplorer

ROOT = Path(__file__).resolve().parents[1]

DEVICE_CLASSES = [NVMDevice, ReferenceNVMDevice]


@pytest.mark.parametrize("cls", DEVICE_CLASSES, ids=lambda cls: cls.__name__)
def test_devices_take_no_lock_mode(cls):
    with pytest.raises(TypeError):
        cls(4096, lock_mode="locked")


@pytest.mark.parametrize(
    "knob, value",
    [("lock_mode", "uncontended"), ("device_cls", ReferenceNVMDevice), ("backend", "pure")],
)
def test_create_rejects_retired_knobs(knob, value):
    with pytest.raises(TypeError):
        ExecutionContext.create("undo", value_size=64, heap_mb=1, **{knob: value})


def test_source_tree_names_none_of_them():
    retired = re.compile(
        r"lock_mode|device_cls|wallclock|_PlainSync|_NullLock|set_lock_mode"
    )
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = retired.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"
    assert not list(ROOT.glob("BENCH_PR*.json"))


@pytest.mark.parametrize("verb", ["scrub", "contend", "check", "cluster"])
def test_cli_verbs_take_no_backend_flag(verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--backend", "pure"])
    assert exc.value.code == 2


def test_the_numpy_device_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.nvm.numpy_device")


def test_source_tree_names_no_second_device():
    retired = re.compile(
        r"REPRO_NVM_BACKEND|set_default_backend|resolve_backend|available_backends"
        r"|make_device|HAVE_NUMPY|NumpyNVMDevice|numpy"
    )
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = retired.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"


def test_the_perfbench_shim_knows_one_device():
    assert device_class("pure") is NVMDevice
    with pytest.raises(RuntimeError):
        device_class("numpy")


_STDLIB_PROBE = """
import sys
import repro
from repro.check import CrashExplorer
from repro.runtime import ExecutionContext
from repro.runtime.registry import EngineCapabilities, make_engine, registered_engines
from repro.serve import ProcedureEngine, ProcedureStore, ServeCrashExplorer
ExecutionContext.create("kamino-simple", value_size=64, heap_mb=1)
assert CrashExplorer("kamino-simple", workload="kv").explore(max_points=4).ok
print("numpy" in sys.modules)
"""


def test_the_core_runs_without_importing_numpy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "cls, knob",
    [
        (ServeCrashExplorer, "groups"),
        (ServeCrashExplorer, "shards_per_group"),
        (MigrationCrashExplorer, "f"),
        (MigrationCrashExplorer, "n_keys"),
        (MigrationCrashExplorer, "shards_per_group"),
    ],
)
def test_explorers_take_no_job_only_keywords(cls, knob):
    with pytest.raises(TypeError):
        cls(**{knob: 2})


def test_check_budget_has_no_chain_knob():
    with pytest.raises(TypeError):
        CheckBudget(
            name="quick", max_points=24, random_samples=1, max_nested_points=3,
            chain_max_points=8,
        )


def test_sweep_veneers_and_the_hash_table_are_gone():
    assert not hasattr(repro.check.chain, "explore_nemesis")
    assert not hasattr(ChainCrashExplorer, "pump")
    assert not hasattr(repro.kvstore, "PersistentHashTable")
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.kvstore.hashtable")


def test_source_tree_defines_no_worker_job_function():
    job = re.compile(r"^\s*def _\w*_job\b", re.MULTILINE)
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = job.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0).strip()}"


@pytest.mark.parametrize("knob, value", [("mode", "eager"), ("watermark", 8)])
def test_the_tree_has_one_propagation_scheme(knob, value):
    with pytest.raises(TypeError):
        IntegrityTree(64, **{knob: value})
    assert not hasattr(repro.integrity, "TREE_MODES")


def test_attach_media_takes_no_bless():
    with pytest.raises(TypeError):
        NVMDevice(4096).attach_media(seed=0, bless=True)


@pytest.mark.parametrize(
    "argv",
    [["scrub", "--tree-compare"], ["check", "--tree", "eager"], ["scrub", "--tree", "streamed"]],
    ids=["scrub-tree-compare", "check-tree-eager", "scrub-tree-streamed"],
)
def test_tree_is_a_flag(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_single_value_options_are_gone():
    with pytest.raises(TypeError):
        DynamicBackup(alpha=0.5, lookup_entries=64)
    ctx = ExecutionContext.create("kamino-simple", value_size=64, heap_mb=1)
    with pytest.raises(TypeError):
        verify_backup_consistency(ctx.heap, sample_every=2)
    with pytest.raises(TypeError):
        repro.kvstore.KVStore.create(ctx.heap, value_size=64, publish_root=False)
    with pytest.raises(TypeError):
        ctx.heap.pool.quarantine_line(0, spares=4)


def test_the_sim_op_counter_and_tpcc_trace_runner_are_gone():
    assert not hasattr(repro.bench, "trace_tpcc")
    assert not hasattr(repro.sim, "crash_points")
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.sim.failure")


def test_each_engine_is_declared_once():
    assert not hasattr(repro.tx, "FineGrainedKaminoEngine")
    assert not hasattr(repro.tx.finegrained, "FineGrainedKaminoEngine")
    assert not hasattr(repro.tx, "LockTableStats")
    assert not hasattr(repro.tx.striped_locks, "LockTableStats")
    assert not hasattr(repro.tx.striped_locks.StripedLockTable, "stats_snapshot")
    assert not hasattr(repro.sim.resources, "ENGINE_COST_MODELS")
    assert not hasattr(repro.runtime.registry, "_EXTRAS_LOADED")
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.replication.inplace_engine")
    assert not hasattr(repro.replication, "IntentOnlyEngine")
    with pytest.raises(TypeError):
        EngineCapabilities(cost_profile="kamino")


@pytest.mark.parametrize("name", sorted(registered_engines()))
def test_engines_take_no_lock_timeout_and_carry_no_copy_flag(name):
    with pytest.raises(TypeError):
        make_engine(name, lock_timeout=1)
    assert not hasattr(make_engine(name), "copies_in_critical_path")


def test_the_journal_owners_take_no_replay_flag():
    with pytest.raises(TypeError):
        ProcedureStore(_replay=True)
    with pytest.raises(TypeError):
        PlacementService(ShardMap({0: 0}, version=1), _replay=True)
    assert not hasattr(ProcedureEngine, "_pending_map")
    assert not hasattr(ProcedureEngine, "_done_map")


def test_the_serve_layer_does_not_duck_type_the_cluster():
    for path in sorted((ROOT / "src" / "repro" / "serve").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "getattr(" not in text and "hasattr(" not in text, path


def test_the_backup_strategy_is_the_one_pairing():
    pairing = re.compile(
        r"regions\.get\(\"backup\"\)|isinstance\([^)]*FullBackup\)"
        r"|getattr\([^)]*\"(?:backup|media)\", None\)"
    )
    owners = {ROOT / "src" / "repro" / "tx" / "backup.py", ROOT / "src" / "repro" / "tx" / "dynamic.py"}
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path in owners:
            continue
        match = pairing.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"
    ctx = ExecutionContext.create("kamino-simple", value_size=64, heap_mb=1)
    with pytest.raises(TypeError):
        ctx.heap.live_spans(ctx.engine.backup.region)


def test_uncalled_surfaces_are_gone():
    import repro.bench.timeline
    import repro.cluster
    import repro.errors
    import repro.nvm
    import repro.nvm.stats
    from repro.cluster.sharded import ShardedCluster
    from repro.heap.alloc import SlabAllocator
    from repro.integrity.checksum import ChecksumSidecar
    from repro.integrity.scrub import ScrubReport
    from repro.replication.membership import MembershipManager
    from repro.sim.network import SimNetwork
    from repro.tx.base import Transaction
    from repro.tx.intent_log import TxLog

    for module, name in [
        (repro, "ClusterReport"),
        (repro.cluster, "ClusterReport"),
        (repro.nvm, "StatsStack"),
        (repro.nvm.stats, "StatsStack"),
        (repro.bench.timeline, "_engine_has_commit_record"),
        (repro.errors, "NestedTransactionError"),
        (SlabAllocator, "reload_after_recovery"),
        (ShardedCluster, "n_shards"),
        (ShardedCluster, "group_for_key"),
        (ShardedCluster, "group_kv_states"),
        (MembershipManager, "heartbeat"),
        (SimNetwork, "clear_link_policy"),
        (TxLog, "_entry_off"),
        (ExecutionContext, "attach"),
        (Transaction, "note_read"),
        (ChecksumSidecar, "forget"),
        (ScrubReport, "merge"),
    ]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_operations_reach_virtual_time_one_way():
    import repro.runtime

    for name in ("replay", "trace_ycsb", "trace_tpcc"):
        assert not hasattr(repro.bench, name), name
    assert not hasattr(repro.runtime, "replay_records")
    assert not hasattr(ExecutionContext, "run_ops")
    ctx = ExecutionContext.create("undo", value_size=64, heap_mb=1)
    with pytest.raises(TypeError):
        repro.runtime.run_online(ctx, [], lambda op: None, 1, sync_lag_ns=0.0)
    with pytest.raises(TypeError):
        ctx.run_tx("put", lambda: ctx.kv.put(1, b"x"), charge=False)
    assert ctx.records == []


def test_source_tree_names_no_second_scheduler_input():
    retired = re.compile(
        r"replay_records|_RecordQueueSource|trace_ycsb|trace_tpcc|sync_lag_ns"
        r"|ctx\.run_ops|def run_ops\(self, ops|charge=|bench import[^\n]*\breplay\b"
    )
    for tree in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            match = retired.search(path.read_text(encoding="utf-8"))
            assert match is None, f"{path}: {match.group(0)}"


def test_a_degraded_chain_has_one_answer():
    from repro.cluster.sharded import ShardedCluster
    from repro.replication import ChainCluster
    from repro.replication.client import Request, Submitter
    from repro.serve import AdmissionConfig

    with pytest.raises(TypeError):
        ChainCluster(f=1, heap_mb=1, value_size=64, degraded_policy="queue")
    for knob, value in [("policy", "queue"), ("queue_limit", 4), ("max_wait_ns", 1.0)]:
        with pytest.raises(TypeError):
            AdmissionConfig(**{knob: value})
    submitter = Submitter(ChainCluster(f=1, heap_mb=1, value_size=64), None)
    with pytest.raises(TypeError):
        Request(submitter, "put", (1, b"v"), [1], terminal=())
    for cls in (ChainCluster, ShardedCluster):
        assert not hasattr(cls, "add_degradation_listener"), cls.__name__


def test_source_tree_names_no_degraded_queue():
    retired = re.compile(r"degraded_policy|_degraded_queue|queue-and-readmit")
    for tree in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            match = retired.search(path.read_text(encoding="utf-8"))
            assert match is None, f"{path}: {match.group(0)}"


def test_names_nothing_sends_or_raises_are_gone():
    import repro.errors
    import repro.replication.messages

    for module, name in [
        (repro.replication.messages, "TxRequest"),
        (repro.replication.messages, "ReadRequest"),
        (repro.replication.messages, "ReadReply"),
        (repro.replication.messages, "ClientReply"),
        (repro.replication, "TxRequest"),
        (repro.errors, "NodeFailedError"),
        (repro.errors, "ProcedureAborted"),
        (repro, "ProcedureAborted"),
        (repro.bench, "build_stack"),
    ]:
        assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_a_transaction_is_priced_one_way():
    import inspect

    from repro.nvm.stats import NVMStats
    from repro.replication.node import ReplicaNode
    from repro.runtime import SimClock

    assert not hasattr(NVMStats, "cost_since")
    assert not hasattr(ReplicaNode, "_set_engine")
    node = ReplicaNode("r0", "kamino", True, heap_mb=1, value_size=64)
    assert not hasattr(node, "_serial_ns_per_intent")
    for name in ("advance", "advance_to"):
        assert not hasattr(SimClock, name), name
    params = inspect.signature(ExecutionContext.run_tx).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("kind", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("fn", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("args", inspect.Parameter.VAR_POSITIONAL),
    ]


def test_replication_prices_nothing_itself_and_rebinds_in_one_place():
    private = re.compile(r"NVMStats\.mark|interval_cost|cost_since|trace_hook")
    for path in sorted((ROOT / "src" / "repro" / "replication").glob("*.py")):
        match = private.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"
    rebind = re.compile(r"(?<!self)\.(?:engine|heap)\s*=(?!=)")
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = rebind.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"


def test_an_engine_is_priced_from_the_engine_it_is():
    import inspect

    from repro.runtime.online import VirtualClients
    from repro.tx import kamino_simple
    from repro.tx.backup import BackupStrategy
    from repro.tx.kamino import KaminoEngine

    for name in (
        "EngineCostModel", "SchedulerCost", "DEFAULT_COST", "LOGGING_COST",
        "UNREGISTERED_COST", "_combined", "cost_model_for",
    ):
        assert not hasattr(repro.sim.resources, name), name
        assert not hasattr(repro.sim, name), name
    assert not hasattr(repro.runtime.registry, "_global_lock_table")
    for knob in ("cost", "lock_table", "locks_released_after_sync"):
        with pytest.raises(TypeError):
            EngineCapabilities(**{knob: None})
    assert {"cost", "locks_after_sync"}.isdisjoint(VirtualClients.__slots__)
    assert repro.runtime.registry.find_registered("kamino-dynamic-30") is None
    with pytest.raises(TypeError):
        kamino_simple(coalesce_sync=False)
    assert list(inspect.signature(KaminoEngine.recover).parameters) == ["self"]
    assert "absorb_entries" in BackupStrategy.__abstractmethods__


def test_source_tree_names_no_cost_row():
    retired = re.compile(
        r"cost_model_for|EngineCostModel|SchedulerCost|LOGGING_COST|DEFAULT_COST"
        r"|UNREGISTERED_COST|serial_includes_copy|locks_released_after_sync"
        r"|lock_table=|locks_after_sync|coalesce_sync|late-unlock"
    )
    for tree in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / tree).rglob("*.py")):
            match = retired.search(path.read_text(encoding="utf-8"))
            assert match is None, f"{path}: {match.group(0)}"


def _chain(**kw):
    from repro.replication import ChainCluster

    return ChainCluster(f=1, heap_mb=1, value_size=64, **kw)


def _sharded(**kw):
    from repro.cluster.sharded import ShardedCluster

    return ShardedCluster(groups=1, shards_per_group=1, f=1, heap_mb=1,
                          value_size=64, **kw)


def _retired_calls():
    """(label, callable taking the retired keyword(s)) for every option
    and argument nothing in the program set."""
    from repro.bench.timeline import TimelineRecorder
    from repro.check.workload import KVWorkload, RingWorkload, build_stack
    from repro.errors import RootMismatchError
    from repro.faults import minimize
    from repro.integrity.checksum import ChecksumSidecar
    from repro.integrity.model import MediaFaultModel
    from repro.replication import (
        MembershipManager,
        join_new_replica,
        replace_node,
        run_clients,
        settle,
    )
    from repro.replication.node import ReplicaNode
    from repro.serve import ReproServer
    from repro.sim.network import SimNetwork
    from repro.workloads.synthetic import DependentTxWorkload, WorstCaseWorkload

    return [
        ("ShardedCluster", _sharded, ["alpha", "model", "hop_ns", "vnodes", "runtime", "placement"]),
        ("ChainCluster", _chain, ["sim", "hop_ns", "model", "degraded_cooldown_ns"]),
        ("ReplicaNode", lambda **kw: ReplicaNode("r0", "kamino", True, heap_mb=1, **kw), ["model"]),
        ("join_new_replica", lambda **kw: join_new_replica(None, **kw), ["heap_mb", "value_size"]),
        ("replace_node", lambda **kw: replace_node(None, 0, **kw), ["value_size", "spare_id"]),
        ("settle", lambda **kw: settle(None, **kw), ["rounds"]),
        ("run_clients", lambda **kw: run_clients(None, [], **kw), ["retry"]),
        ("ReproServer", ReproServer, ["retry", "cluster", "store", "durable"]),
        ("ProcedureEngine", lambda **kw: ProcedureEngine(None, **kw), ["registry"]),
        ("ExecutionContext", ExecutionContext, ["clock", "events"]),
        ("MembershipManager", MembershipManager, ["failure_timeout_ns"]),
        ("SimNetwork.send", lambda **kw: SimNetwork.send(None, "a", "b", 0, **kw), ["extra_delay_ns"]),
        ("inject_flips", lambda **kw: MediaFaultModel.inject_flips(None, 1, **kw), ["lo", "hi"]),
        ("kill_lines", lambda **kw: MediaFaultModel.kill_lines(None, 1, **kw), ["lo", "hi"]),
        ("bad_lines", lambda **kw: MediaFaultModel.bad_lines(None, **kw), ["first", "last"]),
        ("ChecksumSidecar.scan", lambda **kw: ChecksumSidecar.scan(None, b"", **kw), ["first", "last"]),
        ("IntegrityTree.recover", lambda **kw: IntegrityTree.recover(None, **kw), ["durable"]),
        ("KVWorkload", KVWorkload, ["n_base", "value_size"]),
        ("RingWorkload", RingWorkload, ["n_appends"]),
        ("build_stack", lambda **kw: build_stack(None, **kw), ["heap_size"]),
        ("DependentTxWorkload", lambda **kw: DependentTxWorkload(10, **kw), ["insert_fraction"]),
        ("WorstCaseWorkload", WorstCaseWorkload, ["seed"]),
        ("minimize", lambda **kw: minimize(None, 0, **kw), ["budget"]),
        ("TimelineRecorder", lambda **kw: TimelineRecorder(None, None, **kw), ["model"]),
        ("RootMismatchError", lambda **kw: RootMismatchError("m", **kw), ["lines"]),
        ("PlacementService.bootstrap", lambda **kw: PlacementService.bootstrap(1, **kw),
         ["vnodes", "device"]),
        ("EngineCapabilities", EngineCapabilities, ["has_backup", "copies_in_critical_path"]),
    ]


_RETIRED = [(label, call, knob) for label, call, knobs in _retired_calls() for knob in knobs]


@pytest.mark.parametrize(
    "call, knob", [(call, knob) for _label, call, knob in _RETIRED],
    ids=[f"{label}-{knob}" for label, _call, knob in _RETIRED],
)
def test_options_nothing_set_are_gone(call, knob):
    # the keyword itself is refused, not some value passed for it
    with pytest.raises(TypeError, match=f"'{knob}'|takes no (keyword )?arguments"):
        call(**{knob: None})


def test_surfaces_only_their_tests_called_are_gone():
    import repro.cluster.router
    import repro.cluster.sharded
    import repro.replication.node
    from repro.check import pytest_plugin
    from repro.cluster import ShardRouter
    from repro.integrity.scrub import Scrubber
    from repro.replication import MembershipManager
    from repro.sim.network import NetStats, SimNetwork

    for owner, name in [
        (NetStats, "groups"),
        (NetStats, "group"),
        (SimNetwork, "assign_group"),
        (SimNetwork, "group_of"),
        (SimNetwork, "_count"),
        (Scrubber, "arm"),
        (Scrubber, "disarm"),
        (MembershipManager, "is_quick_reboot"),
        (MembershipManager, "validate_view"),
        (MembershipManager, "order"),
        (MembershipManager, "neighbours"),
        (MembershipManager, "current"),
        (repro.replication, "ViewInfo"),
        (repro.replication.node, "ROLE_HEAD"),
        (repro.replication.node, "ROLE_MID"),
        (repro.replication.node, "ROLE_TAIL"),
        (repro.cluster, "RangeRouter"),
        (repro.cluster.router, "RangeRouter"),
        (repro.cluster.router, "router_from_dict"),
        (ShardRouter, "with_shard"),
        (ShardRouter, "without_shard"),
        (pytest_plugin, "media_faults"),
        (pytest_plugin, "cluster_sweeps"),
        (repro.cluster.sharded, "group_tag"),
        (EngineCapabilities, "has_backup"),
        (EngineCapabilities, "copies_in_critical_path"),
    ]:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    assert not hasattr(SimNetwork(repro.sim.EventSimulator()), "_node_group")
    assert not hasattr(NetStats(), "groups")
    cluster = _chain()
    assert not hasattr(cluster, "degraded_cooldown_ns")
    assert not hasattr(cluster.head, "model")
    tx = cluster.head.engine.begin()
    assert not hasattr(tx, "on_commit")
    tx.abort()


def test_source_tree_names_no_group_split_or_uncalled_hook():
    retired = re.compile(r"assign_group|group_of|on_commit|is_quick_reboot|validate_view")
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = retired.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"


def test_chain_shape_has_one_record():
    # the chain's order is ChainCluster.chain and a replica's role is its
    # index in it: no role label or membership copy of the order remains
    second_record = re.compile(r"\bROLE_[A-Z]+|\.role\b|ViewInfo|\b_views\b|\bneighbours\(")
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = second_record.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"
