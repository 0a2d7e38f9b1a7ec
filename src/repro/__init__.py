"""Kamino-Tx reproduction: atomic in-place updates for simulated NVM.

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.nvm` — simulated NVM device, pools, latency models
* :mod:`repro.heap` — persistent objects + transactional allocator
* :mod:`repro.tx` — atomicity engines (Kamino-Tx and baselines)
* :mod:`repro.kvstore` — persistent B+Tree / KV store / list / hash table
* :mod:`repro.workloads` — YCSB, TPC-C-lite, synthetic workloads
* :mod:`repro.sim` — deterministic event simulation
* :mod:`repro.runtime` — execution contexts, clock, engine registry
* :mod:`repro.replication` — chain replication (traditional + Kamino)
* :mod:`repro.cluster` — sharded multi-group cluster, online migration
* :mod:`repro.bench` — benchmark harness over the runtime layer
* :mod:`repro.integrity` — media-fault model, checksum sidecar, scrubber
"""

from .errors import (
    AdmissionRejected,
    BothCopiesLostError,
    ClusterConfigError,
    ClusterDegraded,
    IntegrityError,
    IntegrityTreeError,
    MediaError,
    ProcedureError,
    ProcedureResumed,
    ProtocolError,
    ReproError,
    RootMismatchError,
    ServeError,
    ShardMigrationError,
    StaleShardMapError,
    UncorrectableMediaError,
)
from .cluster import (
    MigrationReport,
    ShardMap,
    ShardRouter,
)
from .integrity import (
    ChecksumSidecar,
    IntegrityTree,
    MediaFaultModel,
    ScrubReport,
    Scrubber,
)
from .heap import PersistentHeap, PersistentStruct
from .nvm import CrashPolicy, NVMDevice, PmemPool
from .runtime import (
    EngineCapabilities,
    ExecutionContext,
    SimClock,
    register_engine,
    registered_engines,
)
from .tx import (
    CoWEngine,
    NoLoggingEngine,
    UndoLogEngine,
    kamino_dynamic,
    kamino_simple,
    make_engine,
)

__version__ = "1.0.0"

# the heavy cluster/serve members stay lazy (see repro.cluster's
# docstring): importing repro must not drag in the simulator + NVM stack
_LAZY_CLUSTER = ("MigrationRecord", "PlacementService", "ShardMigration",
                 "ShardedCluster")
_LAZY_SERVE = ("AdmissionController", "DurableProcedure", "ProcedureEngine",
               "ProcedureStore", "ReproServer")


def __getattr__(name: str):
    if name in _LAZY_CLUSTER or name in _LAZY_SERVE:
        from importlib import import_module

        pkg = ".cluster" if name in _LAZY_CLUSTER else ".serve"
        value = getattr(import_module(pkg, __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "BothCopiesLostError",
    "ChecksumSidecar",
    "ClusterConfigError",
    "ClusterDegraded",
    "CoWEngine",
    "CrashPolicy",
    "DurableProcedure",
    "EngineCapabilities",
    "ExecutionContext",
    "IntegrityError",
    "IntegrityTree",
    "IntegrityTreeError",
    "MediaError",
    "MediaFaultModel",
    "MigrationRecord",
    "MigrationReport",
    "NVMDevice",
    "NoLoggingEngine",
    "PersistentHeap",
    "PersistentStruct",
    "PlacementService",
    "PmemPool",
    "ProcedureEngine",
    "ProcedureError",
    "ProcedureResumed",
    "ProcedureStore",
    "ProtocolError",
    "ReproError",
    "ReproServer",
    "RootMismatchError",
    "ScrubReport",
    "Scrubber",
    "ServeError",
    "ShardMap",
    "ShardMigration",
    "ShardMigrationError",
    "ShardRouter",
    "ShardedCluster",
    "SimClock",
    "StaleShardMapError",
    "UncorrectableMediaError",
    "UndoLogEngine",
    "__version__",
    "kamino_dynamic",
    "kamino_simple",
    "make_engine",
    "register_engine",
    "registered_engines",
]
