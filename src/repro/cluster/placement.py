"""The placement service: durable, versioned ownership of the shard map.

Plays the role the membership manager plays for one chain, but for the
cluster: it owns the authoritative :class:`~repro.cluster.router.ShardMap`
and the in-progress migration records, and it persists both.  The
service is a :class:`~repro.kvstore.ring.Journal` on its own little
pool, so the coordinator gets exactly the crash story the replicas
already have: every transition is appended (flushed and fenced by the
ring) *before* it takes effect, and recovery is a replay.

Three record types, JSON payloads in the ring:

* ``map`` — a full shard map (installed versions only, monotonic);
* ``mig`` — the complete state of one in-flight migration (src, dst,
  phase, bulk-copy cursor).  Re-logged on every durable transition, so
  replay keeps only the latest per shard;
* ``mig_end`` — the migration for a shard finished or aborted.

The checkpoint the journal compacts to is the current map plus one
``mig`` per active migration.  Replaying it after the history it
summarises changes nothing (the map is the latest, each ``mig`` the
latest for its shard), so a crash mid-compaction loses neither.

Clients are versioned the way the chain's ``viewID`` is (§5.3): a
request built against an older map version gets a typed
:class:`~repro.errors.StaleShardMapError` carrying the current version,
and re-routes after refreshing — the cluster analogue of
:class:`~repro.errors.StaleViewError`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional

from ..errors import (
    ClusterConfigError,
    ShardMigrationError,
    StaleShardMapError,
)
from ..kvstore.ring import Journal
from ..nvm.device import NVMDevice
from .router import ShardMap

LOG_BYTES = 64 * 1024

#: phases a migration record may be durably parked in
MIGRATION_PHASES = ("copy", "catchup", "handoff")

#: ring points per shard on a bootstrapped cluster's map
BOOTSTRAP_VNODES = 32


class MigrationRecord:
    """Durable state of one in-flight shard migration."""

    __slots__ = ("shard", "src", "dst", "phase", "cursor")

    def __init__(self, shard: int, src: int, dst: int,
                 phase: str = "copy", cursor: Optional[int] = None):
        self.shard = shard
        self.src = src
        self.dst = dst
        self.phase = phase
        #: last key (exclusive upper bound) the bulk copy has durably
        #: confirmed at the destination; resume restarts here
        self.cursor = cursor

    def to_dict(self) -> dict:
        return {
            "shard": self.shard, "src": self.src, "dst": self.dst,
            "phase": self.phase, "cursor": self.cursor,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MigrationRecord":
        return cls(d["shard"], d["src"], d["dst"], d["phase"], d["cursor"])


class PlacementService(Journal):
    """Authoritative, durable shard map + migration ledger."""

    REGION = "placement_log"

    def __init__(self, shard_map: ShardMap, device: Optional[NVMDevice] = None,
                 log_bytes: int = LOG_BYTES):
        super().__init__(device, log_bytes)
        self.map = shard_map
        self.migrations: Dict[int, MigrationRecord] = {}
        self._append({"t": "map", "map": shard_map.to_dict()})

    @classmethod
    def bootstrap(cls, groups: int, shards_per_group: int = 2) -> "PlacementService":
        """Round-robin initial placement: shard s -> group s mod groups."""
        if groups < 1 or shards_per_group < 1:
            raise ClusterConfigError("need at least one group and one shard")
        nshards = groups * shards_per_group
        assignment = {s: s % groups for s in range(nshards)}
        return cls(ShardMap(assignment, version=1, vnodes=BOOTSTRAP_VNODES))

    # -- the journal's fold and checkpoint -------------------------------------

    def _load(self, records: Iterable[dict]) -> None:
        self.map = None  # type: ignore[assignment]
        self.migrations = {}
        for rec in records:
            if rec["t"] == "map":
                self.map = ShardMap.from_dict(rec["map"])
            elif rec["t"] == "mig":
                mig = MigrationRecord.from_dict(rec)
                self.migrations[mig.shard] = mig
            elif rec["t"] == "mig_end":
                self.migrations.pop(rec["shard"], None)
        if self.map is None:
            raise ClusterConfigError("placement log holds no shard map")

    def _checkpoint(self) -> Iterator[dict]:
        yield {"t": "map", "map": self.map.to_dict()}
        for rec in self.migrations.values():
            yield {"t": "mig", **rec.to_dict()}

    # -- version discipline --------------------------------------------------

    @property
    def version(self) -> int:
        return self.map.version

    def validate_version(self, cached: Optional[int]) -> None:
        """Reject requests routed with an older map (typed redirect)."""
        if cached is not None and cached < self.map.version:
            raise StaleShardMapError(
                f"request routed with shard map v{cached}, current is "
                f"v{self.map.version}",
                current_version=self.map.version,
            )

    # -- transitions ----------------------------------------------------------

    def install(self, new_map: ShardMap) -> None:
        """Durably adopt ``new_map``; versions are strictly monotonic."""
        if new_map.version <= self.map.version:
            raise ClusterConfigError(
                f"map version must advance: v{new_map.version} <= "
                f"v{self.map.version}"
            )
        self._append({"t": "map", "map": new_map.to_dict()})
        self.map = new_map

    def begin_migration(self, shard: int, dst_group: int) -> MigrationRecord:
        if shard not in self.map.assignment:
            raise ShardMigrationError(f"shard {shard} is not in the map")
        if shard in self.migrations:
            raise ShardMigrationError(f"shard {shard} is already migrating")
        src = self.map.assignment[shard]
        if src == dst_group:
            raise ShardMigrationError(
                f"shard {shard} already lives on group {dst_group}"
            )
        if dst_group not in self.map.groups:
            raise ShardMigrationError(f"group {dst_group} is not in the cluster")
        rec = MigrationRecord(shard, src, dst_group)
        self._append({"t": "mig", **rec.to_dict()})
        self.migrations[shard] = rec
        return rec

    def advance_cursor(self, shard: int, cursor: int) -> None:
        """Durably record bulk-copy progress (resume point)."""
        rec = self._active(shard)
        self._append({"t": "mig", **rec.to_dict(), "cursor": cursor})
        rec.cursor = cursor

    def set_phase(self, shard: int, phase: str) -> None:
        if phase not in MIGRATION_PHASES:
            raise ShardMigrationError(f"unknown migration phase '{phase}'")
        rec = self._active(shard)
        self._append({"t": "mig", **rec.to_dict(), "phase": phase})
        rec.phase = phase

    def finish_migration(self, shard: int) -> ShardMap:
        """The flip: one durable transition installs the moved map and
        retires the migration record.  After this, the destination owns
        the shard for every request carrying the new version."""
        rec = self._active(shard)
        new_map = self.map.moved(shard, rec.dst)
        self._append({"t": "map", "map": new_map.to_dict()})
        # adopt the logged map before the next append: a checkpoint
        # taken there must carry it
        self.map = new_map
        self._append({"t": "mig_end", "shard": shard})
        del self.migrations[shard]
        return new_map

    def abort_migration(self, shard: int) -> None:
        """Give up: the source keeps the shard, the record is retired."""
        self._active(shard)
        self._append({"t": "mig_end", "shard": shard})
        del self.migrations[shard]

    def _active(self, shard: int) -> MigrationRecord:
        rec = self.migrations.get(shard)
        if rec is None:
            raise ShardMigrationError(f"shard {shard} is not migrating")
        return rec
