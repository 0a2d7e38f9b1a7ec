"""The placement service: durable, versioned ownership of the shard map.

Plays the role the membership manager plays for one chain, but for the
cluster: it owns the authoritative :class:`~repro.cluster.router.ShardMap`
and the in-progress migration records, and it persists both.  The log
lives in a :class:`~repro.kvstore.ring.PersistentRing` on the service's
own little pool, so the coordinator gets exactly the crash story the
replicas already have: every transition is appended (flushed and fenced
by the ring) *before* it takes effect, and recovery is a replay.

Three record types, JSON payloads in the ring:

* ``map`` — a full shard map (installed versions only, monotonic);
* ``mig`` — the complete state of one in-flight migration (src, dst,
  phase, bulk-copy cursor).  Re-logged on every durable transition, so
  replay keeps only the latest per shard;
* ``mig_end`` — the migration for a shard finished or aborted.

The ring is append-only from the service's point of view; when it runs
low the service compacts by draining and re-appending one snapshot
(current map + active migrations) — the classic checkpoint-and-truncate.

Client version discipline mirrors the chain's ``viewID`` (§5.3): a
request built against an older map version gets a typed
:class:`~repro.errors.StaleShardMapError` carrying the current version,
and re-routes after refreshing — the cluster analogue of
:class:`~repro.errors.StaleViewError`.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from ..errors import (
    ClusterConfigError,
    ShardMigrationError,
    StaleShardMapError,
)
from ..kvstore.ring import PersistentRing
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool
from ..replication.membership import MembershipManager
from .router import ShardMap

LOG_REGION = "placement_log"
LOG_BYTES = 64 * 1024
DEVICE_BYTES = 1 << 20
_COMPACT_HEADROOM = 4096

#: phases a migration record may be durably parked in
MIGRATION_PHASES = ("copy", "catchup", "handoff")


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


class PlacementService:
    """Authoritative, durable shard map + migration ledger."""

    def __init__(self, shard_map: ShardMap, device: Optional[NVMDevice] = None,
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
        self.map = shard_map
        self.migrations: Dict[int, MigrationRecord] = {}
        #: group liveness/ordering, reusing the chain's membership
        #: machinery — each shard group is one "member" of the cluster
        self.membership = MembershipManager(
            [f"g{g}" for g in shard_map.groups]
        )
        self.recoveries = 0
        self.compactions = 0
        if not _replay:
            self._log({"t": "map", "map": shard_map.to_dict()})

    # -- bootstrap / recovery ------------------------------------------------

    @classmethod
    def bootstrap(cls, groups: int, shards_per_group: int = 2,
                  vnodes: int = 32, device: Optional[NVMDevice] = None,
                  ) -> "PlacementService":
        """Round-robin initial placement: shard s -> group s mod groups."""
        if groups < 1 or shards_per_group < 1:
            raise ClusterConfigError("need at least one group and one shard")
        nshards = groups * shards_per_group
        assignment = {s: s % groups for s in range(nshards)}
        return cls(ShardMap(assignment, version=1, vnodes=vnodes), device=device)

    @classmethod
    def open(cls, device: NVMDevice) -> "PlacementService":
        """Rebuild the service from its durable log (coordinator reboot)."""
        svc = cls.__new__(cls)
        svc.device = device
        svc.pool = PmemPool.open(device)
        svc.ring = PersistentRing.open(svc.pool.region(LOG_REGION))
        svc.map = None  # type: ignore[assignment]
        svc.migrations = {}
        svc.recoveries = 0
        svc.compactions = 0
        for payload in svc.ring.peek_all():
            rec = json.loads(payload.decode("utf-8"))
            if rec["t"] == "map":
                svc.map = ShardMap.from_dict(rec["map"])
            elif rec["t"] == "mig":
                mig = MigrationRecord.from_dict(rec)
                svc.migrations[mig.shard] = mig
            elif rec["t"] == "mig_end":
                svc.migrations.pop(rec["shard"], None)
        if svc.map is None:
            raise ClusterConfigError("placement log holds no shard map")
        svc.membership = MembershipManager([f"g{g}" for g in svc.map.groups])
        return svc

    def crash_and_recover(self) -> "PlacementService":
        """Coordinator power-fail: volatile state dies, the log survives.

        Re-reads everything from the device (in place, so holders of
        this service keep their reference) and counts the recovery.
        """
        self.device.crash()
        self.device.restart()
        reborn = PlacementService.open(self.device)
        self.pool = reborn.pool
        self.ring = reborn.ring
        self.map = reborn.map
        self.migrations = reborn.migrations
        self.membership = reborn.membership
        self.recoveries += 1
        return self

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
        self._log({"t": "map", "map": new_map.to_dict()})
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
        self._log({"t": "mig", **rec.to_dict()})
        self.migrations[shard] = rec
        return rec

    def advance_cursor(self, shard: int, cursor: int) -> None:
        """Durably record bulk-copy progress (resume point)."""
        rec = self._active(shard)
        rec.cursor = cursor
        self._log({"t": "mig", **rec.to_dict()})

    def set_phase(self, shard: int, phase: str) -> None:
        if phase not in MIGRATION_PHASES:
            raise ShardMigrationError(f"unknown migration phase '{phase}'")
        rec = self._active(shard)
        rec.phase = phase
        self._log({"t": "mig", **rec.to_dict()})

    def finish_migration(self, shard: int) -> ShardMap:
        """The flip: one durable transition installs the moved map and
        retires the migration record.  After this, the destination owns
        the shard for every request carrying the new version."""
        rec = self._active(shard)
        new_map = self.map.moved(shard, rec.dst)
        self._log({"t": "map", "map": new_map.to_dict()})
        self._log({"t": "mig_end", "shard": shard})
        self.map = new_map
        del self.migrations[shard]
        return new_map

    def abort_migration(self, shard: int) -> None:
        """Give up: the source keeps the shard, the record is retired."""
        self._active(shard)
        self._log({"t": "mig_end", "shard": shard})
        del self.migrations[shard]

    def _active(self, shard: int) -> MigrationRecord:
        rec = self.migrations.get(shard)
        if rec is None:
            raise ShardMigrationError(f"shard {shard} is not migrating")
        return rec

    # -- the durable log ------------------------------------------------------

    def _log(self, record: dict) -> None:
        payload = json.dumps(record, sort_keys=True).encode("utf-8")
        if self.ring.free_bytes < len(payload) + _COMPACT_HEADROOM:
            self._compact()
        self.ring.append(payload)

    def _compact(self) -> None:
        """Checkpoint-and-truncate: drop history, keep current state."""
        self.compactions += 1
        self.ring.drain()
        self.ring.append(
            json.dumps({"t": "map", "map": self.map.to_dict()},
                       sort_keys=True).encode("utf-8")
        )
        for rec in self.migrations.values():
            self.ring.append(
                json.dumps({"t": "mig", **rec.to_dict()},
                           sort_keys=True).encode("utf-8")
            )
