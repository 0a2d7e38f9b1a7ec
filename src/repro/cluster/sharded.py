"""The sharded cluster: N chain groups behind one consistent-hash router.

One :class:`~repro.runtime.context.ExecutionContext` (clock, RNG,
resource registry) and one :class:`~repro.sim.network.SimNetwork` are
shared by every group, so cross-group schedules interleave on a single
deterministic timeline and the nemesis can cut links inside one group
while another keeps committing.  Node ids are prefixed ``g<i>:``.

The client surface is duck-compatible with
:class:`~repro.replication.chain.ChainCluster` (``route`` /
``submit_write`` / ``submit_read`` / ``drain`` / ``sim`` / ``retry`` /
``net``), which is what lets :class:`~repro.replication.client.
ChainClient`, the nemesis runner, and the crash explorer drive either
one unchanged.  A ``groups=1`` cluster routes every key to its single
group and is behaviourally identical to a bare chain (regression-tested
bit-for-bit on committed state and latencies).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterConfigError, ShardMigrationError
from ..runtime.context import ExecutionContext
from ..sim.network import SimNetwork
from ..replication.chain import KAMINO, ChainCluster, RetryPolicy
from .migrate import ShardMigration
from .placement import PlacementService
from .report import MigrationReport
from .router import ShardMap


class ShardedCluster:
    """Multiple chain groups, one shard map, online migration."""

    def __init__(
        self,
        groups: int = 2,
        shards_per_group: int = 2,
        f: int = 2,
        mode: str = KAMINO,
        heap_mb: int = 2,
        value_size: int = 128,
        seed: int = 0,
        retry: Optional[RetryPolicy] = None,
    ):
        if groups < 1:
            raise ClusterConfigError("need at least one group")
        self.runtime = ExecutionContext(seed=seed)
        self.sim = self.runtime.events
        self.net = SimNetwork(self.sim, rng=self.runtime.rng)
        self.retry = retry if retry is not None else RetryPolicy()
        self.mode = mode
        self.groups: List[ChainCluster] = [
            ChainCluster(
                f=f, mode=mode, heap_mb=heap_mb, value_size=value_size,
                runtime=self.runtime, retry=self.retry,
                net=self.net, node_prefix=f"g{gid}:",
            )
            for gid in range(groups)
        ]
        self.placement = PlacementService.bootstrap(groups, shards_per_group)
        self._migrations: Dict[int, ShardMigration] = {}
        self.migration_reports: List[MigrationReport] = []
        self.migration_failures: List[str] = []
        self.coordinator_crashes = 0
        self._migration_seq = 0
        #: shard id -> operations routed there (hot-shard detection)
        self.shard_load: Dict[int, int] = {
            s: 0 for s in self.placement.map.assignment
        }

    # -- shard map ------------------------------------------------------------

    @property
    def map(self) -> ShardMap:
        return self.placement.map

    @property
    def map_version(self) -> int:
        return self.placement.version

    # -- routing --------------------------------------------------------------

    def route(self, key: Any, map_version: Optional[int] = None):
        """Per-key submission target.

        Version-checks first (stale cached maps get the typed redirect),
        then resolves key -> shard -> group; a shard mid-migration
        resolves to its :class:`~repro.cluster.migrate.ShardMigration`,
        which taps/parks the write according to its phase.
        """
        self.placement.validate_version(map_version)
        shard = self.map.shard_for(key)
        self.shard_load[shard] = self.shard_load.get(shard, 0) + 1
        migration = self._migrations.get(shard)
        if migration is not None:
            return migration
        return self.groups[self.map.assignment[shard]]

    # -- ChainCluster-compatible client surface --------------------------------

    def submit_write(self, proc: str, args: Tuple[Any, ...],
                     keys: Sequence[Any],
                     callback: Optional[Callable[[Any, float], None]] = None,
                     client_id: Optional[str] = None,
                     request_id: Optional[int] = None) -> None:
        target = self.route(keys[0] if keys else args[0])
        target.submit_write(proc, args, keys, callback,
                            client_id=client_id, request_id=request_id)

    def submit_read(self, proc: str, args: Tuple[Any, ...],
                    callback: Optional[Callable[[Any, float], None]] = None,
                    ) -> None:
        self.route(args[0]).submit_read(proc, args, callback)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def drain(self) -> None:
        """Run the shared simulator dry, flush every head's backup
        backlog, and keep pumping while migrations are still working."""
        guard = 0
        while True:
            self.sim.run()
            for group in self.groups:
                while group.head.engine.pending_count:
                    group.head.engine.sync_pending()
            guard += 1
            if (not self._migrations and not self.sim.pending) or guard > 64:
                break

    @property
    def degraded(self) -> bool:
        return any(group.degraded for group in self.groups)

    def retry_after_ns(self) -> Optional[float]:
        """Admission-control hint aggregated over the groups: the
        longest remaining cooldown of any degraded group (writes for
        any key may land there), ``None`` when every group is healthy."""
        hints = [g.retry_after_ns() for g in self.groups]
        hints = [h for h in hints if h is not None]
        return max(hints) if hints else None

    def trip_breaker(self, group: int = 0,
                     cooldown_ns: Optional[float] = None) -> None:
        self.groups[group].trip_breaker(cooldown_ns)

    def close_breaker(self, group: int = 0) -> None:
        self.groups[group].close_breaker()

    # -- migration -------------------------------------------------------------

    def hottest_shard(self) -> int:
        return max(self.shard_load, key=lambda s: (self.shard_load[s], -s))

    def least_loaded_group(self, exclude: Optional[int] = None) -> int:
        """Group carrying the least routed traffic (ties: fewest shards,
        then lowest id) — the natural destination for a hot shard."""
        load = {gid: 0 for gid in range(len(self.groups))}
        for shard, gid in self.map.assignment.items():
            load[gid] += self.shard_load.get(shard, 0)
        candidates = [g for g in load if g != exclude]
        return min(
            candidates,
            key=lambda g: (load[g], len(self.map.shards_of(g)), g),
        )

    def migrate_shard(self, shard: Any = "hottest",
                      dst_group: Optional[int] = None) -> ShardMigration:
        """Start moving ``shard`` (or the hottest one) while serving."""
        if shard == "hottest":
            shard = self.hottest_shard()
        elif shard == "coldest":
            shard = min(self.shard_load, key=lambda s: (self.shard_load[s], s))
        shard = int(shard)
        if dst_group is None:
            dst_group = self.least_loaded_group(
                exclude=self.map.assignment.get(shard)
            )
        if not (0 <= dst_group < len(self.groups)):
            raise ShardMigrationError(f"no group {dst_group} in this cluster")
        record = self.placement.begin_migration(shard, dst_group)
        self._migration_seq += 1
        migration = ShardMigration(self, record, incarnation=self._migration_seq)
        self._migrations[shard] = migration
        migration.start()
        return migration

    def resume_migrations(self) -> List[ShardMigration]:
        """Reconstruct in-flight migrations from the durable records
        (used after :meth:`crash_coordinator`)."""
        resumed = []
        for shard, record in sorted(self.placement.migrations.items()):
            if shard in self._migrations:
                continue
            self._migration_seq += 1
            migration = ShardMigration(self, record, resumed=True,
                                       incarnation=self._migration_seq)
            self._migrations[shard] = migration
            migration.start()
            resumed.append(migration)
        return resumed

    def crash_coordinator(self) -> List[ShardMigration]:
        """Power-fail the migration coordinator mid-flight: volatile
        migration state (dirty sets, parked ops, scheduled chunks) dies;
        the placement log survives; recovery replays it and resumes
        every in-flight migration from its durable cursor."""
        self.coordinator_crashes += 1
        for migration in self._migrations.values():
            migration.cancel()
        self._migrations.clear()
        self.placement.crash_and_recover()
        return self.resume_migrations()

    def _migration_finished(self, migration: ShardMigration) -> None:
        self._migrations.pop(migration.shard, None)
        self.migration_reports.append(migration.report)

    def _migration_aborted(self, migration: ShardMigration, why: str) -> None:
        if migration.shard in self.placement.migrations:
            self.placement.abort_migration(migration.shard)
        self._migrations.pop(migration.shard, None)
        self.migration_reports.append(migration.report)
        self.migration_failures.append(f"shard {migration.shard}: {why}")

    @property
    def active_migrations(self) -> Tuple[int, ...]:
        return tuple(sorted(self._migrations))

    # -- aggregated metrics ------------------------------------------------------

    def _sum(self, attr: str) -> int:
        return sum(getattr(group, attr) for group in self.groups)

    @property
    def committed(self) -> int:
        return self._sum("committed")

    @property
    def aborted(self) -> int:
        return self._sum("aborted")

    @property
    def retransmissions(self) -> int:
        return self._sum("retransmissions")

    @property
    def timed_out(self) -> int:
        return self._sum("timed_out")

    @property
    def degraded_rejections(self) -> int:
        return self._sum("degraded_rejections")

    @property
    def breaker_transitions(self) -> int:
        return self._sum("breaker_transitions")

    @property
    def duplicate_requests(self) -> int:
        return self._sum("duplicate_requests")

    @property
    def backpressure_stalls(self) -> int:
        return self._sum("backpressure_stalls")

    @property
    def dependent_queued(self) -> int:
        return self._sum("dependent_queued")

    @property
    def write_latencies_ns(self) -> List[float]:
        out: List[float] = []
        for group in self.groups:
            out.extend(group.write_latencies_ns)
        return out

    @property
    def read_latencies_ns(self) -> List[float]:
        out: List[float] = []
        for group in self.groups:
            out.extend(group.read_latencies_ns)
        return out

    @property
    def total_storage_bytes(self) -> int:
        return self._sum("total_storage_bytes")

    # -- verification -------------------------------------------------------------

    def assert_replicas_consistent(self) -> None:
        """Every group's replicas converge (per-group chain invariant)."""
        for gid, group in enumerate(self.groups):
            try:
                group.assert_replicas_consistent()
            except AssertionError as exc:
                raise AssertionError(f"group {gid}: {exc}") from exc

    def assert_placement_respected(self) -> None:
        """With no migration in flight, every key lives only on the
        group its shard is assigned to (migrated-away copies purged)."""
        if self._migrations:
            raise AssertionError(
                f"migrations still active for shards {self.active_migrations}"
            )
        for gid, group in enumerate(self.groups):
            for key, _ptr in group.tail.kv.tree.items():
                owner = self.map.group_for(key)
                if owner != gid:
                    raise AssertionError(
                        f"key {key} found on group {gid} but its shard "
                        f"{self.map.shard_for(key)} is assigned to group {owner}"
                    )

    def convergence_problems(self) -> List[str]:
        """The sharded-cluster oracle for a drained cluster, one line per
        violation (empty when it converged): every group's replicas
        agree, no migration is wedged or aborted, and each key lives
        only on the group its shard is assigned to."""
        problems: List[str] = []
        try:
            self.assert_replicas_consistent()
        except AssertionError as exc:
            problems.append(f"replica divergence: {exc}")
        if self._migrations:
            # placement is undefined while a shard is still moving
            problems.append(
                f"migrations never terminated for shards "
                f"{list(self.active_migrations)}"
            )
            return problems
        problems.extend(f"migration aborted: {why}" for why in self.migration_failures)
        try:
            self.assert_placement_respected()
        except AssertionError as exc:
            problems.append(f"placement violated: {exc}")
        return problems

    def merged_tail_state(self) -> Dict[int, bytes]:
        """The cluster's logical contents: each group's tail restricted
        to the shards it owns (the durability oracle's view)."""
        merged: Dict[int, bytes] = {}
        for gid, group in enumerate(self.groups):
            tail = group.tail
            for key, ptr in tail.kv.tree.items():
                if self.map.group_for(key) == gid:
                    merged[key] = tail.heap.read_blob(ptr)
        return merged
