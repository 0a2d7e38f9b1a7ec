"""The nemesis: a deterministic fault scheduler for chain clusters.

A :class:`NemesisScenario` is a *declarative* fault script — a name plus
a list of timed :class:`FaultAction` verbs — so the same scenario drives
tests, the ``repro nemesis`` CLI, and the crash explorer's nemesis
sweep, and round-trips through plain dicts (``to_dict``/``from_dict``)
for ad-hoc scenario files.

The :class:`Nemesis` arms every action as an event on the cluster's
simulator; actions fire at virtual-time boundaries interleaved with
protocol traffic, and every probabilistic draw downstream comes from the
cluster's seeded RNG, so a ``(scenario, seed)`` pair replays exactly.

Action verbs (``node`` / ``src`` / ``dst`` take a chain index or one of
``"head"``, ``"mid"``, ``"tail"``, resolved against the topology *at
fire time*):

==============  ============================================================
verb            effect
==============  ============================================================
flaky_link      install a :class:`LinkFaultPolicy` on ``src → dst`` (drop /
                duplicate / reorder / corrupt / jitter); omit both
                endpoints to set the network-wide default policy
partition       split the chain into node groups that cannot cross-talk
heal            remove the partition
slow_node       add fixed delivery delay to or from one node
clear_faults    remove every link fault, partition, and slow-down
quick_reboot    §5.3 crash + in-place repair of one replica
fail_stop       §5.2 removal + chain re-stitch (no replacement)
crash_replace   fail-stop + splice in a caught-up spare, one view change
trip_breaker    force a chain's circuit breaker open (as if its
                ``degrade_after`` ladder had just been exhausted) for
                ``cooldown_ns``; the selector picks the group
close_breaker   force the breaker closed and readmit any parked writes
migrate_shard   start an online shard migration (sharded clusters only);
                ``shard`` is an id or ``"hottest"``/``"coldest"``,
                ``dst`` a group id or omitted for the least-loaded group
crash_coord     power-fail the migration coordinator: volatile migration
                state dies, the placement log survives, and recovery
                resumes every in-flight migration from its durable cursor
media_flip      inject seeded latent bit flips into one replica's durable
                media (``target``: live heap bytes, whole heap, backup,
                or input queue)
media_dead      declare seeded random cache lines uncorrectable on one
                replica (reads raise until quarantined)
media_scrub     run a scrub-and-repair pass on one replica (or all of
                them), with neighbour state transfer as the last resort;
                a no-op on unprotected media — nothing can be detected
media_stale     adversarial consistent replay on one replica: live main
                lines that changed since the scheduled snapshot leg
                (``snapshot_at_ns``) get their old bytes back together
                with the matching stale CRC forged into the sidecar —
                per-line checksums verify clean; only an integrity tree
                (``scenario.tree``) still disputes and repairs them
==============  ============================================================

Media verbs need a :class:`~repro.integrity.model.MediaFaultModel` on the
replica's device; the runner attaches one per node when
``scenario.media`` is ``"protected"`` (checksum sidecar maintained) or
``"unprotected"`` (faults injected, nothing detects them — the
demonstration configuration), and the verbs attach one lazily otherwise.

Sharded clusters (``scenario.groups > 1``) prefix every node selector
with its group: ``"g1:head"``, ``"g0:2"``.  An unprefixed selector on a
sharded cluster targets group 0, so single-chain scenarios keep their
meaning when replayed against a one-group cluster.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from ..replication.chain import ChainCluster
from ..replication.recovery import fail_stop, quick_reboot, replace_node, scrub_node
from ..sim.network import LinkFaultPolicy


@dataclass(frozen=True)
class FaultAction:
    """One timed nemesis intervention: fire ``verb(**params)`` at
    virtual time ``at_ns``."""

    at_ns: float
    verb: str
    params: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"at_ns": self.at_ns, "verb": self.verb, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultAction":
        return cls(
            at_ns=float(data["at_ns"]),
            verb=str(data["verb"]),
            params=dict(data.get("params", {})),
        )

    def describe(self) -> str:
        kv = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"t={self.at_ns / 1000:.0f}µs {self.verb}({kv})"


@dataclass(frozen=True)
class NemesisScenario:
    """A named fault script plus the client workload it runs against.

    Each client writes a private key range (client ``i`` owns keys
    ``i * 1000 ...``), which keeps the convergence oracle's
    last-acked-value-per-key check unambiguous under concurrency.
    """

    name: str
    description: str = ""
    actions: Tuple[FaultAction, ...] = ()
    n_clients: int = 3
    ops_per_client: int = 12
    keyspace: int = 4
    read_fraction: float = 0.0
    #: media-fault configuration: "off" (no model attached), "protected"
    #: (model + checksum sidecar on every replica), or "unprotected"
    #: (model without detection — media verbs corrupt silently)
    media: str = "off"
    #: maintain an integrity tree on every replica's media model;
    #: requires media="protected".  The tree is what catches the
    #: media_stale verb's consistent stale-CRC replays
    tree: bool = False
    #: chain groups; > 1 builds a sharded cluster instead of one chain
    groups: int = 1
    shards_per_group: int = 2
    #: zipfian theta over each client's private key range (0 = uniform);
    #: skews traffic onto a hot shard, the hot_shard_skew ingredient
    key_skew: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "actions": [a.to_dict() for a in self.actions],
            "n_clients": self.n_clients,
            "ops_per_client": self.ops_per_client,
            "keyspace": self.keyspace,
            "read_fraction": self.read_fraction,
            "media": self.media,
            "tree": self.tree,
            "groups": self.groups,
            "shards_per_group": self.shards_per_group,
            "key_skew": self.key_skew,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NemesisScenario":
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            actions=tuple(
                FaultAction.from_dict(a) for a in data.get("actions", ())
            ),
            n_clients=int(data.get("n_clients", 3)),
            ops_per_client=int(data.get("ops_per_client", 12)),
            keyspace=int(data.get("keyspace", 4)),
            read_fraction=float(data.get("read_fraction", 0.0)),
            media=str(data.get("media", "off")),
            tree=bool(data.get("tree", False)),
            groups=int(data.get("groups", 1)),
            shards_per_group=int(data.get("shards_per_group", 2)),
            key_skew=float(data.get("key_skew", 0.0)),
        )

    def describe(self) -> str:
        lines = [f"{self.name}: {self.description}"]
        lines += [f"  {a.describe()}" for a in self.actions]
        return "\n".join(lines)


def _resolve_index(cluster: ChainCluster, sel: Any) -> int:
    """Chain index for a selector: an int, or head/mid/tail by role."""
    if isinstance(sel, int):
        if not -len(cluster.chain) <= sel < len(cluster.chain):
            raise ValueError(f"replica index {sel} out of range")
        return sel % len(cluster.chain)
    if sel == "head":
        return 0
    if sel == "tail":
        return len(cluster.chain) - 1
    if sel == "mid":
        if len(cluster.chain) < 3:
            raise ValueError("chain has no mid replica")
        return 1
    raise ValueError(f"unknown replica selector {sel!r}")


def _resolve_id(cluster: ChainCluster, sel: Any) -> str:
    return cluster.chain[_resolve_index(cluster, sel)].node_id


class Nemesis:
    """Arms a scenario's actions on the cluster's event simulator.

    ``cluster`` is a :class:`~repro.replication.chain.ChainCluster` or a
    :class:`~repro.cluster.sharded.ShardedCluster`; node-targeting verbs
    resolve group-qualified selectors against the latter's groups.
    """

    def __init__(self, cluster: Any, scenario: NemesisScenario):
        self.cluster = cluster
        self.scenario = scenario
        #: (fired_at_ns, action) log, in firing order
        self.fired: List[Tuple[float, FaultAction]] = []
        #: whether lazily attached media models carry a checksum sidecar
        self.media_protected = scenario.media != "unprotected"
        #: media_stale ammunition: (node, snapshot_at_ns) -> line images
        self._stale_snaps: Dict[Tuple[str, float], Dict[int, bytes]] = {}

    def arm(self) -> None:
        for action in self.scenario.actions:
            if action.verb == "media_stale":
                # the replay needs *older* line images: schedule the
                # snapshot leg at snapshot_at_ns, the replay at at_ns
                snap_ns = float(action.params.get("snapshot_at_ns", 0.0))
                node = action.params.get("node", "head")
                self.cluster.sim.at(
                    snap_ns, self._snapshot_stale, node, snap_ns
                )
            self.cluster.sim.at(action.at_ns, self._fire, action)

    def _fire(self, action: FaultAction) -> None:
        handler = getattr(self, f"_do_{action.verb}", None)
        if handler is None:
            raise ValueError(f"unknown nemesis verb '{action.verb}'")
        handler(**action.params)
        self.fired.append((self.cluster.sim.now, action))

    # -- selector resolution ------------------------------------------------------

    def _chain(self, sel: Any) -> Tuple[ChainCluster, Any]:
        """(chain, inner selector) for a possibly group-qualified one.

        ``"g1:head"`` / ``"g0:2"`` pick a group of a sharded cluster;
        anything else resolves against the chain itself (group 0 when
        the cluster is sharded, so single-chain scripts still replay)."""
        cluster = self.cluster
        if isinstance(sel, str) and ":" in sel:
            gtag, _, inner = sel.partition(":")
            if not gtag.startswith("g") or not gtag[1:].isdigit():
                raise ValueError(f"bad group selector {sel!r}")
            groups = getattr(cluster, "groups", None)
            if not isinstance(groups, list):
                raise ValueError(
                    f"selector {sel!r} needs a sharded cluster"
                )
            cluster = groups[int(gtag[1:])]
            sel = int(inner) if inner.lstrip("-").isdigit() else inner
        elif not hasattr(cluster, "chain"):
            cluster = cluster.groups[0]
        return cluster, sel

    def _node_id(self, sel: Any) -> str:
        chain, inner = self._chain(sel)
        return _resolve_id(chain, inner)

    # -- link verbs ------------------------------------------------------------

    def _do_flaky_link(self, src: Any = None, dst: Any = None, **knobs: float) -> None:
        policy = LinkFaultPolicy(**knobs)
        if src is None and dst is None:
            self.cluster.net.set_default_policy(policy)
        else:
            self.cluster.net.set_link_policy(
                self._node_id(src), self._node_id(dst), policy
            )

    def _do_partition(self, groups: List[List[Any]]) -> None:
        resolved = [[self._node_id(sel) for sel in g] for g in groups]
        self.cluster.net.partition(resolved)

    def _do_heal(self) -> None:
        self.cluster.net.heal_partition()

    def _do_slow_node(self, node: Any, delay_ns: float) -> None:
        self.cluster.net.set_node_delay(self._node_id(node), delay_ns)

    def _do_clear_faults(self) -> None:
        self.cluster.net.clear_faults()

    # -- replica verbs ----------------------------------------------------------

    def _do_quick_reboot(self, node: Any) -> None:
        chain, inner = self._chain(node)
        quick_reboot(chain, _resolve_index(chain, inner))

    def _do_fail_stop(self, node: Any) -> None:
        chain, inner = self._chain(node)
        fail_stop(chain, _resolve_index(chain, inner))

    def _do_crash_replace(self, node: Any) -> None:
        chain, inner = self._chain(node)
        replace_node(chain, _resolve_index(chain, inner))

    def _do_trip_breaker(self, node: Any = "head",
                         cooldown_ns: float = None) -> None:
        # the selector only picks the group (the breaker is chain-wide)
        chain, _inner = self._chain(node)
        chain.trip_breaker(cooldown_ns)

    def _do_close_breaker(self, node: Any = "head") -> None:
        chain, _inner = self._chain(node)
        chain.close_breaker()

    # -- cluster verbs -----------------------------------------------------------

    def _sharded(self):
        if not hasattr(self.cluster, "migrate_shard"):
            raise ValueError(
                "migration verbs need a sharded cluster (scenario.groups > 1)"
            )
        return self.cluster

    def _do_migrate_shard(self, shard: Any = "hottest",
                          dst: Any = None) -> None:
        self._sharded().migrate_shard(shard, dst_group=dst)

    def _do_crash_coordinator(self) -> None:
        self._sharded().crash_coordinator()

    # -- media verbs -------------------------------------------------------------

    def _ensure_media(self, replica):
        media = replica.device.media
        if media is None:
            media = replica.device.attach_media(
                seed=zlib.crc32(replica.node_id.encode()),
                protect=self.media_protected,
                tree=self.media_protected and self.scenario.tree,
            )
        return media

    def _target_ranges(self, replica, target: str) -> List[Tuple[int, int]]:
        """Device-absolute (start, length) spans for an injection target:
        ``"backup"`` is wherever the engine's backup strategy keeps its
        copies; any other name is a pool region."""
        pool = replica.heap.region.pool
        if target == "live":
            return replica.heap.live_spans()
        if target == "heap":
            region = replica.heap.region
        elif target == "backup" and replica.engine.backup is not None:
            region = replica.engine.backup.region
        elif target in pool.regions:
            region = pool.regions[target]
        else:
            raise ValueError(f"unknown media target {target!r}")
        return [(region.offset, region.size)]

    def _do_media_flip(self, node: Any, n: int = 4, target: str = "live") -> None:
        chain, inner = self._chain(node)
        replica = chain.chain[_resolve_index(chain, inner)]
        media = self._ensure_media(replica)
        media.inject_flips(int(n), ranges=self._target_ranges(replica, target))

    def _do_media_dead(self, node: Any, n: int = 1, target: str = "backup") -> None:
        chain, inner = self._chain(node)
        replica = chain.chain[_resolve_index(chain, inner)]
        media = self._ensure_media(replica)
        media.kill_lines(int(n), ranges=self._target_ranges(replica, target))

    def _replica(self, node: Any):
        chain, inner = self._chain(node)
        return chain.chain[_resolve_index(chain, inner)]

    def _snapshot_stale(self, node: Any, snap_ns: float) -> None:
        """Capture one replica's live main-line images (the media_stale
        verb's ammunition) at virtual time ``snap_ns``."""
        replica = self._replica(node)
        media = self._ensure_media(replica)
        self._stale_snaps[(str(node), float(snap_ns))] = media.snapshot_lines(
            replica.heap.live_spans()
        )

    def _do_media_stale(
        self, node: Any = "head", n: int = 2, snapshot_at_ns: float = 0.0
    ) -> None:
        """Adversarial consistent replay on one replica: ``n`` live main
        lines that changed since the snapshot leg get their old bytes
        back *with the matching stale CRC forged into the sidecar*.
        Per-line checksums verify the replay clean; only an integrity
        tree still disputes the lines (root-verified repair from the
        backup mirror or a chain peer restores them).  Main lines only —
        the backup copy stays current, so a protected scrub converges."""
        replica = self._replica(node)
        media = self._ensure_media(replica)
        images = self._stale_snaps.get((str(node), float(snapshot_at_ns)))
        if images is None:
            raise ValueError(
                "media_stale fired without its snapshot leg "
                f"(node={node!r}, snapshot_at_ns={snapshot_at_ns})"
            )
        media.replay_changed(images, int(n), media.rng)

    def _do_media_scrub(self, node: Any = None) -> None:
        if node is None:
            chains = (
                [self.cluster] if hasattr(self.cluster, "chain")
                else list(self.cluster.groups)
            )
            targets = [(c, replica) for c in chains for replica in c.chain]
        else:
            chain, inner = self._chain(node)
            targets = [(chain, chain.chain[_resolve_index(chain, inner)])]
        for chain, replica in targets:
            media = replica.device.media
            if media is None or not media.protected:
                continue  # nothing to detect with — scrub cannot help
            scrub_node(chain, replica)
