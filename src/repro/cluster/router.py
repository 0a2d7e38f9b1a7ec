"""Shard placement: consistent-hash routing over shard groups.

The sharded cluster splits the key space into **shards** (the unit of
placement and migration) and assigns each shard to a **group** (one
chain-replicated :class:`~repro.replication.chain.ChainCluster`).  Two
indirections, on purpose:

* key -> shard is *stable* (consistent hashing over a 64-bit circle
  with virtual nodes) — adding or removing a shard moves only the keys
  on the affected arcs;
* shard -> group is a tiny versioned table (:class:`ShardMap`) — a
  rebalance rewrites one entry and bumps the version, and clients with
  a stale cached version get a typed
  :class:`~repro.errors.StaleShardMapError` redirect.

Routers and maps are immutable; :meth:`ShardMap.moved` returns a new
map, so a version is a value that can be durably logged and replayed.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..errors import ClusterConfigError
from ..workloads.keydist import hash_point, key_point

DEFAULT_VNODES = 64


class ShardRouter:
    """key -> shard via consistent hashing with virtual nodes.

    Each shard owns ``vnodes`` points on the 64-bit circle
    (:func:`~repro.workloads.keydist.hash_point`); a key belongs to the
    shard owning the first point clockwise of
    :func:`~repro.workloads.keydist.key_point`.  With v virtual nodes
    per shard the expected max/mean load ratio is 1 + O(1/sqrt(v)).
    """

    def __init__(self, shard_ids: Iterable[int], vnodes: int = DEFAULT_VNODES):
        ids = sorted({int(s) for s in shard_ids})
        if not ids:
            raise ClusterConfigError("router needs at least one shard")
        if vnodes < 1:
            raise ClusterConfigError("vnodes must be positive")
        self.shard_ids: Tuple[int, ...] = tuple(ids)
        self.vnodes = vnodes
        ring: List[Tuple[int, int]] = []
        for sid in ids:
            for replica in range(vnodes):
                ring.append((hash_point(sid, replica), sid))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    def shard_for(self, key: Any) -> int:
        idx = bisect_right(self._points, key_point(int(key))) % len(self._points)
        return self._owners[idx]

    # -- wire form ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            # the only router there is; the placement journal's records
            # keep the field
            "kind": "hash",
            "shards": list(self.shard_ids),
            "vnodes": self.vnodes,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ShardRouter":
        return cls(d["shards"], vnodes=int(d.get("vnodes", DEFAULT_VNODES)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardRouter)
            and other.shard_ids == self.shard_ids
            and other.vnodes == self.vnodes
        )

    def __hash__(self) -> int:  # pragma: no cover - dict-key convenience
        return hash((self.shard_ids, self.vnodes))


class ShardMap:
    """The versioned shard -> group assignment (plus its router).

    This is the record the placement service owns durably: a rebalance
    produces a *new* map (``moved``) with ``version + 1``, mirroring how
    :class:`~repro.replication.membership.MembershipManager` bumps its
    ``view_id`` per chain reconfiguration.
    """

    def __init__(
        self,
        assignment: Mapping[int, int],
        version: int = 1,
        router: Optional[ShardRouter] = None,
        vnodes: int = DEFAULT_VNODES,
    ):
        if not assignment:
            raise ClusterConfigError("shard map cannot be empty")
        self.assignment: Dict[int, int] = {
            int(s): int(g) for s, g in assignment.items()
        }
        self.version = int(version)
        self.router = (
            router
            if router is not None
            else ShardRouter(self.assignment.keys(), vnodes=vnodes)
        )
        placed = set(self.router.shard_ids)
        if placed != set(self.assignment):
            raise ClusterConfigError(
                f"router places shards {sorted(placed)} but the assignment "
                f"covers {sorted(self.assignment)}"
            )

    # -- lookups ------------------------------------------------------------

    @property
    def groups(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.assignment.values())))

    def shards_of(self, group: int) -> Tuple[int, ...]:
        return tuple(
            sorted(s for s, g in self.assignment.items() if g == int(group))
        )

    def shard_for(self, key: Any) -> int:
        return self.router.shard_for(key)

    def group_for(self, key: Any) -> int:
        return self.assignment[self.router.shard_for(key)]

    # -- immutable mutation -------------------------------------------------

    def moved(self, shard: int, group: int) -> "ShardMap":
        """The next map version with ``shard`` reassigned to ``group``."""
        if shard not in self.assignment:
            raise ClusterConfigError(f"shard {shard} is not in the map")
        assignment = dict(self.assignment)
        assignment[int(shard)] = int(group)
        return ShardMap(assignment, version=self.version + 1, router=self.router)

    # -- wire form ----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "assignment": {str(s): g for s, g in sorted(self.assignment.items())},
            "router": self.router.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ShardMap":
        assignment = {int(s): int(g) for s, g in d["assignment"].items()}
        return cls(
            assignment,
            version=int(d.get("version", 1)),
            router=ShardRouter.from_dict(d["router"]) if "router" in d else None,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap)
            and other.version == self.version
            and other.assignment == self.assignment
            and other.router == self.router
        )

    def __hash__(self) -> int:  # pragma: no cover - dict-key convenience
        return hash((self.version, tuple(sorted(self.assignment.items()))))
