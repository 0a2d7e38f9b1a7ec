"""Sharded multi-group cluster: placement, routing, online migration.

Light members (:class:`ShardRouter`, :class:`RangeRouter`,
:class:`ShardMap`, the report types) import eagerly; the heavy ones
(:class:`ShardedCluster`, :class:`PlacementService`,
:class:`ShardMigration`) drag in the simulator and NVM stack, so they
load lazily on first attribute access — the package root can re-export
the whole family without paying for an import of :mod:`repro.cluster`.
"""

from .report import ClusterReport, MigrationReport
from .router import RangeRouter, ShardMap, ShardRouter, router_from_dict

_LAZY = {
    "PlacementService": "placement",
    "MigrationRecord": "placement",
    "ShardMigration": "migrate",
    "ShardedCluster": "sharded",
}

__all__ = [
    "ClusterReport",
    "MigrationRecord",
    "MigrationReport",
    "PlacementService",
    "RangeRouter",
    "ShardMap",
    "ShardMigration",
    "ShardRouter",
    "ShardedCluster",
    "router_from_dict",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(__all__)
