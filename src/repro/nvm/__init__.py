"""Simulated non-volatile memory substrate.

This package stands in for the NVDIMM hardware and ``clwb``/``sfence``
persistence primitives the paper's testbed provides.  See DESIGN.md §1
for the substitution rationale.
"""

from .device import CrashPolicy, DeclaredLoads, NVMDevice
from .latency import (
    CACHE_LINE,
    DRAM,
    EADR,
    NVDIMM,
    PCM_LIKE,
    PROFILES,
    WORD,
    LatencyModel,
    profile,
)
from .pool import DATA_START, MAX_REGIONS, PmemPool, PmemRegion
from .reference import ReferenceNVMDevice
from .stats import NVMStats, StatsStack

__all__ = [
    "CACHE_LINE",
    "WORD",
    "CrashPolicy",
    "DATA_START",
    "DeclaredLoads",
    "DRAM",
    "EADR",
    "LatencyModel",
    "MAX_REGIONS",
    "NVDIMM",
    "NVMDevice",
    "NVMStats",
    "PCM_LIKE",
    "PROFILES",
    "PmemPool",
    "PmemRegion",
    "ReferenceNVMDevice",
    "StatsStack",
    "profile",
]
