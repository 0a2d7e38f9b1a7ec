"""Introspection helpers: human-readable reports on pools and heaps.

Used by the CLI (``python -m repro info``) and handy in tests and
debugging sessions: what regions exist, how full the allocator is, what
state the intent-log slots are in.
"""

from __future__ import annotations

from typing import Dict, List

from .device import NVMDevice
from .pool import PmemPool


def describe_pool(pool: PmemPool) -> Dict:
    """Structural summary of a pool: header fields + region table."""
    regions = [
        {"name": r.name, "offset": r.offset, "size": r.size}
        for r in sorted(pool.regions.values(), key=lambda r: r.offset)
    ]
    return {
        "device_bytes": pool.device.size,
        "root_offset": pool.root_offset,
        "free_bytes": pool.free_bytes,
        "regions": regions,
    }


def describe_heap(heap) -> Dict:
    """Allocator occupancy: per-class chunk counts and byte usage."""
    alloc = heap.allocator
    classes: Dict[int, Dict[str, int]] = {}
    for ci, cls in enumerate(alloc._chunk_class):
        if cls == 0:
            continue
        entry = classes.setdefault(cls, {"chunks": 0, "free_slots": 0, "slots": 0})
        entry["chunks"] += 1
        entry["free_slots"] += alloc._free_counts[ci]
        entry["slots"] += alloc.chunk_size // cls
    return {
        "heap_bytes": heap.region.size,
        "capacity_bytes": alloc.capacity_bytes,
        "allocated_bytes": alloc.allocated_bytes,
        "utilization": (
            alloc.allocated_bytes / alloc.capacity_bytes if alloc.capacity_bytes else 0.0
        ),
        "chunks_total": alloc.n_chunks,
        "chunks_unassigned": len(alloc._unassigned),
        "classes": classes,
    }


def describe_log(log_manager) -> Dict:
    """Durable intent-log slot states (scans NVM, not volatile state)."""
    states: Dict[str, int] = {}
    for rec in log_manager.scan():
        states[rec.state.name] = states.get(rec.state.name, 0) + 1
    busy = sum(states.values())
    return {
        "slots": log_manager.n_slots,
        "free": log_manager.n_slots - busy,
        "non_free_durable": states,
    }


def format_report(heap) -> str:
    """Multi-section plain-text report for a live heap (CLI output)."""
    lines: List[str] = []
    pool_info = describe_pool(heap.pool)
    lines.append(f"pool: {pool_info['device_bytes']:,} bytes, "
                 f"root @ {pool_info['root_offset']:#x}, "
                 f"{pool_info['free_bytes']:,} unreserved")
    lines.append("regions:")
    for region in pool_info["regions"]:
        lines.append(
            f"  {region['name']:<14} @ {region['offset']:>10,}  "
            f"{region['size']:>12,} bytes"
        )
    heap_info = describe_heap(heap)
    lines.append(
        f"heap: {heap_info['allocated_bytes']:,} / "
        f"{heap_info['capacity_bytes']:,} bytes allocated "
        f"({heap_info['utilization']:.1%}); "
        f"{heap_info['chunks_unassigned']}/{heap_info['chunks_total']} chunks unassigned"
    )
    for cls, entry in sorted(heap_info["classes"].items()):
        used = entry["slots"] - entry["free_slots"]
        lines.append(
            f"  class {cls:>5}B: {entry['chunks']} chunk(s), "
            f"{used}/{entry['slots']} slots used"
        )
    log = getattr(heap.engine, "log", None)
    if log is not None:
        log_info = describe_log(log)
        lines.append(
            f"intent log: {log_info['free']}/{log_info['slots']} slots durably free"
            + (f"; busy: {log_info['non_free_durable']}" if log_info["non_free_durable"] else "")
        )
    backup = heap.engine.backup
    if backup is not None:
        lines.append(f"backup: {backup.storage_bytes:,} bytes provisioned "
                     f"({type(backup).__name__})")
    return "\n".join(lines)
