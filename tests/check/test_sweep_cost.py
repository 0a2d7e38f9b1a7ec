"""What a crash sweep costs — by count, not by stopwatch.

A crash point should cost the lines it touched, not the pool it sits in
and not the prefix or the recovery its siblings already ran.  Five
things pin that:

* a digest is computed once per base point the sweep probes;
* the workload runs a fixed number of times per sweep, whatever the
  number of points: once to count operations, once for the ledger, and
  once for the forward pass every judged scenario forks from;
* recovery runs once per judged scenario, plus twice per nested family:
  once to count recovery's operations and once for the recovery pass
  every nested scenario of the family forks from;
* a digest forgets the written pages that hold zeros again, so clones
  copy only non-zero pages (the full mirror's copy of a zeroed heap is
  never written in the first place);
* building, crashing, fingerprinting and cloning a device is independent
  of the pool size, in time and in resident memory, and so is creating a
  stack on any engine.
"""

import time
from collections import Counter

from repro import ExecutionContext
from repro.check import CrashExplorer, explorer as explorer_module
from repro.check.workload import KVWorkload, build_stack
from repro.nvm import CrashPolicy, NVMDevice
from repro.nvm.device import PAGE
from repro.runtime.registry import engine_info, registered_engines
from repro.tx.backup import BACKUP_REGION
from tests.fresh_process import ROOT, run_probe

SMALL_POOL = 8 << 20
BIG_POOL = 256 << 20


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_digests_and_prefix_runs_per_sweep(monkeypatch):
    counts = Counter()
    _counting(monkeypatch, NVMDevice, "overlay_fingerprint", counts)
    _counting(monkeypatch, KVWorkload, "setup", counts)
    for points in (8, 64):
        counts.clear()
        report = CrashExplorer("kamino-simple", workload="kv").explore(max_points=points)
        assert report.ok
        assert report.states_explored == 2 * points  # base + one lottery each
        assert report.nested_explored > points  # several nested points per base
        # one digest per base point probed, taken on the paused pass
        assert counts["overlay_fingerprint"] == points
        # counting run + golden ledger + one forward pass (re-running the
        # prefix per base, per lottery and per nested family: 194 at 64)
        assert counts["setup"] == 3


def test_recoveries_per_sweep(monkeypatch):
    """Each judged scenario recovers once; each novel point's nested
    family adds one counting recovery and, when recovery has operations
    to crash in, one recovery pass, whatever the family's size (at 64
    points: 472 recoveries, where re-running recovery up to every
    nested point took 640)."""
    counts = Counter()
    _counting(monkeypatch, explorer_module, "reopen_after_crash", counts)
    _counting(monkeypatch, CrashExplorer, "_count_recovery_ops", counts)
    _counting(monkeypatch, CrashExplorer, "_recovery_forks", counts)
    report = CrashExplorer("kamino-simple", workload="kv").explore(max_points=64)
    assert report.ok
    assert counts["_count_recovery_ops"] == 64
    # a point with no transaction in flight recovers without a mutating
    # operation: nothing to nest into, no pass
    assert 0 < counts["_recovery_forks"] < 64
    assert counts["reopen_after_crash"] == (
        report.states_explored
        + counts["_count_recovery_ops"]
        + counts["_recovery_forks"]
        + report.nested_explored
    ) == 472


def _nonzero_pages(device):
    return {
        page
        for page in range(device.size // PAGE)
        if any(device._durable[page * PAGE : (page + 1) * PAGE])
    }


def test_clones_copy_only_non_zero_pages(monkeypatch):
    """After setup the full mirror holds a copy of the zeroed heap, and
    none of its pages of zeros was written: only the pages that hold
    data are recorded.  Pages written and then zeroed again are recorded
    until the first digest forgets them, and a clone copies the pages
    that hold data and nothing else."""
    heap, _engine, device = build_stack(engine_info("kamino-simple").factory)
    KVWorkload().setup(heap)
    heap.drain()
    nonzero = _nonzero_pages(device)
    assert device._touched == nonzero
    mirror = heap.pool.region(BACKUP_REGION)
    tail = mirror.offset + mirror.size - 64 * PAGE
    for data in (b"\x5a" * 64 * PAGE, bytes(64 * PAGE)):
        device.write(tail, data)
        device.flush(tail, 64 * PAGE)
    assert _nonzero_pages(device) == nonzero
    assert len(device._touched - nonzero) >= 64
    device.overlay_fingerprint()
    assert device._touched == nonzero
    counts = Counter()
    _counting(monkeypatch, NVMDevice, "poke_durable", counts)
    clone = device.clone_durable(seed=0)
    assert counts["poke_durable"] == len(nonzero)
    assert clone._touched == nonzero


def test_pairs_prunes_repeated_crash_states():
    """Per-engine txids make two runs to one point byte-identical, so
    points separated only by reads or empty fences share a digest."""
    report = CrashExplorer("kamino-simple", workload="pairs").explore(max_points=64)
    assert report.ok
    assert report.states_pruned > 0
    assert report.states_explored == 2 * (64 - report.states_pruned)


def _crash_image_cycle(pool_size):
    """Build a stack, run kv setup, leave lines dirty at both ends of
    the pool, fingerprint, crash, clone."""
    heap, _engine, device = build_stack(
        engine_info("kamino-simple").factory, pool_size=pool_size
    )
    KVWorkload().setup(heap)
    heap.drain()
    for addr in (0, pool_size // 2 + 8, pool_size - 64):
        device.write(addr, b"\x5a" * 40)
    device.overlay_fingerprint()
    device.crash(CrashPolicy.KEEP_ALL)
    return device.clone_durable(seed=0)


def _best_of(n, pool_size):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        _crash_image_cycle(pool_size)
        best = min(best, time.perf_counter() - start)
    return best


def test_crash_image_time_does_not_scale_with_the_pool():
    """32x the pool, same work: anything O(pool) — a zero-fill, a scan, a
    full hash or copy — would cost ~30x; the bound leaves room for noise
    only."""
    _crash_image_cycle(SMALL_POOL)  # imports, registry, allocator warm-up
    small = _best_of(5, SMALL_POOL)
    big = _best_of(5, BIG_POOL)
    assert big < 5 * small, f"{BIG_POOL >> 20} MiB: {big:.4f}s vs {small:.4f}s"


_RSS_PROBE = """
import resource
from tests.check.test_sweep_cost import BIG_POOL, SMALL_POOL, _crash_image_cycle
_crash_image_cycle(SMALL_POOL)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
keep = _crash_image_cycle(BIG_POOL)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_crash_image_memory_does_not_scale_with_the_pool():
    """A fresh process (``ru_maxrss`` is a high-water mark) builds,
    crashes, fingerprints and clones a 256 MiB pool: flat images would
    need 3-6 pools' worth of resident memory."""
    grown_kib = int(run_probe(_RSS_PROBE, ROOT).strip())
    assert grown_kib < 64 << 10, f"ru_maxrss grew {grown_kib >> 10} MiB"


_CREATE_PROBE = """
import resource
from repro import ExecutionContext
from repro.runtime.registry import registered_engines
for name in sorted(registered_engines()):
    ExecutionContext.create(name, heap_mb=1)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for name in sorted(registered_engines()):
    ctx = ExecutionContext.create(name, heap_mb=256)
    print(name, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
    del ctx
"""


def test_creating_a_stack_does_not_scale_with_the_heap():
    """A fresh process creates a 256 MiB heap on every engine.  The full
    mirror is provisioned at twice the heap, yet a fresh one copies and
    flushes pages of zeros only, so it must stay as cheap as the rest:
    resident memory follows what setup wrote, not the pool."""
    grown = dict(line.split() for line in run_probe(_CREATE_PROBE).splitlines())
    assert sorted(grown) == sorted(registered_engines())
    for name, kib in grown.items():
        assert int(kib) < 24 << 10, f"{name}: ru_maxrss grew {int(kib) >> 10} MiB"


#: what creating a 48 MiB stack charges, engine by engine, in this
#: order — as it did when the full mirror's seeding copy and flush still
#: moved every page
CHARGED = ("loads", "load_bytes", "stores", "store_bytes", "flushes", "flushed_lines",
           "flush_bursts", "fences", "copies", "copy_bytes")
POST_CREATE_STATS = {
    "cow": (2, 16, 37, 1344, 42, 41, 41, 26, 10, 160),
    "intent-only": (2, 16, 33, 1120, 28, 29, 29, 18, 0, 0),
    "kamino-dynamic": (2, 16, 41, 1344, 40, 42, 42, 30, 4, 32),
    "kamino-finegrained": (2, 16, 41, 1344, 40, 42, 42, 30, 4, 32),
    "kamino-simple": (2, 16, 35, 1168, 31, 786463, 786463, 21, 1, 50331648),
    "nolog": (2, 16, 16, 328, 11, 11, 11, 7, 0, 0),
    "nvtraverse": (6, 48, 26, 856, 23, 786457, 786457, 17, 1, 50331648),
    "undo": (2, 16, 33, 1120, 32, 33, 33, 22, 4, 32),
}


def test_creating_a_stack_charges_what_it_always_did():
    for name, want in POST_CREATE_STATS.items():
        stats = ExecutionContext.create(name, heap_mb=48).device.stats.snapshot()
        assert tuple(getattr(stats, field) for field in CHARGED) == want, name
