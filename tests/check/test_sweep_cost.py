"""What a crash sweep costs — by count, not by stopwatch.

A crash point should cost the lines it touched, not the pool it sits in
and not the prefix its siblings already ran.  Three things pin that:

* a digest is computed only where the sweep reads one (base points);
* the workload prefix is re-run per base point, per lottery and once per
  novel base for its whole nested family — never once per nested point;
* building, crashing, fingerprinting and cloning a device is independent
  of the pool size, in time and in resident memory.

Runs on every constructible backend, so on both CI legs.
"""

import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import repro
from repro.check import CrashExplorer
from repro.check.workload import KVWorkload, build_stack
from repro.nvm import NVMDevice, backend
from repro.runtime.registry import engine_info

SMALL_POOL = 8 << 20
BIG_POOL = 256 << 20


@pytest.fixture(params=backend.available_backends())
def backend_name(request, monkeypatch):
    monkeypatch.setattr(backend, "_default", request.param)
    return request.param


def _counting(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_digests_and_prefix_runs_per_sweep(backend_name, monkeypatch):
    counts = Counter()
    # the fingerprint is one inherited method: every backend counts here
    _counting(monkeypatch, NVMDevice, "overlay_fingerprint", counts)
    _counting(monkeypatch, KVWorkload, "setup", counts)
    points = 8
    report = CrashExplorer("kamino-simple", workload="kv").explore(max_points=points)
    assert report.ok
    assert report.states_explored == 2 * points  # base + one lottery each
    assert report.nested_explored > points  # several nested points per base
    # only a base point's digest is ever read (the parent computed one for
    # every crash of every scenario, and another per image: 64 here)
    assert counts["overlay_fingerprint"] == points
    # base replay + lottery + one image per novel base, plus the two
    # golden passes (the parent re-ran the prefix per nested point: 46)
    assert counts["setup"] <= 3 * points + 2


def _crash_image_cycle(pool_size):
    """Build a stack, run kv setup, crash, fingerprint, clone."""
    heap, _engine, device = build_stack(
        engine_info("kamino-simple").factory, pool_size=pool_size
    )
    KVWorkload().setup(heap)
    heap.drain()
    device.crash()
    device.overlay_fingerprint()
    return device.clone_durable(seed=0)


def _best_of(n, pool_size):
    best = float("inf")
    for _ in range(n):
        start = time.perf_counter()
        _crash_image_cycle(pool_size)
        best = min(best, time.perf_counter() - start)
    return best


def test_crash_image_time_does_not_scale_with_the_pool(backend_name):
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


def test_crash_image_memory_does_not_scale_with_the_pool(backend_name):
    """A fresh process (``ru_maxrss`` is a high-water mark) builds,
    crashes, fingerprints and clones a 256 MiB pool: flat images would
    need 3-6 pools' worth of resident memory."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([src, root, os.environ.get("PYTHONPATH", "")]),
        REPRO_NVM_BACKEND=backend_name,
    )
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE],
        env=env, cwd=root, capture_output=True, text=True, timeout=120, check=True,
    )
    grown_kib = int(out.stdout.strip())
    assert grown_kib < 64 << 10, f"ru_maxrss grew {grown_kib >> 10} MiB"
