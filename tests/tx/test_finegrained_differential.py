"""Differential pin: kamino-finegrained ≡ kamino-dynamic, single client.

The fine-grained engine changes *only* volatile lock-table structure;
everything durable — intent log, in-place stores, commit records,
backup sync — is inherited.  Under one uncontended client the two
engines must therefore be **bit-identical**: same durable bytes, same
device counters, same crash fingerprints, same virtual-time replay.
Any divergence means the striping leaked into the persistence protocol.
"""

from repro.bench.contention import run_contended_cell
from repro.bench.runners import _load_ycsb
from repro.nvm import CrashPolicy
from repro.nvm.latency import NVDIMM

BASELINE = ("kamino-dynamic", {"alpha": 0.5})
CHALLENGER = ("kamino-finegrained", {"alpha": 0.5, "stripes": 16})

NRECORDS = 120
NOPS = 240
VALUE_SIZE = 256


def _run_ycsb_serial(engine_name, engine_kwargs, crash_after_ops=None):
    """Load + run YCSB-A serially; return (device, fingerprint, stats)."""
    ctx, workload = _load_ycsb(
        engine_name, "A", NRECORDS, VALUE_SIZE, 0, NVDIMM,
        heap_mb=24, **engine_kwargs,
    )
    ops = list(workload.run_ops(NOPS))
    if crash_after_ops is not None:
        ops = ops[:crash_after_ops]
    for op in ops:
        workload.execute(ctx.kv, op)
    ctx.heap.drain()
    device = ctx.device
    return device, device.overlay_fingerprint(), device.stats.snapshot()


def test_durable_bytes_and_stats_identical():
    _, fp_base, stats_base = _run_ycsb_serial(*BASELINE)
    _, fp_fg, stats_fg = _run_ycsb_serial(*CHALLENGER)
    assert fp_base == fp_fg, "durable bytes diverged"
    assert stats_base == stats_fg, "device counters diverged"


def test_crash_fingerprints_identical():
    """Power off at the same mid-workload point: the surviving-word
    lottery is seeded by the device, so identical behaviour must yield
    identical post-crash durable state."""
    fps = []
    for engine_name, kwargs in (BASELINE, CHALLENGER):
        device, _, _ = _run_ycsb_serial(engine_name, kwargs, crash_after_ops=NOPS // 2)
        before = device.overlay_fingerprint()
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
        fps.append((before, device.overlay_fingerprint()))
    assert fps[0] == fps[1]


def test_online_replay_identical_single_client():
    """The scheduler view agrees too: the cost-profile split (8 serial +
    32 local ns) sums to the baseline's 40 ns, so single-client virtual
    durations and latencies are float-exact equals."""
    cells = []
    for engine_name, kwargs in (BASELINE, CHALLENGER):
        cells.append(
            run_contended_cell(
                engine_name, 1,
                nrecords=NRECORDS, nops=NOPS, value_size=VALUE_SIZE,
                heap_mb=24, **kwargs,
            )
        )
    base, fg = cells
    assert base.ops == fg.ops
    assert base.duration_ns == fg.duration_ns
    assert base.mean_latency_ns == fg.mean_latency_ns
    assert base.max_latency_ns == fg.max_latency_ns
    assert base.dependent_waits == fg.dependent_waits
