"""The contended-workload battery: crossover, determinism, lock stats.

``--contention-seeds N`` (the ``contention_seeds`` session fixture,
default 2) widens the seed sweep the same way ``--nemesis-seeds`` does
for fault injection: CI's contention-smoke job raises it, local runs
stay quick.

The headline claim under test: at ≥4 simulated clients on a hot
zipfian key space, ``kamino-finegrained`` strictly beats the
global-lock ``kamino-dynamic`` — while at 1 client the two are
float-exact equals (the cost-profile split sums to the baseline's
constant).
"""

from repro.bench.contention import run_contended_cell, run_contention_sweep

#: small enough to keep each cell ~100 ms, hot enough to collide
NRECORDS = 160
NOPS = 480
KW = {"kamino-dynamic": {"alpha": 0.5},
      "kamino-finegrained": {"alpha": 0.5, "stripes": 16}}


def test_crossover_across_seeds(contention_seeds):
    """The fine-grained engine wins at 8 clients for every swept seed.

    At 4 clients the ~130 ns/tx serialized-software saving still
    competes with object-lock scheduling noise on some seeds; by 8
    clients the queueing term dominates and the win is unconditional
    (checked across seeds 0-5 at authoring time, 1.7-4.8%).
    """
    for seed in range(contention_seeds):
        sweep = run_contention_sweep(
            client_counts=(1, 8),
            seed=seed,
            engine_kwargs=KW,
        )
        base = sweep.cell("kamino-dynamic", 8)
        chal = sweep.cell("kamino-finegrained", 8)
        assert chal.duration_ns < base.duration_ns, (
            f"seed {seed}: no win at 8 clients "
            f"({chal.duration_ns} >= {base.duration_ns})"
        )
        crossover = sweep.crossover_clients()
        assert crossover is not None and crossover <= 8
        # single client: bit-identical scheduling (differential pin)
        assert (
            sweep.cell("kamino-finegrained", 1).duration_ns
            == sweep.cell("kamino-dynamic", 1).duration_ns
        )


def test_cells_are_deterministic():
    """Same seed, same cell — virtual time has no noise to hide behind."""
    cells = [
        run_contended_cell(
            "kamino-finegrained", 4,
            nrecords=NRECORDS, nops=NOPS, seed=1,
            alpha=0.5, stripes=16,
        )
        for _ in range(2)
    ]
    assert cells[0].duration_ns == cells[1].duration_ns
    assert cells[0].mean_latency_ns == cells[1].mean_latency_ns
    assert cells[0].dependent_waits == cells[1].dependent_waits
    assert cells[0].lock_stats == cells[1].lock_stats


def test_lock_stats_reported():
    """The cell surfaces the striped table's counters alongside the
    scheduler's — the two views of the same contention."""
    cell = run_contended_cell(
        "kamino-finegrained", 4,
        nrecords=NRECORDS, nops=NOPS, seed=0,
        alpha=0.5, stripes=16,
    )
    stats = cell.lock_stats
    assert stats["stripes"] == 16
    assert stats["write_acquires"] > 0
    assert stats["read_acquires"] > 0
    doc = cell.to_dict()
    assert doc["lock_stats"]["stripes"] == 16
    assert doc["throughput_kops"] > 0


def test_sweep_document_shape():
    sweep = run_contention_sweep(
        client_counts=(1, 2),
        nrecords=80,
        nops=160,
        engine_kwargs=KW,
    )
    doc = sweep.to_dict()
    assert doc["baseline"] == "kamino-dynamic"
    assert doc["challenger"] == "kamino-finegrained"
    assert len(doc["cells"]) == 4
    assert "crossover_clients" in doc
    assert "speedup_at_max_clients" in doc
