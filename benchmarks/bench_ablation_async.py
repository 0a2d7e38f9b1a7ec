"""Ablation — how much of Kamino-Tx's win is the *asynchrony*?

DESIGN.md calls out the design choice at the heart of the paper: the
backup copy exists in every variant, but Kamino moves its maintenance
off the critical path.  This ablation runs the same engine in three
modes on YCSB-A:

* ``undo``          — copy-before-write in the critical path (baseline);
* ``kamino-eager``  — Kamino's data structures, but the backup is rolled
  forward *synchronously inside commit* (``eager_sync=True``): the copy
  is back on the critical path;
* ``kamino``        — the real thing, asynchronous sync.

Eager Kamino lands between the two: it already avoids undo's log-arena
data capture, but still pays the copy before commit returns.
"""

from repro.bench import format_table, run_ycsb_online

NTHREADS = 4


def run(nrecords=500, nops=1200):
    configs = [
        ("undo", "undo", {}),
        ("kamino-eager", "kamino-simple", {"eager_sync": True}),
        ("kamino", "kamino-simple", {}),
    ]
    rows = []
    lat = {}
    for label, engine_name, kwargs in configs:
        result = run_ycsb_online(
            engine_name, "A", NTHREADS, nrecords=nrecords, nops=nops, value_size=1008,
            seed=3, **kwargs,
        )
        lat[label] = result.mean_latency_us
        rows.append([label, result.throughput_kops / 1e3, result.mean_latency_us])
    table = format_table(
        "Ablation: is it the backup, or the asynchrony? (YCSB-A)",
        ["configuration", "M ops/sec", "mean latency us"],
        rows,
        note="eager kamino puts the copy back on the critical path",
    )
    return table, lat


def check_shape(lat):
    assert lat["kamino"] < lat["kamino-eager"], (
        "asynchrony itself must be worth latency: "
        f"{lat['kamino']:.2f} vs eager {lat['kamino-eager']:.2f}"
    )
    assert lat["kamino-eager"] <= lat["undo"] * 1.05, (
        "even eager kamino avoids undo's log-data capture"
    )


def test_ablation_async(benchmark):
    table, lat = benchmark.pedantic(
        run, kwargs=dict(nrecords=300, nops=700), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(lat)


if __name__ == "__main__":
    table, lat = run()
    print(table)
    check_shape(lat)
