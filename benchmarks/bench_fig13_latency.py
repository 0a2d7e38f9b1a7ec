"""Figure 13 — YCSB + TPC-C latency: Kamino-Tx-Simple vs undo logging.

Paper: on write-intensive workloads Kamino-Tx is up to 2.33× faster
("cache flushes, transactional allocation and software needed for
maintaining undo-logs comprises most of the overhead"); workload C is
identical (100% reads); TPC-C improves ~40% in throughput terms.
"""

from repro.bench import format_table, run_tpcc_online, run_ycsb_online

WORKLOADS = ["A", "B", "C", "D", "F"]
NTHREADS = 4


def run(nrecords=800, nops=1600, tpcc_ops=400):
    rows = []
    ratios = {}
    for workload in WORKLOADS:
        lat = {}
        for engine in ("kamino-simple", "undo"):
            lat[engine] = run_ycsb_online(
                engine, workload, NTHREADS, nrecords=nrecords, nops=nops, value_size=1008
            ).mean_latency_us
        ratios[workload] = lat["undo"] / lat["kamino-simple"]
        rows.append([f"YCSB-{workload}", lat["kamino-simple"], lat["undo"], ratios[workload]])
    lat = {}
    for engine in ("kamino-simple", "undo"):
        lat[engine] = run_tpcc_online(engine, NTHREADS, nops=tpcc_ops).mean_latency_us
    ratios["TPCC"] = lat["undo"] / lat["kamino-simple"]
    rows.append(["TPC-C", lat["kamino-simple"], lat["undo"], ratios["TPCC"]])
    table = format_table(
        "Figure 13: mean operation latency (us), 4 threads",
        ["workload", "kamino-tx", "undo-logging", "undo/kamino"],
        rows,
        note="paper: up to 2.33x faster on write-intensive; identical on C",
    )
    return table, ratios


def check_shape(ratios):
    assert ratios["A"] > 1.3, f"A ratio {ratios['A']:.2f}"
    assert ratios["F"] > 1.3
    assert ratios["TPCC"] > 1.05
    assert abs(ratios["C"] - 1.0) < 0.05, "C must be identical"
    assert ratios["B"] < ratios["A"]


def test_fig13_latency(benchmark):
    table, ratios = benchmark.pedantic(
        run, kwargs=dict(nrecords=300, nops=700, tpcc_ops=200), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(ratios)


if __name__ == "__main__":
    from repro.bench import bar_chart

    table, ratios = run()
    print(table)
    print()
    print(bar_chart("Figure 13: undo/kamino latency ratio", ratios, unit="x"))
    check_shape(ratios)
