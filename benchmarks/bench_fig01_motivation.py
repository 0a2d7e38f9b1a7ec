"""Figure 1 — the motivation: logging overhead on YCSB + TPC-C.

Paper: MySQL with a 4-thread client; undo logging costs 50–250% of
throughput on write-heavy workloads, little on read-mostly B–D.

Substitution (DESIGN.md §1): our persistent B+Tree KV store stands in
for MySQL/InnoDB; ``NoLoggingEngine`` is "No Logging" (unsafe),
``UndoLogEngine`` is InnoDB-style undo logging.  The claim under test is
the *overhead ratio per workload class*, not MySQL's absolute ops/sec.
"""

import sys

from repro.bench import format_table, run_tpcc_online, run_ycsb_online

WORKLOADS = ["A", "B", "C", "D", "F"]
ENGINES = ["nolog", "undo"]
NTHREADS = 4


def run(nrecords=800, nops=1600, tpcc_ops=400):
    rows = []
    series = {}
    for workload in WORKLOADS:
        kops = {}
        for engine in ENGINES:
            kops[engine] = run_ycsb_online(
                engine, workload, NTHREADS, nrecords=nrecords, nops=nops, value_size=1008
            ).throughput_kops
        overhead = (kops["nolog"] / kops["undo"] - 1.0) * 100.0
        rows.append([f"YCSB-{workload}", kops["nolog"], kops["undo"], overhead])
        series[workload] = overhead
    kops = {}
    for engine in ENGINES:
        kops[engine] = run_tpcc_online(engine, NTHREADS, nops=tpcc_ops).throughput_kops
    overhead = (kops["nolog"] / kops["undo"] - 1.0) * 100.0
    rows.append(["TPC-C", kops["nolog"], kops["undo"], overhead])
    series["TPCC"] = overhead
    table = format_table(
        "Figure 1: logging overhead, 4 clients (K ops/sec)",
        ["workload", "no-logging", "undo-logging", "overhead %"],
        rows,
        note="paper: 50-250% overhead on write-heavy; minimal on read-mostly B-D",
    )
    return table, series


def check_shape(series):
    # write-heavy workloads suffer far more than read-mostly ones
    assert series["A"] > 25.0, f"A overhead too small: {series['A']:.0f}%"
    assert series["F"] > 25.0
    assert series["TPCC"] > 25.0
    assert series["C"] < 10.0, f"read-only C should be near zero: {series['C']:.0f}%"
    assert series["B"] < series["A"]
    assert series["D"] < series["A"]


def test_fig01_motivation(benchmark, record_property):
    table, series = benchmark.pedantic(
        run, kwargs=dict(nrecords=300, nops=700, tpcc_ops=200), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(series)


if __name__ == "__main__":
    table, series = run()
    print(table)
    check_shape(series)
