"""Figure 16 — normalized throughput per dollar across backup configs.

Paper: throughput/TCO-dollar for undo logging, Kamino-Tx-Dynamic at
10–90%, and Kamino-Tx-Simple, on a write-heavy (YCSB-A) and a read-only
workload.  Kamino-Tx-Simple reaches up to 8.6× more throughput per
dollar on write-heavy work; for read-heavy workloads the dynamic variant
can be the better buy because its throughput is nearly equal at a lower
provisioned-NVM cost.
"""

from repro.bench import format_table, normalized_ops_per_dollar, run_ycsb_online

ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]
NTHREADS = 8


def _throughputs(workload, nrecords, nops):
    heap_mb = max(1, (nrecords * 1400) >> 20)
    def kops(engine, **kwargs):
        return run_ycsb_online(
            engine, workload, NTHREADS, nrecords=nrecords, nops=nops,
            value_size=1008, heap_mb=heap_mb, **kwargs,
        ).throughput_kops

    series = {"undo": kops("undo")}
    for alpha in ALPHAS:
        series[f"kamino-dynamic-{int(alpha * 100)}"] = kops("kamino-dynamic", alpha=alpha)
    series["kamino-simple"] = kops("kamino-simple")
    return series, heap_mb


def run(nrecords=1500, nops=6000, data_gb=100.0):
    alphas = {f"kamino-dynamic-{int(a * 100)}": a for a in ALPHAS}
    results = {}
    for label, workload in (("write-heavy (A)", "A"), ("read-only (C)", "C")):
        series, _ = _throughputs(workload, nrecords, nops)
        results[label] = normalized_ops_per_dollar(series, data_gb, alphas)
    schemes = ["undo"] + sorted(alphas) + ["kamino-simple"]
    rows = [
        [scheme] + [results[label][scheme] for label in results] for scheme in schemes
    ]
    table = format_table(
        "Figure 16: normalized ops/sec/dollar (undo = 1.0)",
        ["scheme", "write-heavy (A)", "read-only (C)"],
        rows,
        note="paper: kamino-simple up to 8.6x per dollar on write-heavy; "
        "dynamic can win per-dollar on read-heavy",
    )
    return table, results


def check_shape(results):
    wh = results["write-heavy (A)"]
    ro = results["read-only (C)"]
    # write-heavy: some kamino configuration is the clear per-dollar
    # winner, and even the 2x-storage full mirror stays competitive
    best_kamino = max(v for k, v in wh.items() if k != "undo")
    assert best_kamino > 1.2, f"write-heavy: kamino must win per dollar ({best_kamino:.2f})"
    assert wh["kamino-simple"] > 0.85, wh
    # read-only: throughput parity means storage cost decides — the full
    # mirror cannot beat a partial backup per dollar
    assert ro["kamino-simple"] <= max(v for k, v in ro.items() if "dynamic" in k) + 1e-9


def test_fig16_tco(benchmark):
    table, results = benchmark.pedantic(
        run, kwargs=dict(nrecords=400, nops=1200), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(results)


if __name__ == "__main__":
    table, results = run()
    print(table)
    check_shape(results)
