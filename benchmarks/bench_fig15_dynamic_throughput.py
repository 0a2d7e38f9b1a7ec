"""Figure 15 — YCSB throughput with partial (dynamic) backups vs full copy.

Paper: Kamino-Tx-Simple outperforms the dynamic variant by up to 1.5×
on write-intensive workloads, but a 50% backup costs only ~5% of
throughput on read-heavy workloads — the storage/performance trade-off
that motivates Kamino-Tx-Dynamic.
"""

from repro.bench import format_table, run_ycsb_online

WORKLOADS = ["A", "B", "D", "F"]
ALPHAS = [0.1, 0.3, 0.5, 0.7, 0.9]
NTHREADS = 4


def run(nrecords=1500, nops=6000):
    # size the heap snugly around the dataset so alpha is a meaningful
    # fraction of the data (the paper's alpha x dataSize)
    heap_mb = max(1, (nrecords * 1400) >> 20)
    rows = []
    data = {}
    for workload in WORKLOADS:
        kops = []
        for alpha in ALPHAS:
            kops.append(run_ycsb_online(
                "kamino-dynamic", workload, NTHREADS, nrecords=nrecords, nops=nops,
                value_size=1008, heap_mb=heap_mb, alpha=alpha,
            ).throughput_kops / 1e3)
        full = run_ycsb_online(
            "kamino-simple", workload, NTHREADS, nrecords=nrecords, nops=nops,
            value_size=1008, heap_mb=heap_mb,
        ).throughput_kops / 1e3
        rows.append([f"YCSB-{workload}"] + kops + [full])
        data[workload] = (kops, full)
    table = format_table(
        "Figure 15: throughput (M ops/sec) with partial backups",
        ["workload"] + [f"{int(a*100)}%" for a in ALPHAS] + ["full-copy"],
        rows,
        note="paper: full copy up to 1.5x better write-heavy; 50% backup ~5% loss read-heavy",
    )
    return table, data


def check_shape(data):
    for workload, (kops, full) in data.items():
        # D gets slack at this scale: "latest" reads frequently land in
        # the just-inserted object's sync window, which the full mirror
        # (absorbing every allocation) extends — see bench_fig14's note.
        slack = 0.80 if workload == "D" else 0.95
        assert full >= kops[0] * slack, f"{workload}: full-copy must win"
    # the 50% point loses little on the read-heavy workload
    kops_b, full_b = data["B"]
    assert kops_b[2] > 0.85 * full_b, "B@50%: should be within ~15% of full copy"
    # write-heavy A suffers more at small alpha than read-heavy B
    loss_a = 1 - data["A"][0][0] / data["A"][1]
    loss_b = 1 - data["B"][0][0] / data["B"][1]
    assert loss_a >= loss_b - 0.05


def test_fig15_dynamic_throughput(benchmark):
    table, data = benchmark.pedantic(
        run, kwargs=dict(nrecords=500, nops=2000), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(data)


if __name__ == "__main__":
    table, data = run()
    print(table)
    check_shape(data)
