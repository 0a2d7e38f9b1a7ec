"""A miniature Figure 12/13: YCSB on the persistent KV store.

Loads the B+Tree-backed store and runs YCSB-A and YCSB-C under undo
logging and Kamino-Tx-Simple with four simulated clients — the same
pipeline the full benchmarks use, at toy scale.

Run:  python examples/kvstore_ycsb.py
"""

from repro.bench import format_table, run_ycsb_online

ENGINES = ["undo", "kamino-simple"]
WORKLOADS = ["A", "C"]


def main() -> None:
    rows = []
    for workload in WORKLOADS:
        for engine in ENGINES:
            result = run_ycsb_online(
                engine, workload, 4, nrecords=400, nops=800, value_size=1008
            )
            rows.append([
                f"YCSB-{workload}",
                engine,
                result.throughput_kops,
                result.mean_latency_us,
                result.percentile_latency_us(99),
            ])
    print(format_table(
        "YCSB on the persistent KV store (4 simulated clients)",
        ["workload", "engine", "K ops/s", "mean us", "p99 us"],
        rows,
        note="A: 50% updates -- kamino wins; C: 100% reads -- parity",
    ))


if __name__ == "__main__":
    main()
