"""§7.1 "Dependent transactions" — uniform vs burst same-key writes.

Paper: 80% look-ups / 20% inserts all on the same key, with the writes
either spaced uniformly or issued as one burst.  Undo logging's average
latency is unaffected (within error); Kamino-Tx's average rises ~8% and
the hot-key writes themselves slow by over 30% in the burst case,
because each write must wait for its predecessor's backup sync.

Runs **online** through one ExecutionContext per case (flush coalescer
enabled): each operation executes functionally at the virtual time its
client reaches it, so a dependent write's wait for its predecessor's
backup sync is exact, not reconstructed from a serially collected
trace.  A multi-client run of the burst case shows the same hot-key
queueing compounding across clients.
"""

from repro.bench import format_table
from repro.runtime import ExecutionContext, run_online
from repro.workloads import DependentTxWorkload, UPDATE, YCSBWorkload


def run_case(engine, spacing, nrecords, nops, nthreads=1):
    ctx = ExecutionContext.create(engine, value_size=64, heap_mb=8, coalesce_flushes=True)
    workload = DependentTxWorkload(nrecords, spacing=spacing, value_size=64, seed=2)
    workload.load(ctx.kv)
    ctx.reset()
    # one client stream, as in the paper's experiment: burstiness then
    # only matters through each scheme's own lock-release rule
    result = run_online(
        ctx,
        list(workload.ops(nops)),
        lambda op: YCSBWorkload.execute(ctx.kv, op),
        nthreads,
        workload=f"dependent-{spacing}",
    )
    return result.mean_latency_us, result.mean_latency_us_of(UPDATE)


def run(nrecords=500, nops=2000):
    rows = []
    data = {}
    for engine in ("undo", "kamino-simple"):
        for spacing in ("uniform", "burst"):
            avg, wavg = run_case(engine, spacing, nrecords, nops)
            rows.append([engine, spacing, avg, wavg])
            data[(engine, spacing)] = (avg, wavg)
    # the online scheduler makes multi-client hot-key contention exact:
    # under bursts, several clients' writes pile onto the same key and
    # each must wait out its predecessor's backup sync
    for engine in ("undo", "kamino-simple"):
        avg, wavg = run_case(engine, "burst", nrecords, nops, nthreads=4)
        rows.append([f"{engine} (4 clients)", "burst", avg, wavg])
        data[(engine, "burst-4c")] = (avg, wavg)
    table = format_table(
        "Dependent transactions (sec 7.1): 80% lookup / 20% same-key writes",
        ["engine", "spacing", "avg latency us", "hot-write latency us"],
        rows,
        note="paper: undo unaffected by burstiness; kamino avg +8%, hot writes +30%",
    )
    return table, data


def check_shape(data):
    # undo: burstiness does not matter (within noise)
    u_uni, u_burst = data[("undo", "uniform")][0], data[("undo", "burst")][0]
    assert abs(u_burst - u_uni) / u_uni < 0.10, "undo must be burst-insensitive"
    # kamino: bursts hurt the hot-key writes.  The penalty is the
    # predecessor's backup-sync time, which the flush coalescer
    # legitimately shortens (the mirror is contiguous, so its sync
    # drains in long bursts) — hence a 10% floor here vs the paper's
    # 30% on uncoalesced hardware.
    k_uni_w = data[("kamino-simple", "uniform")][1]
    k_burst_w = data[("kamino-simple", "burst")][1]
    assert k_burst_w > 1.10 * k_uni_w, (
        f"kamino hot writes must slow under bursts ({k_uni_w:.2f} -> {k_burst_w:.2f})"
    )
    # with more clients the hot key queues deeper still
    k_burst4_w = data[("kamino-simple", "burst-4c")][1]
    assert k_burst4_w > k_burst_w, (
        f"kamino hot writes must queue deeper with clients "
        f"({k_burst_w:.2f} -> {k_burst4_w:.2f})"
    )


def test_dependent_tx(benchmark):
    table, data = benchmark.pedantic(
        run, kwargs=dict(nrecords=300, nops=1200), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(data)


if __name__ == "__main__":
    table, data = run()
    print(table)
    check_shape(data)
