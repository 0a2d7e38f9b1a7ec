"""§7.1 "Worst-case performance" — continuously updating one object.

Paper: 1–8 threads each transactionally update one object 100 K times,
with object sizes from 64 B to 4096 B.  For objects under ~1 KB,
Kamino-Tx still wins by obviating log allocation; at larger sizes both
schemes converge because the transaction time is dominated by copying
(undo's critical-path copy vs Kamino's on-demand sync forced by the
immediate dependent re-update) and both hit the memory bandwidth limit.
"""

from repro.bench import format_table
from repro.runtime import ExecutionContext, run_online
from repro.workloads import WorstCaseWorkload, YCSBWorkload

# payload sizes chosen so payload + 16B object header lands on a size
# class exactly (the paper's 64B..4KB sweep)
SIZES = [64, 240, 1008, 4080]
THREADS = [1, 4, 8]


def run_case(engine, object_size, nthreads, nops):
    # each thread continuously updates its own object
    ctx = ExecutionContext.create(engine, value_size=object_size, heap_mb=8)
    workload = WorstCaseWorkload(object_size=object_size, nobjects=nthreads)
    workload.load(ctx.kv)
    ctx.reset()
    return run_online(
        ctx, workload.ops(nops), lambda op: YCSBWorkload.execute(ctx.kv, op), nthreads
    )


def run(nops=800):
    rows = []
    data = {}
    for size in SIZES:
        for nthreads in THREADS:
            lat = {}
            for engine in ("kamino-simple", "undo"):
                lat[engine] = run_case(engine, size, nthreads, nops).mean_latency_us
            ratio = lat["undo"] / lat["kamino-simple"]
            rows.append([size, nthreads, lat["kamino-simple"], lat["undo"], ratio])
            data[(size, nthreads)] = ratio
    table = format_table(
        "Worst case (sec 7.1): same-object updates, latency (us)",
        ["object B", "threads", "kamino-tx", "undo-logging", "undo/kamino"],
        rows,
        note="paper: kamino wins < 1KB (no log allocation); parity at larger objects",
    )
    return table, data


def check_shape(data):
    for nthreads in THREADS:
        small = data[(64, nthreads)]
        large = data[(4080, nthreads)]
        assert small > 1.05, f"64B@{nthreads}T: kamino must win ({small:.2f})"
        # convergence: the advantage shrinks as copying dominates
        assert large < small + 0.05, (
            f"@{nthreads}T: advantage must shrink with size "
            f"({small:.2f} -> {large:.2f})"
        )
        # single-thread large objects converge to parity; at 8 threads a
        # residual gap remains from queueing on the shared undo-log arena
        bound = 1.3 if nthreads == 1 else 2.0
        assert large < bound, f"4KB@{nthreads}T: expected <{bound} ({large:.2f})"


def test_worst_case(benchmark):
    table, data = benchmark.pedantic(run, kwargs=dict(nops=400), rounds=1, iterations=1)
    from conftest import record_result

    record_result(table)
    check_shape(data)


if __name__ == "__main__":
    table, data = run()
    print(table)
    check_shape(data)
