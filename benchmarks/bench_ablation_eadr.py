"""Ablation — persistent caches / whole-system persistence (paper §2).

With eADR-style hardware, cache flushes are free and every store is
effectively durable on power loss, but "atomicity is still necessary to
protect such systems against bugs, deadlocks or live-locks ... which can
leave the data in an irrecoverable state".  The paper notes Kamino-Tx
"does not require but can reap the same benefits from such novel
hardware support".

This ablation reruns YCSB-A under the eADR latency profile: both engines
speed up because flush costs vanish, and Kamino-Tx *keeps* an advantage
— what remains of undo's overhead is the critical-path copy and log
management, which persistent caches do not remove.
"""

from repro.bench import format_table, run_ycsb_online
from repro.nvm.latency import EADR, NVDIMM

NTHREADS = 4


def run(nrecords=500, nops=1200):
    rows = []
    data = {}
    for model in (NVDIMM, EADR):
        lat = {}
        for engine in ("kamino-simple", "undo"):
            result = run_ycsb_online(
                engine, "A", NTHREADS, nrecords=nrecords, nops=nops, value_size=1008,
                model=model,
            )
            lat[engine] = result.mean_latency_us_of("update")
        rows.append([model.name, lat["kamino-simple"], lat["undo"],
                     lat["undo"] / lat["kamino-simple"]])
        data[model.name] = lat
    table = format_table(
        "Ablation: persistent caches (eADR) — YCSB-A update latency (us)",
        ["platform", "kamino-tx", "undo-logging", "undo/kamino"],
        rows,
        note="flush costs vanish for both; the copy + log management remain undo's problem",
    )
    return table, data


def check_shape(data):
    # eADR speeds both engines up ...
    assert data["eadr"]["kamino-simple"] < data["nvdimm"]["kamino-simple"]
    assert data["eadr"]["undo"] < data["nvdimm"]["undo"]
    # ... but does not erase kamino's advantage: the critical-path copy
    # and log management are not flush costs
    ratio = data["eadr"]["undo"] / data["eadr"]["kamino-simple"]
    assert ratio > 1.25, f"kamino must still win under eADR ({ratio:.2f})"


def test_ablation_eadr(benchmark):
    table, data = benchmark.pedantic(
        run, kwargs=dict(nrecords=300, nops=700), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(data)


if __name__ == "__main__":
    table, data = run()
    print(table)
    check_shape(data)
