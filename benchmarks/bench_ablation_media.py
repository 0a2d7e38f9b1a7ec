"""Ablation — NVM media speed (paper §7: "for other slower NVMs, the
benefits of Kamino-Tx would only be larger since the copying would take
longer").

Repeats the Figure 13 latency comparison on three latency profiles:
DRAM (battery-backed), NVDIMM (the paper's testbed), and a PCM/3D-XPoint
-like medium with slow asymmetric writes.  The undo/kamino latency ratio
must grow monotonically as the medium slows.
"""

from repro.bench import format_table, run_ycsb_online
from repro.nvm.latency import DRAM, NVDIMM, PCM_LIKE

PROFILES = [DRAM, NVDIMM, PCM_LIKE]
NTHREADS = 4


def run(nrecords=500, nops=1200):
    rows = []
    ratios = {}
    for model in PROFILES:
        lat = {}
        for engine in ("kamino-simple", "undo"):
            result = run_ycsb_online(
                engine, "A", NTHREADS, nrecords=nrecords, nops=nops, value_size=1008,
                model=model,
            )
            # isolate the update path: the paper's claim is about the
            # critical-path *copy*, which only write operations pay
            lat[engine] = result.mean_latency_us_of("update")
        saved = lat["undo"] - lat["kamino-simple"]
        ratios[model.name] = saved
        rows.append([model.name, lat["kamino-simple"], lat["undo"], saved])
    table = format_table(
        "Ablation: YCSB-A update latency (us) by NVM medium",
        ["medium", "kamino-tx", "undo-logging", "saved us/op"],
        rows,
        note="paper: slower media amplify the benefit of keeping copies off the critical path",
    )
    return table, ratios


def check_shape(savings):
    """The benefit — microseconds of critical path saved per update —
    must grow as the medium slows.  (The *ratio* flattens in our model
    because Kamino's own in-place write + flush also slows down; what
    copying-off-the-critical-path buys is the absolute copy time.)"""
    assert savings["dram"] < savings["nvdimm"] < savings["pcm"], (
        f"slower media must widen the saving: {savings}"
    )
    assert savings["pcm"] > 3 * savings["nvdimm"], "PCM should amplify strongly"


def test_ablation_media(benchmark):
    table, ratios = benchmark.pedantic(
        run, kwargs=dict(nrecords=300, nops=700), rounds=1, iterations=1
    )
    from conftest import record_result

    record_result(table)
    check_shape(ratios)


if __name__ == "__main__":
    table, ratios = run()
    print(table)
    check_shape(ratios)
