"""Self-tests of the benchmark (``python -m pytest perfbench/tests -q``).

Not part of the tier-1 collection: they start real runs, one fresh
process each, at 1 % of the default size.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import ROOT, spec
from perfbench.compare import main as compare_main
from perfbench.compare import verdict
from perfbench.trace import LAYERS, Tracer

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMOKE_SCALE = "0.01"
#: workloads with simulated results, which must differ between seeds
SEEDED = ("ycsb_a_kamino", "tpcc_kamino", "served_ycsb_a")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload, untraced, seed 0 twice (sets a and b) and the
    seeded ones at seed 1, plus one traced run each."""
    root = tmp_path_factory.mktemp("perfbench")
    lines = {}
    for label, seed, names in (("a", "0", spec.workload_names()),
                               ("b", "0", spec.workload_names()),
                               ("other_seed", "1", SEEDED)):
        for name in names:
            proc = run_bench("--workload", name, "--seed", seed, "--seconds", "8", "--trace", "0",
                             "--scale", SMOKE_SCALE, "--out", str(root / label))
            lines[label, name] = result_line(proc)
    for name in spec.workload_names():
        proc = run_bench("trace", name, "--scale", SMOKE_SCALE, "--out", str(root / "traced"))
        lines["traced", name] = result_line(proc)
    return root, lines


def document(root: Path, label: str, name: str, seed: int = 0, trace: int = 0) -> dict:
    with open(root / label / f"{name}-seed{seed}-trace{trace}.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- BENCHMARK.json --------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    bench = spec.benchmark()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert all(isinstance(part, str) and len(part) <= 200 for part in bench["command"])
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert len(bench["workloads"]) == 5
    assert 1 <= len(bench["end_to_end"]) <= 16 and 1 <= len(bench["per_layer"]) <= 128
    names = []
    for entry in bench["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in bench["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in bench["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
        names.append(entry["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = spec.end_to_end()["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in bench["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_of_the_contract_are_the_ones_implemented():
    from perfbench.workloads import WORKLOADS

    assert list(WORKLOADS) == spec.workload_names()
    for entry in spec.benchmark()["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]


def test_every_layer_has_its_generic_pair():
    declared = spec.per_layer()
    for layer in LAYERS:
        assert f"{layer}.self_us_per_op" in declared
        assert f"{layer}.calls_per_op" in declared


# -- runs ----------------------------------------------------------------------------


def test_untraced_runs_emit_every_end_to_end_metric(smoke):
    _root, lines = smoke
    for name in spec.workload_names():
        line = lines["a", name]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert set(line["metrics"]) == set(spec.end_to_end())
        for metric, entry in spec.end_to_end().items():
            value = line["metrics"][metric]
            assert value["unit"] == entry["unit"]
            assert isinstance(value["value"], (int, float)) and value["value"] > 0, (name, metric)


def test_served_request_latency_is_reported_by_both_kinds_of_run(smoke):
    root, lines = smoke
    info = document(root, "a", "served_ycsb_a")["info"]
    assert 0 < info["req_p50_us"] <= info["req_p99_us"]
    traced = lines["traced", "served_ycsb_a"]["metrics"]
    assert 0 < traced["req_p50_us"]["value"] <= traced["req_p99_us"]["value"]
    assert lines["traced", "ycsb_a_kamino"]["metrics"]["req_p50_us"]["value"] == 0
    assert document(root, "a", "ycsb_a_kamino")["info"]["op_p50_us"] > 0


def test_traced_runs_emit_every_per_layer_metric(smoke):
    root, lines = smoke
    for name in spec.workload_names():
        line = lines["traced", name]
        assert line["correct"] is True, name
        assert set(line["metrics"]) == set(spec.per_layer())
        for metric, entry in spec.per_layer().items():
            assert line["metrics"][metric]["unit"] == entry["unit"]
            assert isinstance(line["metrics"][metric]["value"], (int, float))
        assert (root / "traced" / f"{name}-seed0.trace.jsonl").stat().st_size > 0


def test_layer_self_times_add_up_to_the_traced_wall(smoke):
    root, _lines = smoke
    for name in spec.workload_names():
        doc = document(root, "traced", name, trace=1)
        values = {metric: entry["value"] for metric, entry in doc["metrics"].items()}
        per_op = sum(values[f"{layer}.self_us_per_op"] for layer in LAYERS)
        per_op += values["bench.span_overhead_us_per_op"]
        wall_us_per_op = doc["info"]["traced_region_s"] * 1e6 / doc["attempted"]
        assert per_op == pytest.approx(wall_us_per_op, rel=0.05), name
        assert values["bench.trace_overhead_frac"] is not None


def test_layers_a_workload_never_enters_read_exactly_zero(smoke):
    root, _lines = smoke
    for name in ("ycsb_a_kamino", "ycsb_b_dynamic", "tpcc_kamino"):
        values = document(root, "traced", name, trace=1)["metrics"]
        for layer in ("serve", "cluster", "replication", "check"):
            assert values[f"{layer}.calls_per_op"]["value"] == 0
            assert values[f"{layer}.self_us_per_op"]["value"] == 0
    values = document(root, "traced", "served_ycsb_a", trace=1)["metrics"]
    for layer in ("serve", "cluster", "replication", "sim", "nvm"):
        assert values[f"{layer}.calls_per_op"]["value"] > 0
    values = document(root, "traced", "crash_sweep_kv", trace=1)["metrics"]
    assert values["check.calls_per_op"]["value"] > 0
    assert values["nvm.crash_image_ms_per_scenario"]["value"] > 0


def test_simulated_results_and_counters_repeat_exactly_for_one_seed(smoke):
    root, _lines = smoke
    for name in spec.workload_names():
        first, second = document(root, "a", name), document(root, "b", name)
        assert first["counts"] == second["counts"], name
        for exact in ("sim_ns_per_op", "sim_p99_us", "failed_frac"):
            assert first["info"].get(exact) == second["info"].get(exact), (name, exact)
        assert first["claim"] is None


def test_simulated_results_differ_between_seeds(smoke):
    root, _lines = smoke
    for name in SEEDED:
        first, other = document(root, "a", name), document(root, "other_seed", name, seed=1)
        assert first["info"]["sim_ns_per_op"] != other["info"]["sim_ns_per_op"], name
        assert first["counts"] != other["counts"], name


def test_compare_of_a_run_set_with_itself_finds_nothing(smoke, capsys):
    root, _lines = smoke
    assert compare_main([str(root / "a"), str(root / "a")]) == 0
    out = capsys.readouterr().out
    assert "regressed" not in out.replace("regression(s)", "")
    assert out.count("exact        equal") == len(spec.workload_names())
    assert "served_ycsb_a    req_p99_us" in out and "ycsb_a_kamino    req_p99_us" not in out
    compare_main([str(root / "a"), str(root / "other_seed")])
    assert "no seed on both sides" in capsys.readouterr().out


def test_micro_cells_smoke(tmp_path):
    proc = run_bench("micro", "--min-seconds", "0.002", "--repeats", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(tmp_path / "micro.json", encoding="utf-8") as handle:
        metrics = json.load(handle)["metrics"]
    assert len(metrics) == 28 and all(NAME.match(name) for name in metrics)
    for name, entry in metrics.items():
        assert UNIT.match(entry["unit"])
        if ".numpy." not in name:
            assert entry["value"] > 0, name


def test_no_result_where_the_program_is_absent(tmp_path):
    """The driver's 'benchmark files only' directory: non-zero exit, no
    result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "ycsb_a_kamino", "--seed", "0", "--seconds", "8",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


# -- pieces ------------------------------------------------------------------------------


def test_span_self_time_arithmetic_on_a_synthetic_nested_trace():
    now = [0]

    def clock() -> int:
        return now[0]

    def spend(ns: int) -> None:
        now[0] += ns

    tracer = Tracer(raw_ops=10, clock=clock)

    def leaf() -> None:
        spend(7)

    leaf_span = tracer.wrap(leaf, tracer.sid("nvm", "leaf"))

    def middle() -> None:
        spend(3)
        leaf_span()
        leaf_span()
        spend(5)

    middle_span = tracer.wrap(middle, tracer.sid("heap", "middle"))

    def top() -> None:
        spend(11)
        middle_span()
        spend(2)
        leaf_span()

    top_span = tracer.wrap(top, tracer.sid("kvstore", "top"), root=True)
    tracer.enabled = True
    spend(100)  # outside every span
    top_span()
    spend(50)
    tracer.enabled = False
    top_span()  # disabled: not recorded

    assert tracer.calls_of("leaf") == 3 and tracer.calls_of("middle") == 1
    assert tracer.self_of("leaf") == 21
    assert tracer.self_of("middle") == 8 and tracer.incl_of("middle") == 22
    assert tracer.self_of("top") == 13 and tracer.incl_of("top") == 42
    assert tracer.children_in_layer("top", "nvm") == 1
    assert tracer.children_in_layer("middle", "nvm") == 2
    layers = tracer.by_layer(wall_ns=192)
    assert layers["nvm"]["self_ns"] == 21 and layers["heap"]["self_ns"] == 8
    assert layers["kvstore"]["self_ns"] == 13 and layers["other"]["self_ns"] == 150
    assert sum(layers[layer]["self_ns"] for layer in LAYERS) == 192
    # one unit of span cost inside each span, two outside it
    corrected = tracer.by_layer(wall_ns=192, inner_ns=1, outer_ns=2)
    assert corrected["nvm"]["self_ns"] == 21 - 3
    assert corrected["heap"]["self_ns"] == 8 - 1 - 2 * 2
    assert corrected["kvstore"]["self_ns"] == 13 - 1 - 2 * 2
    assert corrected["other"]["self_ns"] == 150 - 2
    assert corrected["span_overhead"]["self_ns"] == 5 * 3
    assert sum(entry["self_ns"] for entry in corrected.values()) == 192
    # raw spans: parents close after their children, ids link them
    spans = {seq: (parent, name) for seq, parent, name, *_ in
             ((s, p, tracer.names[i]) for s, p, i, *_ in tracer.raw)}
    assert spans[1] == (0, "top") and spans[2] == (1, "middle") and spans[3] == (2, "leaf")
    assert all(op == 0 for *_, op in tracer.raw)


def test_a_probe_whose_target_is_gone_is_listed_not_fatal():
    class Target:
        def present(self) -> int:
            return 1

    tracer = Tracer()
    tracer.install_many(Target, ("present", "removed_in_a_later_pr"), "heap", "Target")
    assert tracer.missing == ["heap:Target.removed_in_a_later_pr"]
    tracer.enabled = True
    assert Target().present() == 1
    assert tracer.calls_of("Target.present") == 1
    tracer.uninstall()
    assert not hasattr(Target.present, "_perfbench_original")


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, steady, "higher", 0.10)["verdict"] == "unchanged"
    assert verdict(steady, [v * 0.8 for v in steady], "higher", 0.10)["verdict"] == "regressed"
    assert verdict(steady, [v * 1.2 for v in steady], "lower", 0.10)["verdict"] == "regressed"
    assert verdict(steady, [v * 1.2 for v in steady], "higher", 0.10)["verdict"] == "improved"
    noisy = [100.0, 140.0, 70.0, 120.0, 85.0]
    assert verdict(noisy, noisy, "higher", 0.10)["verdict"] == "unresolved"
    assert verdict([5.0], [5.0], "lower", 0.05)["verdict"] == "unchanged"


def test_harness_keeps_to_the_narrow_api():
    """No ``repro.bench`` import and none of the knobs later PRs may
    delete -- the micro-cells alone name a device backend, which is
    their purpose."""
    banned = re.compile(
        r"[(,]\s*(lock_mode|coalesce_sync|coalesce_flushes|device_cls|backend|workers)\s*="
    )
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import)\s+repro\.bench\b", source, re.M), path
        assert "repro.bench" not in source.replace("``repro.bench``", ""), path
        if path.name != "micro.py":
            assert not banned.search(source), path
