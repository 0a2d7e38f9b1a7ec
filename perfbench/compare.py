"""``python -m perfbench compare A/ B/``: two sets of runs, one verdict
per workload x end-to-end metric (and served request latency).

``A`` is the base (the parent commit, or the first half of an A/A
check), ``B`` the change.  Each directory holds the JSON documents that
untraced runs wrote (``--out``).  For every workload and end-to-end
metric the table gives both medians, both quartile pairs, the ratio
B/A, and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``regressed``  -- B's median is worse than A's by more than the bound,
  and by more than either side's own quartile spread;
* ``unresolved`` -- a side's quartile spread (as a share of its median)
  exceeds the bound, so the metric cannot tell; never read as unchanged;
* ``improved``   -- B's median is better by more than A's quartile spread;
* ``unchanged``  -- otherwise.

Simulated results, ``failed_frac`` and every counter read from the
program must repeat exactly for one seed: per (workload, seed) present
on both sides they are ``equal`` or ``re-baselined`` (a flag, never
silent).  Any failed operation in ``B`` is a regression.

Exit status is non-zero on any regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from . import spec

#: deterministic results carried in every run document's ``info``
EXACT = ("sim_ns_per_op", "sim_p99_us", "failed_frac")

#: host latencies the driver does not gate (they exist on one workload,
#: and their spread is wide) but a pair comparison still judges, read
#: from ``info`` where a workload reports them: name -> (better, bound)
LATENCIES = {"req_p50_us": ("lower", 0.25), "req_p99_us": ("lower", 0.25)}


def load_runs(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced run documents of ``directory``, grouped by workload."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("schema") != "perfbench/1" or document.get("trace") != 0:
            continue
        runs.setdefault(document["workload"], []).append(document)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], change: List[float], better: str, bound: float) -> Dict[str, Any]:
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    b_spread = (b_q3 - b_q1) / b_med if b_med else 0.0
    c_spread = (c_q3 - c_q1) / c_med if c_med else 0.0
    spread = max(b_spread, c_spread)
    delta = (c_med - b_med) / b_med if b_med else 0.0
    worse = delta if better == "lower" else -delta
    if worse > bound:
        word = "regressed" if worse > spread else "unresolved"
    elif spread > bound:
        word = "unresolved"
    elif -worse > b_spread:
        word = "improved"
    else:
        word = "unchanged"
    return {
        "base": (b_q1, b_med, b_q3), "change": (c_q1, c_med, c_q3),
        "ratio": c_med / b_med if b_med else float("nan"),
        "spread": spread, "verdict": word,
    }


def exact_differences(base: List[Dict[str, Any]], change: List[Dict[str, Any]]) -> Optional[List[str]]:
    """Names of deterministic results that differ between runs of one
    seed; ``None`` when no seed is present on both sides."""
    by_seed = {doc["seed"]: doc for doc in base}
    differing: set = set()
    paired = False
    for doc in change:
        other = by_seed.get(doc["seed"])
        if other is None or other["ops"] != doc["ops"]:
            continue
        paired = True
        for name in EXACT:
            if other["info"].get(name) != doc["info"].get(name):
                differing.add(name)
        for name in set(other["counts"]) | set(doc["counts"]):
            if other["counts"].get(name) != doc["counts"].get(name):
                differing.add(f"counts.{name}")
    return sorted(differing) if paired else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("base", type=Path, help="directory of the base runs (A)")
    parser.add_argument("change", type=Path, help="directory of the changed runs (B)")
    args = parser.parse_args(argv)
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    metrics = spec.end_to_end()
    regressions = 0
    print(f"{'workload':<16} {'metric':<12} {'A q1/median/q3':>34} {'B q1/median/q3':>34} "
          f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    for workload in spec.workload_names():
        base, change = base_runs.get(workload), change_runs.get(workload)
        if not base or not change:
            print(f"{workload:<16} missing on {'A' if not base else 'B'}")
            continue
        judged = [
            (name, entry["better"], entry["bound"],
             lambda doc, name=name: doc["metrics"][name]["value"])
            for name, entry in metrics.items()
        ] + [
            (name, better, bound, lambda doc, name=name: doc["info"][name])
            for name, (better, bound) in LATENCIES.items()
            if all(name in doc["info"] for doc in base + change)
        ]
        for name, better, bound, read in judged:
            result = verdict([read(doc) for doc in base], [read(doc) for doc in change],
                             better, bound)
            regressions += result["verdict"] == "regressed"
            shown = ["/".join(f"{value:.5g}" for value in result[side]) for side in ("base", "change")]
            print(f"{workload:<16} {name:<12} {shown[0]:>34} {shown[1]:>34} "
                  f"{result['ratio']:>7.4f} {result['spread']:>7.4f} {bound:>6.2f}  "
                  f"{result['verdict']} (n={len(base)}/{len(change)})")
        failed = sum(doc["failed"] for doc in change)
        if failed:
            regressions += 1
            print(f"{workload:<16} failed_frac   {failed} failed operations on B: regressed")
        differing = exact_differences(base, change)
        if differing is None:
            print(f"{workload:<16} exact        no seed on both sides: not compared")
        elif differing:
            print(f"{workload:<16} exact        re-baselined: {', '.join(differing)}")
        else:
            print(f"{workload:<16} exact        equal (sim_*, failed_frac, every counter)")
    print(f"# {regressions} regression(s); claim: null")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
