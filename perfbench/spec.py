"""``BENCHMARK.json`` as the single source of metric names, units and bounds."""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Dict, List

from . import ROOT


@lru_cache(maxsize=None)
def benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [entry["name"] for entry in benchmark()["workloads"]]


def end_to_end() -> Dict[str, Dict[str, Any]]:
    return {entry["name"]: entry for entry in benchmark()["end_to_end"]}


def per_layer() -> Dict[str, Dict[str, Any]]:
    return {entry["name"]: entry for entry in benchmark()["per_layer"]}


def run_seconds() -> int:
    return benchmark()["run_seconds"]
