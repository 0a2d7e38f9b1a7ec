"""Command line of the benchmark.

    python -m perfbench --workload W --seed N --seconds S --trace 0|1
    python -m perfbench all [--seeds 0,1] [--trace 0|1] [--out DIR] ...
    python -m perfbench trace W [--seed N] ...
    python -m perfbench micro [--out DIR]
    python -m perfbench compare A/ B/

The first form is what ``BENCHMARK.json`` names; ``all`` starts one
fresh process per run of that form.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

from . import ROOT, spec


def _all(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench all",
        description="Run every workload, one fresh process per run.",
    )
    parser.add_argument("--seeds", default="0", help="comma-separated seeds (default: 0)")
    parser.add_argument("--workloads", default=",".join(spec.workload_names()))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out")
    args = parser.parse_args(argv)
    worst = 0
    for seed in args.seeds.split(","):
        for workload in args.workloads.split(","):
            command = [sys.executable, "-m", "perfbench", "--workload", workload,
                       "--seed", seed, "--trace", str(args.trace),
                       "--scale", str(args.scale), "--out", str(args.out)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            worst = max(worst, subprocess.run(command, cwd=ROOT, check=False).returncode)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = argv[0] if argv else ""
    if verb == "all":
        return _all(argv[1:])
    if verb == "compare":
        from .compare import main as compare_main

        return compare_main(argv[1:])
    if verb == "micro":
        from .micro import main as micro_main

        return micro_main(argv[1:])
    from .run import main as run_main

    if verb == "trace":
        if len(argv) < 2:
            print("usage: python -m perfbench trace <workload> [--seed N] ...", file=sys.stderr)
            return 2
        return run_main(["--workload", argv[1], "--trace", "1", *argv[2:]])
    return run_main(argv)
