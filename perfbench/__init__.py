"""perfbench: the repo's end-to-end benchmark with per-layer attribution.

Five workloads, measured one per process; end-to-end numbers come from
an untraced run, per-layer numbers from a separate traced run whose
spans are installed from this package (nothing in ``src/`` knows about
it).  ``BENCHMARK.json`` at the repo root is the contract; README.md in
this directory explains the workloads, the metrics and how they are
expected to interact.

The package drives only the narrow default API of ``repro`` (see
README.md, "Stability rule"): it measures what a plain ``import repro``
user gets.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the checkout root (``BENCHMARK.json`` lives here, ``src/`` beside it)
ROOT = Path(__file__).resolve().parent.parent


def use_repo_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the sources of the checkout it sits in, never
    an installed copy; a checkout without ``src/repro`` (the driver's
    "benchmark files only" directory) is an error, not a fallback.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro is missing")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
