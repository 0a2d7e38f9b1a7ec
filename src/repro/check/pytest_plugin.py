"""Pytest integration for the crash-consistency checker.

Loaded via ``pytest_plugins = ["repro.check.pytest_plugin"]`` (the
repo's own ``tests/conftest.py`` does this).  It contributes:

* ``--check-budget=quick|full`` — how deep crash sweeps go.  ``quick``
  (the default, and what CI's check-smoke job runs) samples crash
  points; ``full`` is exhaustive and meant for nightly/local runs.
* the ``check_budget`` fixture — the resolved
  :class:`CheckBudget`, whose :meth:`~CheckBudget.explore_kwargs` tests
  splat into :meth:`CrashExplorer.explore`;
* the ``assert_engine_crash_consistent`` fixture — the one-line form:
  sweep an engine × workload under the session budget and fail the test
  with each failure's minimized repro snippet if anything is found.
* ``--contention-seeds=N`` — seeds per contended multi-client scenario
  (the zipfian YCSB-A battery in ``tests/runtime/``), mirroring
  ``--nemesis-seeds``.
* ``--serve-seeds=N`` — device seeds per serving-layer crash sweep
  (``tests/serve/``), same shape as the other seed knobs.
* ``--media-faults`` — opt into the deep media-fault sweeps (tests
  marked ``@pytest.mark.media``); without the flag those tests skip.
  The quick media-integrity tests run unconditionally.
* ``--cluster`` — opt into the deep sharded-cluster sweeps (tests
  marked ``@pytest.mark.cluster``: full migration-window crash
  exploration, multi-seed corpus runs); the quick cluster tests run
  unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import pytest

from .explorer import CrashExplorer
from .minimize import minimize_failure, repro_snippet


@dataclass(frozen=True)
class CheckBudget:
    """Exploration depth knobs shared by every checker-driven test."""

    name: str
    max_points: Optional[int]
    random_samples: int
    max_nested_points: Optional[int]

    def explore_kwargs(self) -> Dict[str, Any]:
        return {
            "max_points": self.max_points,
            "random_samples": self.random_samples,
            "max_nested_points": self.max_nested_points,
        }


BUDGETS = {
    "quick": CheckBudget(
        name="quick",
        max_points=24,
        random_samples=1,
        max_nested_points=3,
    ),
    "full": CheckBudget(
        name="full",
        max_points=None,
        random_samples=2,
        max_nested_points=None,
    ),
}


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--check-budget",
        choices=sorted(BUDGETS),
        default="quick",
        help="crash-consistency sweep depth (quick samples, full is exhaustive)",
    )
    parser.addoption(
        "--nemesis-seeds",
        type=int,
        default=2,
        help="seeds per nemesis fault scenario (tests/faults); raise for "
        "deeper sweeps, e.g. --nemesis-seeds=5",
    )
    parser.addoption(
        "--contention-seeds",
        type=int,
        default=2,
        help="seeds per contended-workload scenario (the multi-client "
        "zipfian battery); raise for deeper sweeps, e.g. "
        "--contention-seeds=5",
    )
    parser.addoption(
        "--serve-seeds",
        type=int,
        default=2,
        help="device seeds per serving-layer crash sweep (tests/serve); "
        "raise for deeper sweeps, e.g. --serve-seeds=5",
    )
    parser.addoption(
        "--media-faults",
        action="store_true",
        default=False,
        help="run the deep media-fault sweeps (tests marked 'media'); "
        "the quick integrity tests run regardless",
    )
    parser.addoption(
        "--cluster",
        action="store_true",
        default=False,
        help="run the deep sharded-cluster sweeps (tests marked "
        "'cluster'); the quick cluster tests run regardless",
    )


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers",
        "media: deep media-fault sweep; skipped unless --media-faults is given",
    )
    config.addinivalue_line(
        "markers",
        "cluster: deep sharded-cluster sweep; skipped unless --cluster is given",
    )


def pytest_collection_modifyitems(config, items) -> None:
    gates = []
    if not config.getoption("--media-faults"):
        gates.append(("media", pytest.mark.skip(reason="needs --media-faults")))
    if not config.getoption("--cluster"):
        gates.append(("cluster", pytest.mark.skip(reason="needs --cluster")))
    for item in items:
        for marker, skip in gates:
            # match the marker itself, not item.keywords: keywords also
            # contain parent node names, and tests/cluster/'s package
            # name would otherwise skip the whole directory
            if item.get_closest_marker(marker) is not None:
                item.add_marker(skip)


@pytest.fixture(scope="session")
def check_budget(request) -> CheckBudget:
    return BUDGETS[request.config.getoption("--check-budget")]


@pytest.fixture(scope="session")
def nemesis_seeds(request) -> int:
    """How many seeds each nemesis scenario runs under."""
    return request.config.getoption("--nemesis-seeds")


@pytest.fixture(scope="session")
def contention_seeds(request) -> int:
    """How many seeds the contended multi-client battery runs under."""
    return request.config.getoption("--contention-seeds")


@pytest.fixture(scope="session")
def serve_seeds(request) -> int:
    """How many device seeds the serving-layer crash sweeps run under."""
    return request.config.getoption("--serve-seeds")


@pytest.fixture
def assert_engine_crash_consistent(check_budget: CheckBudget):
    """Callable fixture: sweep and fail with minimized repros."""

    def _assert(engine: str, workload: str = "pairs", **overrides: Any) -> None:
        kwargs = {**check_budget.explore_kwargs(), **overrides}
        explorer = CrashExplorer(engine, workload=workload)
        report = explorer.explore(**kwargs)
        if report.ok:
            return
        chunks = []
        for failure in report.failures[:3]:
            minimized = minimize_failure(failure)
            chunks.append(f"{minimized}\n{repro_snippet(minimized)}")
        pytest.fail(
            f"{len(report.failures)} crash-consistency failure(s) for "
            f"{engine} x {workload}:\n\n" + "\n\n".join(chunks)
        )

    return _assert
