"""Shrinking failing scenarios to their simplest reproduction.

A sweep can surface dozens of failing crash points for one underlying
bug.  The minimizer reduces a failure along three axes, cheapest first:

1. **Drop the nested crash** — if the outer crash alone fails, the
   recovery re-entry was noise.
2. **Simplify the policy** — a RANDOM (torn-write lottery) failure that
   also fails under deterministic ``DROP_ALL`` needs no seed to replay.
3. **Find the earliest failing point** — scan crash points upward from 0
   and stop at the first that still fails (the bug's first observable
   trigger; later points usually fail for the same reason).

Every candidate is judged by an actual replay
(:func:`repro.check.explorer.replay_scenario`), so the result is a real,
self-contained failure — the emitted snippet re-runs it with nothing but
the public API.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from ..nvm.device import CrashPolicy
from .explorer import CheckFailure, Scenario, replay_scenario
from .workload import CheckWorkload


def minimize_failure(
    failure: CheckFailure,
    workload_factory: Optional[Callable[[], CheckWorkload]] = None,
    engine_factory: Optional[Callable[[], Any]] = None,
) -> CheckFailure:
    """Shrink ``failure`` to the simplest scenario that still fails."""

    def still_fails(candidate: Scenario) -> Optional[CheckFailure]:
        return replay_scenario(
            candidate,
            workload_factory=workload_factory,
            engine_factory=engine_factory,
        )

    best = failure
    scenario = failure.scenario

    if scenario.nested_after is not None:
        shrunk = still_fails(replace(scenario, nested_after=None))
        if shrunk is not None:
            best, scenario = shrunk, shrunk.scenario

    if scenario.policy is CrashPolicy.RANDOM:
        shrunk = still_fails(
            replace(scenario, policy=CrashPolicy.DROP_ALL, device_seed=0)
        )
        if shrunk is not None:
            best, scenario = shrunk, shrunk.scenario

    if scenario.media != "off":
        # if it fails without the rot, the media corruption was noise;
        # else drop each injection axis separately, then try the
        # single-flip / single-replay version of the same failure
        shrunk = still_fails(
            replace(scenario, media="off", corrupt_lines=0, stale_lines=0,
                    tree=False)
        )
        if shrunk is not None:
            best, scenario = shrunk, shrunk.scenario
        else:
            if scenario.stale_lines > 0 and scenario.corrupt_lines > 0:
                # one of the two corruption kinds may carry the failure
                shrunk = still_fails(replace(scenario, corrupt_lines=0))
                if shrunk is not None:
                    best, scenario = shrunk, shrunk.scenario
                else:
                    shrunk = still_fails(replace(scenario, stale_lines=0))
                    if shrunk is not None:
                        best, scenario = shrunk, shrunk.scenario
            if scenario.corrupt_lines > 1:
                shrunk = still_fails(replace(scenario, corrupt_lines=1))
                if shrunk is not None:
                    best, scenario = shrunk, shrunk.scenario
            if scenario.stale_lines > 1:
                shrunk = still_fails(replace(scenario, stale_lines=1))
                if shrunk is not None:
                    best, scenario = shrunk, shrunk.scenario

    for point in range(0, scenario.crash_after):
        shrunk = still_fails(replace(scenario, crash_after=point))
        if shrunk is not None:
            best = shrunk
            break
    return best


def repro_snippet(failure: CheckFailure) -> str:
    """A paste-into-a-test reproduction of ``failure``.

    The snippet is self-contained for registry engines and canned
    workloads; failures injected through custom factories note that the
    factory must be supplied at replay time.
    """
    s = failure.scenario
    lines = [
        "# crash-consistency failure reproduction",
        f"# {failure.violation}",
        "from repro.check import Scenario, replay_scenario",
        "from repro.nvm.device import CrashPolicy",
        "",
        "failure = replay_scenario(Scenario(",
        f"    engine={s.engine!r},",
        f"    workload={s.workload!r},",
        f"    crash_after={s.crash_after},",
        f"    policy=CrashPolicy.{s.policy.name},",
    ]
    if s.policy is CrashPolicy.RANDOM:
        lines.append(f"    survival={s.survival},")
        lines.append(f"    device_seed={s.device_seed},")
    if s.nested_after is not None:
        lines.append(f"    nested_after={s.nested_after},")
        lines.append(f"    nested_policy=CrashPolicy.{s.nested_policy.name},")
    if s.media != "off":
        lines.append(f"    media={s.media!r},")
        lines.append(f"    corrupt_lines={s.corrupt_lines},")
        lines.append(f"    corrupt_seed={s.corrupt_seed},")
        if s.tree:
            lines.append("    tree=True,")
        if s.stale_lines:
            lines.append(f"    stale_lines={s.stale_lines},")
    lines.append("))")
    lines.append("assert failure is not None, 'no longer reproduces'")
    return "\n".join(lines)
