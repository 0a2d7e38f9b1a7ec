"""Every scenario the sweep judges is the replay from scratch.

The sweep runs the workload once, pauses at each crash point, and judges
the point's base crash, its RANDOM lotteries and its nested
(crash-inside-recovery) family on forks of the paused device, instead of
letting each rebuild stack + setup + prefix and crash for itself.  That
is only legal if nobody can tell: for every scenario the sweep judged,
the outcome it folded into the report must be the outcome the spec
(``from_scratch.py``: a fresh stack run to a scheduled crash) computes —
same pass/fail, same violation kind, same message — on every engine,
workload and media leg.
"""

from dataclasses import replace

import pytest

from repro.check import CrashExplorer, Scenario
from repro.check.explorer import _Plan
from repro.errors import MediaError, PoolCorruptionError
from repro.nvm import CrashPolicy
from repro.runtime.registry import registered_engines

from .from_scratch import replay_from_scratch, run_to_crash

ENGINES = sorted(
    name
    for name, info in registered_engines().items()
    if info.capabilities.recoverable and not info.capabilities.needs_chain_repair
)
WORKLOADS = ["pairs", "kv", "list", "ring"]

MEDIA_LEGS = {
    "protected-corrupt": dict(media="protected", corrupt_lines=2),
    "protected-tree-stale": dict(media="protected", tree=True, stale_lines=2),
    "unprotected": dict(media="unprotected"),
}


def _outcome(failure):
    if failure is None:
        return None
    return failure.violation.kind, failure.violation.message


def _kind(scenario):
    if scenario.nested_after is not None:
        return "nested"
    return "lottery" if scenario.policy is CrashPolicy.RANDOM else "base"


def _judged(explorer, **explore_kwargs):
    """``[(scenario, outcome)]`` for every scenario the sweep judged, in
    the order it judged them."""
    seen = []
    real = explorer.replay

    def recording(scenario, ledger=None, crashed=None):
        # the sweep hands every scenario the image it forked for it
        assert crashed is not None
        failure, fingerprint = real(scenario, ledger, crashed)
        assert fingerprint is not None
        seen.append((scenario, _outcome(failure)))
        return failure, fingerprint

    explorer.replay = recording
    explorer.explore(**explore_kwargs)
    return seen


def _assert_judged_like_the_spec(explorer, **explore_kwargs):
    judged = _judged(explorer, **explore_kwargs)
    ledger = explorer.golden_ledger()
    for scenario, outcome in judged:
        reached, failure = replay_from_scratch(explorer, scenario, ledger)
        assert reached, scenario.describe()
        assert _outcome(failure) == outcome, scenario.describe()
    return judged


def _kinds(judged):
    return {_kind(scenario) for scenario, _outcome in judged}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", ENGINES)
def test_forked_nested_replays_match_from_scratch(engine, workload):
    """Media off: base points, lotteries and nested scenarios alike."""
    judged = _assert_judged_like_the_spec(
        CrashExplorer(engine, workload=workload),
        max_points=5, random_samples=1, max_nested_points=2,
    )
    # re-opening a ring persists nothing to crash in
    nested = set() if workload == "ring" else {"nested"}
    assert _kinds(judged) == {"base", "lottery"} | nested


@pytest.mark.parametrize("leg", sorted(MEDIA_LEGS))
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("engine", ENGINES)
def test_judged_media_scenarios_match_from_scratch(engine, workload, leg):
    """Rot lands on each fork after its own crash resolves, aimed at the
    live allocations of the paused heap: every fork recovers from the
    bytes, sidecar, tree and fault maps a from-scratch run rots for
    itself.  (A rotted image whose recovery degrades typed has no
    nested family.)"""
    judged = _assert_judged_like_the_spec(
        CrashExplorer(engine, workload=workload),
        max_points=3, random_samples=1, max_nested_points=2, **MEDIA_LEGS[leg],
    )
    assert _kinds(judged) >= {"base", "lottery"}


@pytest.mark.parametrize(
    "media_kwargs",
    [MEDIA_LEGS["protected-tree-stale"], MEDIA_LEGS["unprotected"]],
    ids=["protected-tree-stale", "unprotected"],
)
def test_forked_media_replays_match_from_scratch(media_kwargs):
    """A deeper leg on one engine, with evidence the comparison has
    teeth: under ``unprotected`` some judged scenario fails."""
    judged = _assert_judged_like_the_spec(
        CrashExplorer("kamino-simple"),
        max_points=8, random_samples=1, max_nested_points=3, **media_kwargs,
    )
    if media_kwargs["media"] == "unprotected":
        assert any(outcome is not None for _scenario, outcome in judged)


def test_typed_degrade_branches_agree():
    """Images whose recovery degrades with a typed media error take two
    special branches: no op timeline to nest into (so the family is
    empty), and — replayed as a nested scenario anyway, as the minimiser
    or a pasted snippet may — a pass under ``protected``.  Forked or
    from scratch, both must go the same way."""
    explorer = CrashExplorer("kamino-simple")
    ledger = explorer.golden_ledger()
    degraded = 0
    for point in range(0, explorer.count_ops(), 12):
        base = Scenario(
            engine="kamino-simple",
            crash_after=point,
            media="protected",
            tree=True,
            corrupt_lines=2,
            corrupt_seed=point,
            stale_lines=2,
        )
        try:
            explorer._count_recovery_ops(run_to_crash(explorer, base).device)
        except (MediaError, PoolCorruptionError):
            degraded += 1
        else:
            continue
        plan = _Plan(base, random_samples=0, survival=0.5, nested=True, max_nested_points=3)
        assert plan.base(point) == base
        [verdicts] = explorer._sweep_slice([point], ledger, plan)
        assert verdicts.base is None and verdicts.nested == []
        for nested_after in (0, 10**5):
            scenario = replace(base, nested_after=nested_after)
            forked, fired = explorer.replay(scenario, ledger)
            reached, scratch = replay_from_scratch(explorer, scenario, ledger)
            assert fired is not None and reached
            assert _outcome(forked) == _outcome(scratch) is None
    assert degraded, "no sampled image degraded: the branches went untested"
