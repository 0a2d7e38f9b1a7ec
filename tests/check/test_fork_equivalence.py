"""A forked nested replay is the replay from scratch.

The sweep runs each novel base point to its crash once and hands every
nested (crash-inside-recovery) scenario a clone of that image instead of
letting it rebuild stack + setup + prefix.  That is only legal if nobody
can tell: for every scenario the sweep forked, the outcome it folded
into the report must be the outcome ``replay_scenario`` computes from
nothing — same pass/fail, same violation kind, same message.
"""

from dataclasses import replace

import pytest

from repro.check import CrashExplorer, Scenario, replay_scenario
from repro.errors import MediaError, PoolCorruptionError
from repro.runtime.registry import registered_engines

ENGINES = sorted(
    name
    for name, info in registered_engines().items()
    if info.capabilities.recoverable and not info.capabilities.needs_chain_repair
)


def _outcome(failure):
    if failure is None:
        return None
    return failure.violation.kind, failure.violation.message


def _forked(explorer, **explore_kwargs):
    """``[(scenario, outcome)]`` for every replay the sweep handed an
    image to, in sweep order."""
    seen = []
    real = explorer.replay

    def recording(scenario, ledger=None, crashed=None):
        failure, fired = real(scenario, ledger, crashed)
        if crashed is not None:
            assert fired is not None
            seen.append((scenario, _outcome(failure)))
        return failure, fired

    explorer.replay = recording
    explorer.explore(**explore_kwargs)
    return seen


@pytest.mark.parametrize("workload", ["pairs", "kv", "list", "ring"])
@pytest.mark.parametrize("engine", ENGINES)
def test_forked_nested_replays_match_from_scratch(engine, workload):
    explorer = CrashExplorer(engine, workload=workload)
    forked = _forked(
        explorer, max_points=5, random_samples=0, max_nested_points=2
    )
    if workload != "ring":  # re-opening a ring persists nothing to crash in
        assert forked
    for scenario, outcome in forked:
        assert scenario.nested_after is not None
        assert _outcome(replay_scenario(scenario)) == outcome, scenario.describe()


@pytest.mark.parametrize(
    "media_kwargs",
    [
        dict(media="protected", tree="streamed", stale_lines=2),
        dict(media="unprotected"),
    ],
    ids=["protected-tree-stale", "unprotected"],
)
def test_forked_media_replays_match_from_scratch(media_kwargs):
    """Rot is injected into the image before it is forked, so every fork
    recovers from the same corrupted bytes, sidecar and fault maps a
    from-scratch replay would have rotted for itself."""
    explorer = CrashExplorer("kamino-simple")
    forked = _forked(
        explorer, max_points=8, random_samples=0, max_nested_points=3, **media_kwargs
    )
    assert forked
    for scenario, outcome in forked:
        assert _outcome(replay_scenario(scenario)) == outcome, scenario.describe()
    if media_kwargs["media"] == "unprotected":
        # the leg is only evidence if some forked replay actually failed
        assert any(outcome is not None for _scenario, outcome in forked)


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
            tree="streamed",
            corrupt_lines=2,
            corrupt_seed=point,
            stale_lines=2,
        )
        crashed = explorer._run_to_crash(base, digest=False)
        try:
            explorer._count_recovery_ops(crashed.device)
        except (MediaError, PoolCorruptionError):
            degraded += 1
        else:
            continue
        assert explorer._replay_nested(base, ledger, 3) == []
        for nested_after in (0, 10**5):
            scenario = replace(base, nested_after=nested_after)
            forked, fired = explorer.replay(scenario, ledger, crashed.fork(0))
            scratch, fired_scratch = explorer.replay(scenario, ledger)
            assert fired is not None and fired_scratch is not None
            assert _outcome(forked) == _outcome(scratch) is None
    assert degraded, "no sampled image degraded: the branches went untested"
