"""Acceptance: broken variants of the concurrent engines are caught.

One deliberately-miswired fixture per new engine, mirroring
``test_broken_engine.py``:

* **kamino-finegrained** — backup rolled forward *before* the commit
  record is durable.  A crash in the window leaves a RUNNING slot whose
  rollback source already holds new values; "rollback" then produces a
  mix of old and new data.
* **nvtraverse** — the destination stores applied to the main heap
  *before* the intent batch is durable (fence 1 reordered after the
  in-place edits).  A crash in the window leaves modified main bytes
  with a FREE-looking slot, so recovery has nothing to roll back and
  the torn state survives.

In both cases CrashExplorer must find the violation, the minimizer must
shrink it, the minimized scenario must still reproduce on the broken
factory, and the *correct* engine must pass the identical scenario.
"""

from repro.check import CrashExplorer, minimize_failure, replay_scenario, repro_snippet
from repro.tx import kamino_finegrained
from repro.tx.base import IntentKind
from repro.tx.nvtraverse import NVTraverseEngine


def broken_finegrained():
    """Broken on purpose: backup absorbs dirty data pre-commit-record."""
    engine = kamino_finegrained(alpha=0.5, stripes=4)
    commit = engine.commit

    def premature_backup_sync(tx):
        for offset, size, kind in tx.intents:
            if kind is IntentKind.WRITE:
                engine.backup.absorb(offset, size)
        commit(tx)

    engine.commit = premature_backup_sync
    return engine


class DestinationBeforeIntents(NVTraverseEngine):
    """Broken on purpose: destination stores land before the intent
    batch is durable — the exact reordering fence 1 exists to prevent."""

    def commit(self, tx):
        if tx.intents:
            shadows = self._shadows(tx)
            region = self.heap_region
            for offset, size, kind in tx.intents:
                if kind is IntentKind.FREE:
                    continue
                shadow = shadows.get(offset)
                if shadow is not None:
                    # eagerly persisted, one range at a time: a crash
                    # mid-loop leaves a durable torn prefix with no
                    # durable intent record to roll it back
                    region.write(offset, bytes(shadow.buf))
                    region.flush(offset, size)
            region.pool.device.fence()
        super().commit(tx)


def broken_nvtraverse():
    engine = DestinationBeforeIntents()
    engine.name = "nvtraverse"
    return engine


def test_broken_finegrained_is_caught_with_minimized_repro():
    explorer = CrashExplorer("kamino-finegrained", engine_factory=broken_finegrained)
    report = explorer.explore(max_points=None, random_samples=0, nested=False)
    assert not report.ok, "the checker missed a premature backup sync"

    failure = report.failures[0]
    minimized = minimize_failure(failure, engine_factory=broken_finegrained)
    assert minimized.scenario.crash_after <= failure.scenario.crash_after

    # still reproduces on the broken engine...
    assert (
        replay_scenario(minimized.scenario, engine_factory=broken_finegrained)
        is not None
    )
    # ...and the correct engine passes the very same scenario
    assert replay_scenario(minimized.scenario) is None

    snippet = repro_snippet(minimized)
    assert "replay_scenario(Scenario(" in snippet
    assert f"crash_after={minimized.scenario.crash_after}" in snippet
    assert "kamino-finegrained" in snippet


def test_broken_nvtraverse_is_caught_with_minimized_repro():
    explorer = CrashExplorer("nvtraverse", engine_factory=broken_nvtraverse)
    report = explorer.explore(max_points=None, random_samples=0, nested=False)
    assert not report.ok, "the checker missed destination stores before fence 1"

    failure = report.failures[0]
    minimized = minimize_failure(failure, engine_factory=broken_nvtraverse)
    assert minimized.scenario.crash_after <= failure.scenario.crash_after

    assert (
        replay_scenario(minimized.scenario, engine_factory=broken_nvtraverse)
        is not None
    )
    assert replay_scenario(minimized.scenario) is None

    snippet = repro_snippet(minimized)
    assert "nvtraverse" in snippet
