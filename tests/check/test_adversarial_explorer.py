"""CrashExplorer adversarial mode: consistent stale-CRC replays on top
of bit rot.  Tree-protected sweeps stay clean (including nested recovery
crashes); checksum-only sweeps fail with a minimized, replayable repro —
the demonstration that per-line checksums cannot close this class."""

import pytest

from repro.check import CrashExplorer
from repro.check.minimize import minimize_failure, repro_snippet


class TestTreeProtectedSweep:
    def test_tree_sweep_stays_clean(self):
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(
            max_points=6, media="protected", corrupt_lines=1,
            tree=True, stale_lines=2,
        )
        assert report.ok, "\n".join(str(f) for f in report.failures)

    @pytest.mark.media
    def test_tree_sweep_with_nested_recovery_crashes(self):
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(
            max_points=6, media="protected", corrupt_lines=1,
            tree=True, stale_lines=2,
            nested=True, max_nested_points=2, random_samples=1,
        )
        assert report.ok, "\n".join(str(f) for f in report.failures)

    def test_stale_knob_inert_without_media(self):
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(max_points=4, media="off", stale_lines=5)
        assert report.ok
        assert all(s == 0 for s in [f.scenario.stale_lines
                                    for f in report.failures] or [0])


class TestChecksumOnlySweepFails:
    def _failing_report(self):
        explorer = CrashExplorer("kamino-simple")
        return explorer.explore(
            max_points=6, media="protected", corrupt_lines=0,
            tree=False, stale_lines=2, nested=False, random_samples=0,
        )

    def test_checksum_only_misses_stale_replays(self):
        report = self._failing_report()
        assert not report.ok, (
            "per-line checksums unexpectedly caught a consistent replay"
        )

    def test_minimize_keeps_the_stale_knob(self):
        report = self._failing_report()
        small = minimize_failure(report.failures[0])
        assert small.scenario.media == "protected"
        assert 1 <= small.scenario.stale_lines <= 2
        assert small.scenario.corrupt_lines == 0

    def test_snippet_replays_the_stale_failure(self):
        report = self._failing_report()
        small = minimize_failure(report.failures[0])
        snippet = repro_snippet(small)
        assert "stale_lines=" in snippet
        explorer = CrashExplorer(small.scenario.engine)
        refailure, _fp = explorer.replay(small.scenario)
        assert refailure is not None

    def test_replay_is_deterministic(self):
        report = self._failing_report()
        scenario = report.failures[0].scenario
        explorer = CrashExplorer(scenario.engine)
        a, _ = explorer.replay(scenario)
        b, _ = explorer.replay(scenario)
        assert a is not None and b is not None
        assert a.violation.kind == b.violation.kind


@pytest.mark.media
class TestMirrorEngines:
    """kamino engines repair replayed main lines from the backup mirror
    (tree-verified donor); a consistent pair replay degrades typed."""

    @pytest.mark.parametrize("engine", ["kamino-dynamic", "cow", "undo"])
    def test_registry_engines_pass_adversarial_sweep(self, engine):
        explorer = CrashExplorer(engine)
        report = explorer.explore(
            max_points=4, media="protected", corrupt_lines=1,
            tree=True, stale_lines=2, nested=False,
        )
        assert report.ok, "\n".join(str(f) for f in report.failures)
