"""CrashExplorer media-corruption mode: protected recoveries stay clean,
unprotected ones corrupt silently, and minimization keeps the rot."""

import re
from dataclasses import replace

import pytest

from repro.check import CrashExplorer, Scenario
from repro.check.minimize import minimize_failure, repro_snippet


class TestProtectedSweep:
    def test_protected_sweep_stays_clean(self):
        """With the sidecar on, every crash point either repairs the
        injected rot or degrades typed — the oracle accepts both."""
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(max_points=6, media="protected",
                                  corrupt_lines=2)
        assert report.ok, "\n".join(str(f) for f in report.failures)

    @pytest.mark.media
    def test_protected_sweep_with_nesting(self):
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(
            max_points=8, media="protected", corrupt_lines=2,
            nested=True, max_nested_points=2, random_samples=1,
        )
        assert report.ok, "\n".join(str(f) for f in report.failures)


class TestUnprotectedSweep:
    def test_unprotected_sweep_finds_silent_corruption(self):
        """Same engine, same crash points, sidecar off: the rot lands in
        committed state and the validators catch the divergence."""
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(max_points=12, media="unprotected",
                                  corrupt_lines=2)
        assert not report.ok, "unprotected rot went unnoticed everywhere"
        kinds = {f.violation.kind for f in report.failures}
        assert kinds & {"backup", "validator", "recovery", "state"}

    def test_unprotected_rot_reaches_the_dynamic_slots(self):
        """The partial backup's slots are rot targets too: with the
        sidecar off, a rotted slot survives recovery and the backup
        oracle sees the copy diverge from main."""
        explorer = CrashExplorer("kamino-dynamic")
        report = explorer.explore(max_points=12, media="unprotected",
                                  corrupt_lines=2)
        assert not report.ok, "unprotected rot went unnoticed everywhere"
        assert "backup" in {f.violation.kind for f in report.failures}

    def test_media_off_scenario_ignores_corruption_knobs(self):
        """``corrupt_lines`` without a media mode is inert: the sweep is
        the plain crash sweep and injection never runs."""
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(max_points=6, media="off", corrupt_lines=5)
        assert report.ok

    def test_off_scenario_replay_matches_plain_scenario(self):
        plain = Scenario(engine="kamino-simple", crash_after=3)
        knobbed = replace(plain, media="off", corrupt_lines=4, corrupt_seed=7)
        explorer = CrashExplorer("kamino-simple")
        a, fp_a = explorer.replay(plain)
        b, fp_b = explorer.replay(knobbed)
        assert a is None and b is None
        assert fp_a is not None and fp_b is not None


class TestMinimization:
    def _one_failure(self):
        explorer = CrashExplorer("kamino-simple")
        report = explorer.explore(max_points=12, media="unprotected",
                                  corrupt_lines=3)
        assert report.failures
        return report.failures[0]

    def test_minimize_keeps_media_and_shrinks_lines(self):
        failure = self._one_failure()
        small = minimize_failure(failure)
        assert small.scenario.media == "unprotected"  # rot is load-bearing
        assert 1 <= small.scenario.corrupt_lines <= failure.scenario.corrupt_lines

    def test_snippet_replays_the_media_failure(self):
        failure = self._one_failure()
        small = minimize_failure(failure)
        snippet = repro_snippet(small)
        assert "media=" in snippet and "corrupt_lines=" in snippet
        # the snippet's scenario really does fail on replay
        explorer = CrashExplorer(small.scenario.engine)
        refailure, _fp = explorer.replay(small.scenario)
        assert refailure is not None

    def test_replay_is_deterministic(self):
        failure = self._one_failure()
        explorer = CrashExplorer(failure.scenario.engine)
        a, _ = explorer.replay(failure.scenario)
        b, _ = explorer.replay(failure.scenario)
        assert a is not None and b is not None
        assert a.violation.kind == b.violation.kind


#: engines without a full backup mirror: a checksum-condemned heap line
#: has no local repair source, so the scrubber must take it out of
#: service (reads raise BothCopiesLostError) instead of only reporting it.
#: The partial-backup engines' slots are rotted too, so their legs also
#: hold recovery to never rolling main back from a bad slot.
UNMIRRORED = [(e, w) for e in ("undo", "cow") for w in ("pairs", "kv")] + [
    (e, w) for e in ("kamino-dynamic", "kamino-finegrained") for w in ("pairs", "kv", "list")
]


@pytest.mark.parametrize(
    "engine, workload", UNMIRRORED, ids=[f"{e}-{w}" for e, w in UNMIRRORED]
)
def test_protected_rot_is_never_served_without_a_mirror(engine, workload):
    report = CrashExplorer(engine, workload=workload).explore(
        max_points=24, media="protected", corrupt_lines=4
    )
    assert report.ok, "\n".join(str(f) for f in report.failures[:5])


@pytest.mark.parametrize("workload", ["pairs", "kv"])
def test_protected_rot_is_repaired_from_the_mirror(workload):
    """A roll-forward that rewrites one word of a rotted mirror line must
    leave the line detectable, so the scrubber repairs it from main."""
    report = CrashExplorer("kamino-simple", workload=workload).explore(
        max_points=24, media="protected", corrupt_lines=4
    )
    assert report.ok, "\n".join(str(f) for f in report.failures[:5])


#: sweep legs whose reads of rotted bytes used to raise out of explore()
#: (an allocator header sized from rot, a validator decoding garbage)
ESCAPING_LEGS = [
    ("undo", "list", dict(media="protected", tree=True, stale_lines=2)),
    ("undo", "pairs", dict(media="protected", corrupt_lines=4)),
    ("cow", "pairs", dict(media="protected", corrupt_lines=4)),
    ("kamino-dynamic", "pairs", dict(media="protected", corrupt_lines=4)),
    ("kamino-simple", "list", dict(media="unprotected", corrupt_lines=2)),
    ("undo", "list", dict(media="unprotected", corrupt_lines=2)),
]

_NAMES_ITS_TYPE = re.compile(r"(raised|unreadable:) [A-Z]\w*: ")


@pytest.mark.parametrize(
    "engine, workload, media", ESCAPING_LEGS,
    ids=[f"{e}-{w}-{m['media']}" for e, w, m in ESCAPING_LEGS],
)
def test_rotted_bytes_are_findings_not_checker_crashes(engine, workload, media):
    """Whatever a read of rotted bytes raises, the sweep returns a
    report, and a failure that came from an exception names its type."""
    report = CrashExplorer(engine, workload=workload).explore(max_points=24, **media)
    assert report.states_explored > 0
    for failure in report.failures:
        violation = failure.violation
        if violation.kind == "recovery" or "raised" in violation.message:
            assert _NAMES_ITS_TYPE.search(violation.message), str(failure)
