"""CrashExplorer unit tests: counting, sampling, replay, registry sweep."""

import pytest

from repro.check import CrashExplorer, PairsWorkload, Scenario, replay_scenario, sweep_registry
from repro.nvm import CrashPolicy
from repro.parallel import sample_points
from repro.runtime.registry import registered_engines


class TestSamplePoints:
    def test_exhaustive_when_under_limit(self):
        assert sample_points(0, 4, None) == [0, 1, 2, 3, 4]
        assert sample_points(0, 4, 10) == [0, 1, 2, 3, 4]

    def test_sample_hits_both_ends(self):
        points = sample_points(0, 99, 5)
        assert points[0] == 0 and points[-1] == 99
        assert len(points) == 5

    def test_degenerate_ranges(self):
        assert sample_points(3, 2, None) == []
        assert sample_points(0, 50, 1) == [0]
        assert sample_points(7, 7, None) == [7]


class TestCounting:
    def test_count_ops_excludes_setup_and_is_deterministic(self):
        explorer = CrashExplorer("undo")
        n = explorer.count_ops()
        assert 0 < n < 10_000
        assert explorer.count_ops() == n

    def test_golden_ledger_records_every_step(self):
        explorer = CrashExplorer("undo")
        ledger = explorer.golden_ledger()
        workload = PairsWorkload()
        assert ledger.n_steps == workload.n_steps
        # S_0 is the setup state: object i holds key i
        assert ledger.states[0] == {i: i for i in range(workload.n_objects)}
        # the final state reflects the whole default script
        assert ledger.states[-1] == {0: 31, 1: 41, 2: 32, 3: 33}


class TestReplay:
    def test_point_beyond_workload_checks_nothing(self):
        explorer = CrashExplorer("undo")
        failure, fingerprint = explorer.replay(
            Scenario(engine="undo", crash_after=10**6)
        )
        assert failure is None and fingerprint is None

    def test_good_engine_point_passes(self):
        failure = replay_scenario(
            Scenario(engine="undo", crash_after=5, policy=CrashPolicy.DROP_ALL)
        )
        assert failure is None

    def test_from_scratch_replays_have_equal_digests(self):
        """Two replays of one base point write the same bytes — txids
        are per engine, not per process — so they digest alike, which
        is what lets the sweep prune and its slices agree."""
        scenario = Scenario(engine="kamino-simple", workload="pairs", crash_after=5)
        digests = {CrashExplorer("kamino-simple").replay(scenario)[1] for _ in range(2)}
        assert len(digests) == 1 and None not in digests and "" not in digests

    def test_custom_transaction_script(self):
        failure = replay_scenario(
            Scenario(engine="cow", crash_after=3),
            workload_factory=lambda: PairsWorkload(txs=[[(0, 5)], [(1, 6)]]),
        )
        assert failure is None


class TestExplore:
    def test_every_point_explored_or_pruned(self):
        report = CrashExplorer("undo").explore(
            max_points=None, random_samples=0, nested=False
        )
        assert report.ok
        assert report.states_explored + report.states_pruned == report.n_ops

    def test_random_samples_add_states(self):
        base = CrashExplorer("undo").explore(
            max_points=6, random_samples=0, nested=False
        )
        sampled = CrashExplorer("undo").explore(
            max_points=6, random_samples=2, nested=False
        )
        assert sampled.states_explored > base.states_explored

    def test_progress_keeps_pace_with_the_sweep(self):
        """``progress`` reports each base point as its replay completes,
        not in one burst after the whole batch has been replayed."""
        explorer = CrashExplorer("undo")
        log = []
        real = explorer.replay

        def replay(scenario, *args, **kwargs):
            log.append("replay")
            return real(scenario, *args, **kwargs)

        explorer.replay = replay
        explorer.explore(
            max_points=4,
            random_samples=0,
            nested=False,
            progress=lambda line: log.append("progress"),
        )
        assert log.count("replay") == log.count("progress") == 4
        last_replay = len(log) - 1 - log[::-1].index("replay")
        assert log.index("progress") < last_replay, log

    def test_summary_mentions_engine_and_counts(self):
        report = CrashExplorer("undo").explore(
            max_points=2, random_samples=0, nested=False
        )
        text = report.summary()
        assert "undo" in text and "explored=" in text and "ok" in text


class TestSweepRegistry:
    def test_skips_unsafe_and_chain_engines(self):
        reports = sweep_registry(
            workloads=("pairs",), max_points=2, random_samples=0, nested=False
        )
        swept = {r.engine for r in reports}
        assert swept >= {"undo", "cow", "kamino-simple", "kamino-dynamic"}
        assert "nolog" not in swept
        assert "intent-only" not in swept
        assert all(r.ok for r in reports)

    def test_engine_filter(self):
        reports = sweep_registry(
            workloads=("pairs",),
            engines=("undo",),
            max_points=2,
            random_samples=0,
            nested=False,
        )
        assert [r.engine for r in reports] == ["undo"]


@pytest.mark.parametrize(
    "workload", ["kv", "list", "ring"]
)
def test_other_canned_workloads_sweep_clean(workload):
    """Beyond pairs: tree, linked-list, and ring workloads under a
    sampled sweep with their structure validators active."""
    report = CrashExplorer("undo", workload=workload).explore(
        max_points=10, random_samples=1, nested=False
    )
    assert report.ok, "\n".join(str(f) for f in report.failures)
    assert report.states_explored > 0


def test_registry_declares_chain_engine():
    info = registered_engines()["intent-only"]
    assert info.capabilities.needs_chain_repair
    assert not info.capabilities.recoverable
