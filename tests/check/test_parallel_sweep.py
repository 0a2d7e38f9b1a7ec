"""Worker-count invariance: fanning a sweep out must not change verdicts.

Every explorer's parallel path builds the full deterministic scenario
list first, fans replays over an ordered process pool, and folds the
results in scenario order — so ``workers=0`` (serial, same code path)
and ``workers=2`` must produce identical reports: same counts, same
pruning, same failures in the same order.  These tests pin that.
"""

import pytest

from repro.check import CrashExplorer
from repro.check.chain import ChainCrashExplorer, MigrationCrashExplorer, explore_nemesis
from repro.parallel import cpu_count, fan_out, fan_out_iter, resolve_workers


class TestParallelHelpers:
    def test_cpu_count_positive(self):
        assert cpu_count() >= 1

    def test_resolve_workers(self):
        assert resolve_workers(0) == 0  # serial
        assert resolve_workers(1) == 1
        assert resolve_workers(None) == cpu_count()
        assert resolve_workers(-1) == cpu_count()
        assert resolve_workers(3) == 3

    def test_fan_out_preserves_job_order(self):
        jobs = list(range(20))
        assert fan_out(_square, jobs, workers=2) == [j * j for j in jobs]
        assert fan_out(_square, jobs, workers=1) == [j * j for j in jobs]

    def test_fan_out_empty(self):
        assert fan_out(_square, [], workers=4) == []

    def test_fan_out_iter_yields_in_order_as_it_goes(self):
        done = []

        def job(j):  # a closure: serial path only
            done.append(j)
            return j * j

        results = fan_out_iter(job, range(5), workers=0)
        assert next(results) == 0 and done == [0]
        assert list(results) == [1, 4, 9, 16]
        pooled = fan_out_iter(_square, range(20), workers=2)
        assert next(pooled) == 0
        assert list(pooled) == [j * j for j in range(1, 20)]


def _square(job):
    return job * job


def _report_key(report):
    return (
        report.states_explored,
        getattr(report, "states_pruned", 0),
        getattr(report, "nested_explored", 0),
        [str(f) for f in report.failures],
    )


class TestEngineSweepInvariance:
    def test_serial_and_parallel_reports_identical(self):
        kwargs = dict(max_points=6, random_samples=1, max_nested_points=2)
        serial = CrashExplorer("undo").explore(workers=0, **kwargs)
        fanned = CrashExplorer("undo").explore(workers=2, **kwargs)
        assert _report_key(serial) == _report_key(fanned)
        assert serial.summary() == fanned.summary()

    def test_broken_engine_failures_survive_the_pool(self):
        kwargs = dict(max_points=None, nested=False, random_samples=1)
        serial = CrashExplorer("nolog").explore(workers=0, **kwargs)
        fanned = CrashExplorer("nolog").explore(workers=2, **kwargs)
        assert not serial.ok and not fanned.ok
        assert [str(f) for f in serial.failures] == [str(f) for f in fanned.failures]

    def test_unportable_explorer_falls_back_to_serial(self):
        """A closure-built workload can't cross a process boundary; the
        explorer must detect that and sweep in-process instead."""
        from repro.check.workload import PairsWorkload

        explorer = CrashExplorer("undo", workload_factory=lambda: PairsWorkload())
        assert not explorer._portable
        report = explorer.explore(workers=2, max_points=4, nested=False)
        assert report.ok


class TestChainSweepInvariance:
    @pytest.mark.parametrize("mode", ["kamino", "traditional"])
    def test_serial_and_parallel_reports_identical(self, mode):
        kwargs = dict(max_points=2, max_device_points=2)
        serial = ChainCrashExplorer(mode=mode).explore(workers=0, **kwargs)
        fanned = ChainCrashExplorer(mode=mode).explore(workers=2, **kwargs)
        assert serial.states_explored == fanned.states_explored
        assert [str(f) for f in serial.failures] == [str(f) for f in fanned.failures]


class TestMigrationSweepInvariance:
    def test_serial_and_parallel_reports_identical(self):
        serial = MigrationCrashExplorer().explore(
            max_points=2, reboots=False, workers=0
        )
        fanned = MigrationCrashExplorer().explore(
            max_points=2, reboots=False, workers=2
        )
        assert serial.states_explored == fanned.states_explored
        assert [str(f) for f in serial.failures] == [str(f) for f in fanned.failures]


class TestNemesisInvariance:
    def test_serial_and_parallel_verdicts_identical(self):
        from repro.faults import CORPUS

        scenarios = [s for s in CORPUS if s.name in ("flaky_link", "head_failover")]
        serial = explore_nemesis(scenarios=scenarios, seeds=2, workers=0)
        fanned = explore_nemesis(scenarios=scenarios, seeds=2, workers=2)
        assert serial.states_explored == fanned.states_explored == 4
        assert [str(f) for f in serial.failures] == [str(f) for f in fanned.failures]
