"""Nemesis fault injection: corpus convergence, determinism, the
unhardened demonstration, and repro tooling."""

import pytest

from repro.faults import (
    CORPUS,
    FaultAction,
    NemesisScenario,
    RetryPolicy,
    client_streams,
    minimize,
    repro_snippet,
    run_corpus,
    run_scenario,
    scenario_by_name,
)
from repro.replication import KAMINO, TRADITIONAL


class TestCorpusConverges:
    """Every scenario × every seed must converge under the hardened
    protocol: replicas byte-identical, acked writes durable at the tail,
    no stuck clients.  Seed count is tunable via --nemesis-seeds."""

    @pytest.mark.parametrize("name", [s.name for s in CORPUS])
    def test_scenario_converges_over_seeds(self, name, nemesis_seeds):
        scenario = scenario_by_name(name)
        for seed in range(nemesis_seeds):
            result = run_scenario(scenario, seed=seed)
            assert result.ok, (
                f"{name} seed={seed} failed:\n  " + "\n  ".join(result.problems)
            )
            assert result.completed_ops == result.total_ops

    def test_traditional_mode_also_converges(self, nemesis_seeds):
        scenario = scenario_by_name("flaky_link")
        for seed in range(nemesis_seeds):
            result = run_scenario(scenario, seed=seed, mode=TRADITIONAL)
            assert result.ok, result.problems


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        scenario = scenario_by_name("chaos_combo")
        a = run_scenario(scenario, seed=3)
        b = run_scenario(scenario, seed=3)
        assert a.problems == b.problems
        assert a.summary() == b.summary()
        assert a.net == b.net
        assert (a.retransmissions, a.timed_out, a.client_retries) == (
            b.retransmissions, b.timed_out, b.client_retries
        )

    def test_different_seeds_differ_somewhere(self):
        scenario = scenario_by_name("flaky_link")
        runs = [run_scenario(scenario, seed=s) for s in range(4)]
        nets = {(r.net.sent, r.net.dropped_fault, r.retransmissions)
                for r in runs}
        assert len(nets) > 1  # the seed actually steers the faults

    def test_client_streams_deterministic(self):
        scenario = scenario_by_name("flaky_link")
        assert client_streams(scenario, 5) == client_streams(scenario, 5)
        assert client_streams(scenario, 5) != client_streams(scenario, 6)


class TestUnhardenedFails:
    """The demonstration with teeth: retries disabled, the same scenario
    that converges when hardened must strand clients."""

    def test_flaky_link_strands_unhardened_clients(self):
        scenario = scenario_by_name("flaky_link")
        hardened = run_scenario(scenario, seed=0)
        assert hardened.ok
        bare = run_scenario(scenario, seed=0, retry=RetryPolicy.disabled())
        assert not bare.ok
        assert any("stuck" in p for p in bare.problems)

    def test_minimize_produces_smaller_failing_repro(self):
        scenario = scenario_by_name("flaky_link")
        small = minimize(scenario, seed=0, retry=RetryPolicy.disabled())
        assert small.n_clients <= scenario.n_clients
        assert small.ops_per_client <= scenario.ops_per_client
        assert len(small.actions) <= len(scenario.actions)
        # the minimized scenario still fails — it is a real repro
        replay = run_scenario(small, seed=0, retry=RetryPolicy.disabled())
        assert not replay.ok

    def test_repro_snippet_is_executable(self):
        scenario = scenario_by_name("flaky_link")
        small = minimize(scenario, seed=0, retry=RetryPolicy.disabled())
        snippet = repro_snippet(small, seed=0, hardened=False)
        assert "run_scenario" in snippet
        ns = {}
        exec(compile(snippet, "<repro>", "exec"), ns)  # replays the failure
        assert not ns["result"].ok


class TestScenarioFormat:
    def test_action_dict_roundtrip(self):
        action = FaultAction(1000.0, "flaky_link",
                             {"src": 0, "dst": 1, "drop_p": 0.3})
        assert FaultAction.from_dict(action.to_dict()) == action

    def test_scenario_dict_roundtrip(self):
        for scenario in CORPUS:
            assert NemesisScenario.from_dict(scenario.to_dict()) == scenario

    def test_unknown_scenario_name_returns_none(self):
        assert scenario_by_name("no_such_scenario") is None

    def test_describe_mentions_every_action(self):
        scenario = scenario_by_name("partition_and_heal")
        text = scenario.describe()
        for action in scenario.actions:
            assert action.verb in text


class TestRunCorpus:
    def test_quick_keeps_given_scenarios_and_caps_seeds(self):
        results = run_corpus(
            [scenario_by_name("flaky_link"), scenario_by_name("crash_and_replace")],
            seeds=5,
            mode=KAMINO,
            quick=True,
        )
        assert [(r.scenario, r.seed) for r in results] == [
            ("flaky_link", 0), ("flaky_link", 1),
            ("crash_and_replace", 0), ("crash_and_replace", 1),
        ]
        assert all(r.ok for r in results), [r.problems for r in results]
