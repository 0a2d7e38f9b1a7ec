"""Engine registry: decorator registration, lookup, capabilities."""

import pytest

from repro.runtime.registry import (
    EngineCapabilities,
    engine_info,
    find_registered,
    make_engine,
    register_engine,
    registered_engines,
    registry_snapshot,
    unregister_engine,
)


class TestBuiltins:
    def test_all_builtin_engines_registered(self):
        assert set(registered_engines()) >= {
            "cow", "kamino-dynamic", "kamino-simple", "nolog", "undo",
        }

    def test_capabilities_reflect_schemes(self):
        engines = registered_engines()
        assert engines["undo"].capabilities.copies_in_critical_path
        assert not engines["kamino-simple"].capabilities.copies_in_critical_path
        assert engines["kamino-simple"].capabilities.has_backup
        assert engines["kamino-simple"].capabilities.locks_released_after_sync
        assert not engines["nolog"].capabilities.recoverable
        assert engines["kamino-dynamic"].capabilities.options == ("alpha",)

    def test_make_engine_builds_each(self):
        for name in registered_engines():
            engine = make_engine(name)
            assert engine.name.startswith(name.split("-")[0])

    def test_make_engine_forwards_kwargs(self):
        engine = make_engine("kamino-dynamic", alpha=0.3)
        assert engine.name == "kamino-dynamic-30"

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("quantum")
        with pytest.raises(ValueError, match="unknown engine"):
            engine_info("quantum")


class TestLookup:
    def test_exact_match(self):
        assert find_registered("undo").name == "undo"

    def test_prefix_match_for_runtime_names(self):
        # kamino_dynamic(alpha=0.3).name == "kamino-dynamic-30"
        info = find_registered("kamino-dynamic-30")
        assert info.name == "kamino-dynamic"

    def test_longest_prefix_wins(self):
        assert find_registered("kamino-simple").name == "kamino-simple"

    def test_unknown_returns_none(self):
        assert find_registered("xyzzy") is None


class TestDecorator:
    def test_register_and_unregister(self):
        @register_engine(
            "test-noop",
            capabilities=EngineCapabilities(description="throwaway", recoverable=False),
        )
        def factory():
            return object()

        try:
            assert "test-noop" in registered_engines()
            assert engine_info("test-noop").capabilities.description == "throwaway"
            make_engine("test-noop")
        finally:
            unregister_engine("test-noop")
        assert "test-noop" not in registered_engines()

    def test_default_capabilities(self):
        @register_engine("test-default")
        def factory():
            return object()

        try:
            caps = engine_info("test-default").capabilities
            assert caps.recoverable
            assert caps.cost_profile == "default"
            assert caps.options == ()
        finally:
            unregister_engine("test-default")


class TestRegistrySnapshot:
    """``registry_snapshot`` heals any mutation — the conftest fixture
    wraps every test in one, so these also document why leaks stopped."""

    def test_unregistered_builtin_is_restored(self):
        with registry_snapshot():
            unregister_engine("undo")
            assert "undo" not in registered_engines()
        assert "undo" in registered_engines()

    def test_throwaway_registration_is_erased(self):
        with registry_snapshot():
            @register_engine("test-leak")
            def factory():
                return object()

            assert "test-leak" in registered_engines()
        assert "test-leak" not in registered_engines()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with registry_snapshot():
                unregister_engine("cow")
                raise RuntimeError("boom")
        assert "cow" in registered_engines()

    def test_conftest_fixture_leak_first_half(self):
        """Deliberately leak a mutation (no explicit snapshot)..."""
        unregister_engine("kamino-simple")
        register_engine("test-fixture-leak")(lambda: object())
        assert "kamino-simple" not in registered_engines()

    def test_conftest_fixture_leak_second_half(self):
        """...and observe the autouse fixture healed it before this test
        (file order is execution order within a module)."""
        assert "kamino-simple" in registered_engines()
        assert "test-fixture-leak" not in registered_engines()


class TestCostModelIntegration:
    def test_cost_profile_drives_scheduler(self):
        from repro.sim.resources import ENGINE_COST_MODELS, cost_model_for

        assert cost_model_for("undo") is ENGINE_COST_MODELS["undo"]
        assert cost_model_for("kamino-simple") is ENGINE_COST_MODELS["kamino"]
        assert cost_model_for("kamino-dynamic-30") is ENGINE_COST_MODELS["kamino"]

    def test_registered_profile_beats_prefix_heuristic(self):
        from repro.sim.resources import ENGINE_COST_MODELS, cost_model_for

        # an engine whose name would prefix-match "undo" but whose
        # registration declares the kamino profile: the registry wins
        @register_engine(
            "undo-free",
            capabilities=EngineCapabilities(cost_profile="kamino"),
        )
        def factory():
            return object()

        try:
            assert cost_model_for("undo-free") is ENGINE_COST_MODELS["kamino"]
        finally:
            unregister_engine("undo-free")
