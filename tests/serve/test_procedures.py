"""Durable procedures: frame log, resume, compaction, exactly-once."""

import pytest

from repro.errors import (
    DeviceCrashedError,
    ProcedureError,
    ProcedureResumed,
)
from repro.nvm import NVMDevice
from repro.replication import KAMINO, ChainCluster
from repro.serve import ClusterGateway, ProcedureEngine, ProcedureStore
from repro.serve.procedures import DEVICE_BYTES, _as_int, _encode_int


def build(durable=True, device=None, log_bytes=None):
    cluster = ChainCluster(f=1, mode=KAMINO, heap_mb=2, value_size=64)
    gateway = ClusterGateway(cluster)
    kw = {} if log_bytes is None else {"log_bytes": log_bytes}
    store = ProcedureStore(
        device if device is not None else NVMDevice(DEVICE_BYTES, seed=0),
        **kw,
    )
    engine = ProcedureEngine(gateway, store, durable=durable)
    return gateway, store, engine


def seed(gateway, key, value):
    gateway.call_write("put", (key, _encode_int(value)), (key,),
                       "setup", key)


def read_int(gateway, key):
    return _as_int(gateway.call_read("get", (key,)))


class TestHappyPath:
    def test_incr_runs_and_stores_its_result(self):
        gateway, store, engine = build()
        seed(gateway, 10, 100)
        assert engine.run("incr", [10, 5], pid="q0") == 105
        assert read_int(gateway, 10) == 105
        assert store.done["q0"] == 105

    def test_transfer_moves_exactly_the_amount(self):
        gateway, _store, engine = build()
        seed(gateway, 20, 100)
        seed(gateway, 21, 100)
        result = engine.run("transfer", [20, 21, 30], pid="t0")
        assert result == {"src": 70, "dst": 130}
        assert (read_int(gateway, 20), read_int(gateway, 21)) == (70, 130)

    def test_completed_pid_replays_without_reexecution(self):
        gateway, _store, engine = build()
        seed(gateway, 10, 100)
        engine.run("incr", [10, 5], pid="q0")
        with pytest.raises(ProcedureResumed) as exc:
            engine.run("incr", [10, 5], pid="q0")
        assert exc.value.result == 105
        assert read_int(gateway, 10) == 105  # not 110
        assert engine.resumed_replies == 1

    def test_unknown_procedure_is_a_typed_error(self):
        _gateway, _store, engine = build()
        with pytest.raises(ProcedureError):
            engine.run("frobnicate", [])

    def test_auto_pids_stay_clear_of_the_log_after_reopen(self):
        gateway, store, engine = build()
        seed(gateway, 10, 100)
        pid = None
        for _ in range(3):
            pid = f"p{engine._next_pid}"
            engine.run("incr", [10, 1])
        reopened = ProcedureStore.open(store.device)
        engine2 = ProcedureEngine(ClusterGateway(gateway.cluster), reopened)
        assert int(pid[1:]) < engine2._next_pid


def _store_ops_for(durable, name, args, setup):
    """Crash-point ruler for one full run: (total store-device ops,
    ops completed when the ``done`` append starts).  Scheduling the
    second number as the fail-point crashes the first op of the done
    record — every effect committed, completion not yet durable."""
    gateway, store, engine = build(durable=durable)
    for key, value in setup:
        seed(gateway, key, value)
    budget = 1_000_000
    marks = {}
    orig_finish = store.finish

    def finish(pid, result):
        marks["before_done"] = budget - store.device.scheduled_crash_remaining()
        return orig_finish(pid, result)

    store.finish = finish
    store.device.schedule_crash(budget)
    engine.run(name, list(args), pid="x0")
    remaining = store.device.scheduled_crash_remaining()
    store.device.cancel_scheduled_crash()
    return budget - remaining, marks["before_done"]


def _crash_at(durable, crash_after, name, args, setup):
    """Run one procedure with the store device failing after
    ``crash_after`` ops, recover, resume; returns (gateway, engine)."""
    device = NVMDevice(DEVICE_BYTES, seed=0)
    gateway, store, engine = build(durable=durable, device=device)
    for key, value in setup:
        seed(gateway, key, value)
    store.device.schedule_crash(crash_after)
    with pytest.raises(DeviceCrashedError):
        engine.run(name, list(args), pid="x0")
    store.crash_and_recover()
    engine2 = ProcedureEngine(gateway, store, durable=durable)
    engine2.resume_all()
    return gateway, engine2


class TestCrashRecovery:
    SETUP = [(20, 100), (21, 100)]

    def test_durable_resume_skips_persisted_frames(self):
        _total, before_done = _store_ops_for(
            True, "transfer", (20, 21, 30), self.SETUP
        )
        # crash the first op of the done append: every frame persisted,
        # completion not durable — resume must re-execute nothing
        gateway, engine = _crash_at(
            True, before_done, "transfer", (20, 21, 30), self.SETUP
        )
        assert engine.skipped_steps == 4
        assert engine.replayed_steps == 0
        assert engine.result("x0") == {"src": 70, "dst": 130}
        assert (read_int(gateway, 20), read_int(gateway, 21)) == (70, 130)

    def test_durable_midpoint_crash_is_exactly_once(self):
        total, _ = _store_ops_for(True, "transfer", (20, 21, 30), self.SETUP)
        for point in (0, total // 3, total // 2, 2 * total // 3):
            gateway, engine = _crash_at(
                True, point, "transfer", (20, 21, 30), self.SETUP
            )
            result = engine.result("x0")
            if result is None:
                # the begin record itself tore: atomically never started
                assert (read_int(gateway, 20), read_int(gateway, 21)) \
                    == (100, 100)
            else:
                assert result == {"src": 70, "dst": 130}
                assert (read_int(gateway, 20), read_int(gateway, 21)) \
                    == (70, 130)

    def test_volatile_crash_double_applies(self):
        # the demonstration with teeth, unit-sized: with the frames in
        # volatile memory the crash rewinds to step 0 under a fresh
        # identity, and the debit/credit land a second time
        _total, before_done = _store_ops_for(
            False, "transfer", (20, 21, 30), self.SETUP
        )
        gateway, engine = _crash_at(
            False, before_done, "transfer", (20, 21, 30), self.SETUP
        )
        src, dst = read_int(gateway, 20), read_int(gateway, 21)
        assert (src, dst) != (70, 130)
        assert src < 70  # the debit landed at least twice

    def test_resume_survives_a_nested_crash(self):
        total, _ = _store_ops_for(True, "transfer", (20, 21, 30), self.SETUP)
        device = NVMDevice(DEVICE_BYTES, seed=0)
        gateway, store, engine = build(durable=True, device=device)
        for key, value in self.SETUP:
            seed(gateway, key, value)
        store.device.schedule_crash(total // 2)
        with pytest.raises(DeviceCrashedError):
            engine.run("transfer", [20, 21, 30], pid="x0")
        store.crash_and_recover()
        store.device.schedule_crash(3)  # crash again, mid-resume
        engine2 = ProcedureEngine(gateway, store, durable=True)
        try:
            engine2.resume_all()
        except DeviceCrashedError:
            store.crash_and_recover()
            engine2 = ProcedureEngine(gateway, store, durable=True)
            engine2.resume_all()
        assert engine2.result("x0") == {"src": 70, "dst": 130}
        assert (read_int(gateway, 20), read_int(gateway, 21)) == (70, 130)


class TestCompaction:
    def test_log_compacts_and_reopens(self):
        gateway, store, engine = build(log_bytes=4096 + 2048)
        seed(gateway, 10, 0)
        for i in range(64):
            engine.run("incr", [10, 1], pid=f"c{i}")
        assert store.compactions >= 1
        assert read_int(gateway, 10) == 64
        reopened = ProcedureStore.open(store.device)
        # the replay window survives compaction: recent results replay
        assert reopened.done[f"c63"] == 64
        assert not reopened.pending

    def test_pending_stack_survives_compaction(self):
        gateway, store, engine = build(log_bytes=4096 + 2048)
        seed(gateway, 10, 0)
        seed(gateway, 20, 100)
        seed(gateway, 21, 100)
        # park a mid-flight transfer in the log, then force compactions
        store.begin("hang0", "transfer", [20, 21, 30])
        store.push_frame("hang0", 0, 100)
        for i in range(64):
            engine.run("incr", [10, 1], pid=f"c{i}")
        assert store.compactions >= 1
        reopened = ProcedureStore.open(store.device)
        assert reopened.pending["hang0"]["frames"] == [100]
