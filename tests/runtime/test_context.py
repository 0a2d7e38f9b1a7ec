"""ExecutionContext: construction, per-op records, reset/snapshot."""

import pytest

from repro.nvm.latency import DRAM, NVDIMM
from repro.runtime import ExecutionContext, SharedResources
from repro.sim.resources import FIFOServer


class TestConstruction:
    def test_create_builds_full_stack(self):
        ctx = ExecutionContext.create("kamino-simple", value_size=256, heap_mb=4)
        assert ctx.device is not None
        assert ctx.heap is not None
        assert ctx.kv is not None
        assert ctx.engine_name == "kamino-simple"
        assert ctx.engine.name == "kamino-simple"

    def test_create_forwards_engine_kwargs(self):
        ctx = ExecutionContext.create(
            "kamino-dynamic", value_size=256, heap_mb=4, alpha=0.25
        )
        assert ctx.engine.name == "kamino-dynamic-25"

    def test_create_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionContext.create("quantum")

    def test_create_with_coalescing(self):
        ctx = ExecutionContext.create(
            "undo", value_size=256, heap_mb=4, coalesce_flushes=True
        )
        assert ctx.device.coalesce_flushes

    def test_bare_context_for_replication(self):
        ctx = ExecutionContext(model=DRAM)
        assert ctx.device is None
        assert ctx.stats is None
        assert ctx.resources.model is DRAM
        with pytest.raises(ValueError):
            ctx.run_tx("op", lambda: None)

    def test_events_share_the_clock(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        ctx.clock.advance(100.0)
        assert ctx.events.now == 100.0
        ctx.events.schedule(50.0, lambda: None)
        ctx.events.run()
        assert ctx.clock.now == 150.0

    def test_shared_resources_across_contexts(self):
        shared = SharedResources(NVDIMM)
        a = ExecutionContext.create(
            "undo", value_size=256, heap_mb=4, resources=shared
        )
        b = ExecutionContext.create(
            "kamino-simple", value_size=256, heap_mb=4, resources=shared
        )
        assert a.resources is b.resources


class TestInlineCharging:
    def _ctx(self, **kw):
        return ExecutionContext.create("kamino-simple", value_size=256, heap_mb=4, **kw)

    def test_charges_accumulate(self):
        ctx = self._ctx()
        r1 = ctx.run_tx("put", lambda: ctx.kv.put(1, b"a" * 32))
        r2 = ctx.run_tx("put", lambda: ctx.kv.put(2, b"b" * 32))
        assert ctx.records == [r1, r2]

    def test_run_tx_never_moves_the_clock(self):
        # virtual time belongs to the scheduler (run_online); run_tx only
        # prices the operation and records it
        ctx = self._ctx()
        rec = ctx.run_tx("put", lambda: ctx.kv.put(1, b"x" * 32))
        ctx.run_tx("put", lambda: ctx.kv.put(2, b"y" * 32))
        assert rec.crit_ns > 0
        assert ctx.clock.now == 0.0
        assert len(ctx.records) == 2

    def test_record_captures_footprint(self):
        ctx = self._ctx()
        rec = ctx.run_tx("put", lambda: ctx.kv.put(1, b"x" * 32))
        assert rec.kind == "put"
        assert rec.n_intents > 0
        assert rec.write_set
        assert rec.async_ns > 0  # kamino's deferred backup sync


class TestResetSnapshotContract:
    def test_reset_zeroes_every_surface(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        ctx.run_tx("put", lambda: ctx.kv.put(1, b"x" * 32))
        ctx.resources.bandwidth.transfer(0.0, 1000)
        ctx.clock.advance(5.0)
        assert ctx.clock.now > 0
        ctx.reset()
        snap = ctx.snapshot()
        assert snap.clock.now == 0.0
        assert snap.stats.stores == 0
        assert all(s.requests == 0 and s.busy_ns == 0.0 for s in snap.servers.values())
        assert ctx.records == []

    def test_reset_preserves_durable_state(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        ctx.run_tx("put", lambda: ctx.kv.put(7, b"keep" + b"\0" * 28))
        ctx.reset()
        assert ctx.kv.get(7)[:4] == b"keep"

    def test_snapshot_names_all_servers(self):
        ctx = ExecutionContext(model=NVDIMM)
        extra = ctx.resources.register(FIFOServer("replica-r0"))
        extra.request(0.0, 10.0)
        snap = ctx.snapshot()
        assert set(snap.servers) == {"nvm-bandwidth", "log-mgmt", "replica-r0"}
        assert snap.servers["replica-r0"].busy_ns == 10.0

    def test_snapshot_is_frozen_in_time(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        before = ctx.snapshot()
        ctx.run_tx("put", lambda: ctx.kv.put(1, b"x" * 32))
        ctx.clock.advance(7.0)
        after = ctx.snapshot()
        assert before.clock.now == 0.0
        assert before.stats.stores < after.stats.stores
        assert after.clock.delta(before.clock) == after.clock.now == 7.0


class TestUniformContract:
    """Every accounting object answers reset() and snapshot()."""

    def test_nvmstats(self):
        from repro.nvm.stats import NVMStats

        s = NVMStats()
        s.stores, s.flush_bursts = 5, 2
        snap = s.snapshot()
        assert (snap.stores, snap.flush_bursts) == (5, 2)
        s.reset()
        assert s.stores == 0 and s.flush_bursts == 0

    def test_fifo_server(self):
        server = FIFOServer("s")
        server.request(0.0, 25.0)
        snap = server.snapshot()
        assert snap.busy_ns == 25.0 and snap.requests == 1
        server.reset()
        assert server.snapshot().requests == 0

    def test_sim_clock(self):
        from repro.runtime import SimClock

        clock = SimClock()
        clock.advance(9.0)
        assert clock.snapshot().now == 9.0
        clock.reset()
        assert clock.snapshot().now == 0.0
