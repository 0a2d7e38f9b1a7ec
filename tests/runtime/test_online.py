"""Online multi-client simulation: the one scheduler input.

With several clients the run must show real contention effects, charge
the context's shared servers, and price each engine from the engine the
context holds, never from its name.
"""

import pytest

from repro.bench.runners import run_ycsb_online
from repro.replication.node import ReplicaNode
from repro.runtime import ExecutionContext, run_online
from repro.runtime.online import VirtualClients
from repro.runtime.registry import make_engine, registered_engines
from repro.sim.resources import LockCost
from repro.tx import StripedLockTable, kamino_dynamic

from ..conftest import spy_lock_sets


def _put_stream(ctx, n):
    return list(range(n)), lambda i: ctx.kv.put(i % 50, bytes([i % 255 + 1]) * 32)


class TestMultiClient:
    def test_more_clients_more_throughput(self):
        r1 = run_ycsb_online("kamino-simple", "B", 1, nrecords=150, nops=400, value_size=256)
        r4 = run_ycsb_online("kamino-simple", "B", 4, nrecords=150, nops=400, value_size=256)
        assert r4.ops == r1.ops == 400
        assert r4.throughput_kops > 1.5 * r1.throughput_kops

    def test_nthreads_validated(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        with pytest.raises(ValueError):
            run_online(ctx, [], lambda op: None, 0)

    def test_bare_context_rejected(self):
        ctx = ExecutionContext()
        with pytest.raises(ValueError, match="no engine"):
            run_online(ctx, [1], lambda op: None, 1)

    def test_ops_execute_against_shared_heap(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        ops, executor = _put_stream(ctx, 60)
        result = run_online(ctx, ops, executor, 3, kind_of=lambda i: "put")
        assert result.ops == 60
        assert result.nthreads == 3
        # every key landed, whatever the interleaving
        for i in range(50):
            assert ctx.kv.get(i) is not None

    def test_charges_land_on_context_resources(self):
        ctx = ExecutionContext.create("undo", value_size=256, heap_mb=4)
        ops, executor = _put_stream(ctx, 40)
        run_online(ctx, ops, executor, 2, kind_of=lambda i: "put")
        snap = ctx.snapshot()
        assert snap.servers["nvm-bandwidth"].requests > 0
        assert snap.servers["log-mgmt"].requests > 0
        assert ctx.clock.now > 0  # the shared clock carried the simulation

    def test_coalescing_shortens_simulated_time(self):
        base = run_ycsb_online("undo", "A", 4, nrecords=150, nops=400, value_size=256)
        fast = run_ycsb_online(
            "undo", "A", 4, nrecords=150, nops=400, value_size=256,
            coalesce_flushes=True,
        )
        assert fast.ops == base.ops
        assert fast.duration_ns < base.duration_ns


class TestDependentTransactions:
    def test_hot_key_serializes_clients(self):
        # same update stream, but all on one key vs spread over 30 keys:
        # the hot key forces clients to take turns (and, for kamino, to
        # wait out each predecessor's backup sync)
        def prepared():
            ctx = ExecutionContext.create("kamino-simple", value_size=256, heap_mb=4)
            for k in range(30):
                ctx.kv.put(k, bytes([k + 1]) * 32)
            ctx.kv.drain()
            ctx.reset()
            return ctx

        ops = list(range(30))
        ctx = prepared()
        hot = run_online(
            ctx, ops, lambda i: ctx.kv.put(0, bytes([i % 255 + 1]) * 32), 4,
            kind_of=lambda i: "put",
        )
        ctx2 = prepared()
        cold = run_online(
            ctx2, ops, lambda i: ctx2.kv.put(i, bytes([i % 255 + 1]) * 32), 4,
            kind_of=lambda i: "put",
        )
        assert hot.mean_latency_us > cold.mean_latency_us
        assert hot.dependent_waits > cold.dependent_waits


class TestReadOnlyParity:
    def test_nolog_and_undo_read_alike(self):
        # undo and no-logging take the same object locks on the same
        # global table, so a read-only stream pays nothing for logging
        # (paper §7.1): identical latencies, contention included
        latencies = {}
        for engine in ("nolog", "undo"):
            ctx = ExecutionContext.create(engine, value_size=64, heap_mb=2)
            for k in range(50):
                ctx.kv.put(k, bytes([k + 1]) * 32)
            ctx.reset()
            result = run_online(
                ctx, list(range(200)), lambda i: ctx.kv.get(i % 50), 4,
                kind_of=lambda i: "get",
            )
            assert result.ops == 200
            latencies[engine] = result.latencies_ns
        assert latencies["nolog"] == latencies["undo"]


#: what the scheduler charges each engine — (serial ns per intent, serial
#: ns per read lock, log copy serialized, local ns per intent, local ns
#: per read lock) — written out as the calibrated table gave them before
#: the scheduler read them off the engine.  One change since: nolog's
#: lock ops cost what they cost every other engine on the global table,
#: now that the table owns that cost.  Whether write locks are held
#: through the backup sync is no column: the scheduler holds them exactly
#: when a record carries deferred work, which only an engine with a
#: backup produces (test_intent_only_records_carry_no_sync_work).
SCHEDULER_RECORDS = {
    "cow": (900.0, 40.0, True, 0.0, 0.0),
    "intent-only": (40.0, 40.0, False, 0.0, 0.0),
    "kamino-dynamic": (40.0, 40.0, False, 0.0, 0.0),
    "kamino-finegrained": (8.0, 8.0, False, 32.0, 32.0),
    "kamino-simple": (40.0, 40.0, False, 0.0, 0.0),
    "nolog": (40.0, 40.0, False, 0.0, 0.0),
    "nvtraverse": (40.0, 40.0, False, 0.0, 0.0),
    "undo": (900.0, 40.0, True, 0.0, 0.0),
    "kamino-dynamic-10": (40.0, 40.0, False, 0.0, 0.0),
    "kamino-dynamic-30": (40.0, 40.0, False, 0.0, 0.0),
    "kamino-dynamic-50": (40.0, 40.0, False, 0.0, 0.0),
    "kamino-dynamic-70": (40.0, 40.0, False, 0.0, 0.0),
    "kamino-dynamic-90": (40.0, 40.0, False, 0.0, 0.0),
}


def _engine(name):
    """The engine a pinned name stands for: a registration, or the
    ``kamino-dynamic`` factory at the α its runtime name carries."""
    if name in registered_engines():
        return make_engine(name)
    engine = kamino_dynamic(alpha=int(name.rsplit("-", 1)[1]) / 100)
    assert engine.name == name
    return engine


def _warm_context(locks=None):
    """A ``kamino-dynamic`` (α = 0.3) stack, its setup synced; ``locks``
    replaces the engine's lock table."""
    ctx = ExecutionContext.create("kamino-dynamic", value_size=64, heap_mb=2, alpha=0.3)
    for k in range(20):
        ctx.kv.put(k, bytes([k + 1]) * 16)
    ctx.kv.drain()
    if locks is not None:
        ctx.engine.locks = locks(resolver=ctx.engine._resolve_pending)
    ctx.reset()
    return ctx


class TestSchedulerCostPin:
    def test_every_registered_engine_is_pinned(self):
        assert set(registered_engines()) <= set(SCHEDULER_RECORDS)

    @pytest.mark.parametrize("name", sorted(SCHEDULER_RECORDS))
    def test_scheduler_record(self, name):
        clients = VirtualClients(ExecutionContext(engine=_engine(name)), 1)
        lock = clients.lock_cost
        assert (
            clients.serial_ns_per_intent,
            lock.serial_ns,
            clients.log_arena,
            lock.local_ns,
            lock.local_ns,
        ) == SCHEDULER_RECORDS[name]

    def test_intent_only_records_carry_no_sync_work(self):
        # every engine without a backup: its records carry no deferred
        # work, so the scheduler never holds its write locks past commit
        names = [n for n in registered_engines() if make_engine(n).backup is None]
        assert {"cow", "intent-only", "nolog", "undo"} <= set(names)
        for name in names:
            ctx = ExecutionContext.create(name, value_size=64, heap_mb=2)
            ops, put = _put_stream(ctx, 40)
            result = run_online(ctx, ops, put, 2, kind_of=lambda i: "put")
            assert result.ops == 40, name
            assert all(rec.async_ns == rec.async_bytes == 0 for rec in ctx.records), name

    def test_scheduler_charges_the_lock_table_it_holds(self):
        # the same registered name over a striped table: 8 ns per lock op
        # on the shared mutex (32 ns more on the client's own timeline),
        # not the 40 ns the global table the name registers with costs
        runs = {}
        for locks in (StripedLockTable, None):
            ctx = _warm_context(locks)
            sets = spy_lock_sets(ctx)
            ops, put = _put_stream(ctx, 30)
            result = run_online(ctx, ops, put, 1, kind_of=lambda i: "put")
            runs[locks] = (ctx, result, sets)
        ctx, striped, sets = runs[StripedLockTable]
        lock_ops = sum(
            r.n_intents + len(read_set - write_set)
            for r, (write_set, read_set) in zip(ctx.records, sets, strict=True)
        )
        assert lock_ops > 0
        assert ctx.resources.log_mgmt.busy_ns == 8.0 * lock_ops
        assert VirtualClients(ctx, 1).lock_cost == LockCost(serial_ns=8.0, local_ns=32.0)
        plain_ctx, plain, _sets = runs[None]
        assert plain_ctx.resources.log_mgmt.busy_ns == 40.0 * lock_ops
        # one uncontended client: 8 + 32 ns per lock op is the global
        # table's 40, so every latency matches
        assert striped.latencies_ns == plain.latencies_ns

    def test_replica_charges_the_lock_table_it_holds(self):
        node = ReplicaNode("r0", "kamino", True, heap_mb=1, value_size=64, alpha=0.3)
        node.engine.locks = StripedLockTable(resolver=node.engine._resolve_pending)
        records = []
        execute = node.ctx.execute

        def spy(*args):
            out = execute(*args)
            records.append(out[1])
            return out

        node.ctx.execute = spy
        _result, cost = node.execute("put", (3, b"v" * 16))
        (record,) = records
        assert record.n_intents > 0
        assert cost == record.crit_ns + 8.0 * record.n_intents


#: what a contended 4-client put/get/rmw stream (one hot key, twelve
#: keys) simulates to on every engine: ``(duration_ns, dependent_waits,
#: sum of latencies)``, floats as ``float.hex``.  A host-speed change to
#: the scheduler must not move them; a change that moves a simulated
#: number rewrites them and says why.
SCHEDULER_GOLDEN = {
    "cow": ("0x1.0b6d000000000p+17", 4, "0x1.9297000000000p+18"),
    "intent-only": ("0x1.17d0000000000p+16", 37, "0x1.114e000000000p+18"),
    "kamino-dynamic": ("0x1.2030666666667p+16", 45, "0x1.fccc999999999p+17"),
    "kamino-finegrained": ("0x1.1f7c000000000p+16", 61, "0x1.1159800000000p+18"),
    "kamino-simple": ("0x1.1af6000000000p+16", 42, "0x1.f0d3000000000p+17"),
    "nolog": ("0x1.94c0000000000p+15", 38, "0x1.8b74000000000p+17"),
    "nvtraverse": ("0x1.5f4a000000000p+16", 32, "0x1.077999999999ap+18"),
    "undo": ("0x1.cefa000000000p+16", 4, "0x1.5c67800000000p+18"),
}


class TestSchedulerGolden:
    def test_every_registered_engine_is_pinned(self):
        assert set(registered_engines()) == set(SCHEDULER_GOLDEN)

    @pytest.mark.parametrize("name", sorted(SCHEDULER_GOLDEN))
    def test_contended_stream(self, name):
        ctx = ExecutionContext.create(name, value_size=64, heap_mb=2)
        for k in range(12):
            ctx.kv.put(k, bytes([k + 1]) * 24)
        ctx.kv.drain()
        ctx.reset()

        def run(op):
            verb, key, i = op
            if verb == "put":
                ctx.kv.put(key, bytes([i % 255 + 1]) * 24)
            elif verb == "get":
                ctx.kv.get(key)
            else:
                ctx.kv.read_modify_write(key, lambda old: old[:8] + b"x" * 8)

        ops = [
            ("put" if i % 4 == 0 else "rmw" if i % 4 == 3 else "get",
             (i * 7) % 12 if i % 3 else 0, i)
            for i in range(160)
        ]
        result = run_online(ctx, ops, run, 4, kind_of=lambda op: op[0])
        assert result.ops == len(ops)
        assert (
            result.duration_ns.hex(),
            result.dependent_waits,
            sum(result.latencies_ns).hex(),
        ) == SCHEDULER_GOLDEN[name]
