"""Property-based crash-atomicity tests (hypothesis).

The central safety property of every recoverable engine: **crash the
device at an arbitrary operation inside an arbitrary transaction — after
recovery, every transaction is all-or-nothing and (for Kamino engines)
the backup again mirrors the main heap.**

Hypothesis chooses: the engine, the transaction script, the exact device
operation at which power fails, the cache-eviction behaviour at the
failure (drop / keep / random torn words), and — sometimes — a second
crash inside recovery itself.  The replay and the oracle battery are the
checker's (:func:`repro.check.replay_scenario`): the model bookkeeping,
the recovery, the ledger comparison, and the backup-mirror check all run
exactly as they do in ``repro check``, so a hypothesis counterexample is
already a ready-to-paste :class:`~repro.check.Scenario`.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.check import PairsWorkload, Scenario, replay_scenario
from repro.nvm import CrashPolicy
from repro.runtime.registry import registered_engines

#: every registered engine whose capabilities declare it recoverable —
#: a newly registered engine is swept automatically, with no edit here
ENGINES = {
    name: info.factory
    for name, info in registered_engines().items()
    if info.capabilities.recoverable and not info.capabilities.needs_chain_repair
}


def test_registry_supplies_engines():
    """The sweep is registry-driven and excludes unsafe baselines."""
    assert set(ENGINES) >= {"undo", "cow", "kamino-simple", "kamino-dynamic"}
    assert "nolog" not in ENGINES
    assert "intent-only" not in ENGINES


POLICIES = [CrashPolicy.DROP_ALL, CrashPolicy.KEEP_ALL, CrashPolicy.RANDOM]

N_OBJECTS = 6

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def crash_scenarios(draw):
    """An engine, a transaction script, and a fully-determined crash."""
    engine_name = draw(st.sampled_from(sorted(ENGINES)))
    policy = draw(st.sampled_from(POLICIES))
    seed = draw(st.integers(0, 2**20))
    txs = draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, N_OBJECTS - 1), st.integers(1, 2000)),
                min_size=1,
                max_size=4,
                unique_by=lambda t: t[0],
            ),
            min_size=1,
            max_size=4,
        )
    )
    crash_after = draw(st.integers(0, 120))
    nested_after = draw(st.one_of(st.none(), st.integers(0, 30)))
    scenario = Scenario(
        engine=engine_name,
        workload="pairs",
        crash_after=crash_after,
        policy=policy,
        survival=0.5,
        device_seed=seed,
        nested_after=nested_after,
    )
    return scenario, txs


@given(crash_scenarios())
@SETTINGS
def test_crash_anywhere_is_atomic(case):
    scenario, txs = case
    failure = replay_scenario(
        scenario,
        workload_factory=lambda: PairsWorkload(txs=txs, n_objects=N_OBJECTS),
    )
    assert failure is None, (
        f"{failure}\n(transaction script: {txs!r})"
    )


@given(
    engine_name=st.sampled_from(sorted(ENGINES)),
    crash_after=st.integers(0, 60),
    seed=st.integers(0, 2**16),
)
@SETTINGS
def test_crash_during_alloc_free_cycle(engine_name, crash_after, seed):
    """Allocator metadata obeys the same atomicity as user data.

    Alloc/free transactions mutate the bitmap words and deferred-free
    machinery rather than user structs, so this keeps its own workload
    instead of the canned pairs script.
    """
    from repro.errors import DeviceCrashedError
    from repro.tx import reopen_after_crash, verify_backup_consistency

    from ..conftest import Pair, build_heap

    factory = ENGINES[engine_name]
    heap, engine, device = build_heap(factory, seed=seed)
    with heap.transaction():
        keeper = heap.alloc(Pair)
        keeper.key = 7
        heap.set_root(keeper)
    heap.drain()
    used = heap.allocator.allocated_bytes

    device.schedule_crash(crash_after, CrashPolicy.RANDOM, survival_prob=0.5)
    completed = False
    try:
        with heap.transaction():
            tmp = heap.alloc(Pair)
            tmp.key = 1
        with heap.transaction():
            heap.free(tmp)
        heap.drain()
        completed = True
    except DeviceCrashedError:
        pass
    device.cancel_scheduled_crash()
    if not completed and not device.crashed:
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)
    if completed and not device.crashed:
        device.crash(CrashPolicy.RANDOM, survival_prob=0.5)

    heap2, engine2, _ = reopen_after_crash(device, factory)
    # alloc+free is net zero; a crash may leave the tmp block allocated
    # (tx1 committed, tx2 not) but never torn metadata
    assert heap2.allocator.allocated_bytes in (used, used + 128)
    assert heap2.root(Pair).key == 7
    # allocator still functional
    with heap2.transaction():
        heap2.alloc(Pair)
    heap2.drain()
    if engine2.backup is not None:
        verify_backup_consistency(heap2)
