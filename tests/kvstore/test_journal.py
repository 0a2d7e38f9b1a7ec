"""Journal: compaction is crash-atomic for both of its owners.

The placement service and the procedure store each run a script of
single-record mutations until their journal compacts once.  A power
failure at every mutating device op of that compacting call must reopen
to the state from just before the call (or, once the call's own record
is durable, just after it) — never to a log that lost the shard map, a
migration, a pending stack or a kept result.
"""

import json

import pytest

from repro.cluster.placement import PlacementService
from repro.cluster.router import ShardMap
from repro.errors import DeviceCrashedError
from repro.nvm import NVMDevice
from repro.nvm.device import CrashPolicy
from repro.parallel import count_mutating_ops
from repro.serve.procedures import DEVICE_BYTES, ProcedureStore

#: small enough that a short script compacts
LOG_BYTES = 8 * 1024


def _placement(device):
    shard_map = ShardMap({0: 0, 1: 1, 2: 0, 3: 1}, version=1)
    return PlacementService(shard_map, device=device, log_bytes=LOG_BYTES)


def _placement_script():
    steps = [lambda svc: svc.begin_migration(0, dst_group=1)]
    steps += [lambda svc, c=c: svc.advance_cursor(0, c) for c in range(1, 200)]
    return steps


def _placement_state(svc):
    return svc.map.to_dict(), [rec.to_dict() for rec in svc.migrations.values()]


def _procedures(device):
    return ProcedureStore(device, log_bytes=LOG_BYTES)


def _procedure_script():
    steps = []
    for i in range(100):
        pid = f"p{i}"
        steps.append(lambda st, pid=pid, i=i: st.begin(pid, "incr", [i, 1]))
        steps.append(lambda st, pid=pid, i=i: st.push_frame(pid, 0, i))
        if i % 3 != 2:  # a third of them stay pending
            steps.append(lambda st, pid=pid, i=i: st.finish(pid, i + 1))
    return steps


def _procedure_state(store):
    return json.dumps(store.pending, sort_keys=True), list(store.done.items())


OWNERS = {
    "placement": (_placement, _placement_script, _placement_state),
    "procedures": (_procedures, _procedure_script, _procedure_state),
}


def _first_compaction(build, script, state):
    """``(k, ops before step k, ops of step k, ops of step k-1, state
    before, state after)`` for the first step ``k`` that compacts."""
    owner = build(NVMDevice(DEVICE_BYTES, seed=0))
    done_ops = previous = 0
    for k, step in enumerate(script):
        before = state(owner)
        n = count_mutating_ops(owner.device, lambda: step(owner))
        if owner.compactions:
            return k, done_ops, n, previous, before, state(owner)
        done_ops += n
        previous = n
    raise AssertionError("the script never compacted the journal")


@pytest.mark.parametrize("owner", sorted(OWNERS))
@pytest.mark.parametrize("policy, seeds", [
    (CrashPolicy.DROP_ALL, (0,)),
    (CrashPolicy.RANDOM, (1, 2, 3)),
])
def test_a_crash_anywhere_in_compaction_loses_nothing(owner, policy, seeds):
    build, make_script, state = OWNERS[owner]
    script = make_script()
    k, ops_before, ops, own_append, before, after = _first_compaction(
        build, script, state
    )
    for seed in seeds:
        for j in range(ops):
            journal = build(NVMDevice(DEVICE_BYTES, seed=seed))
            journal.device.schedule_crash(ops_before + j, policy)
            with pytest.raises(DeviceCrashedError):
                for step in script[: k + 1]:
                    step(journal)
            journal.crash_and_recover()
            got = state(journal)
            where = f"{owner} seed {seed}, op {j} of {ops}"
            if j < ops - own_append:
                # checkpoint and truncation: the reopen just before it
                assert got == before, where
            else:
                # the step's own record: atomically there or not
                assert got in (before, after), where


@pytest.mark.parametrize("owner", sorted(OWNERS))
def test_replaying_a_checkpoint_over_its_history_changes_nothing(owner):
    build, make_script, state = OWNERS[owner]
    journal = build(NVMDevice(DEVICE_BYTES, seed=0))
    for step in make_script()[:20]:
        step(journal)
    history = [json.loads(p) for p in journal.ring.peek_all()]
    live = state(journal)
    checkpoint = list(journal._checkpoint())
    for cut in range(len(checkpoint) + 1):
        journal._load(history + checkpoint[:cut])
        assert state(journal) == live, cut
    journal._load(checkpoint)
    assert state(journal) == live
