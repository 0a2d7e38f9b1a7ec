"""The spec of a crash replay: build, run to a scheduled crash, rot.

:class:`~repro.check.CrashExplorer` judges every scenario on a fork of
one forward pass, paused at the scenario's point.  This module keeps the
literal from-scratch version of the first half of a replay — a fresh
stack, setup, the steps until a scheduled power failure fires under the
scenario's own policy and seed, then the scenario's media rot — the way
``ReferenceNVMDevice`` is kept beside ``NVMDevice``.  The second half
(recovery and the oracles) is the explorer's own ``_finish`` either way.
"""

from repro.check.explorer import _Crashed
from repro.errors import DeviceCrashedError


def run_to_crash(explorer, scenario):
    """``scenario``'s crashed image, built from nothing; ``None`` when
    the workload finishes before the fail-point fires."""
    heap, _engine, device, workload = explorer._fresh(
        scenario.device_seed, media=scenario.media, tree=scenario.tree
    )
    snap = explorer._stale_snapshot(device, heap, scenario)
    device.schedule_crash(scenario.crash_after, scenario.policy, scenario.survival)
    steps_done = 0
    try:
        for i in range(workload.n_steps):
            workload.step(heap, i)
            steps_done += 1
        heap.drain()
    except DeviceCrashedError:
        pass
    else:
        device.cancel_scheduled_crash()
        return None
    explorer._inject_corruption(device, heap, scenario)
    explorer._inject_stale(device, scenario, snap)
    return _Crashed(device, workload, steps_done)


def replay_from_scratch(explorer, scenario, ledger):
    """``(reached, failure)`` for ``scenario`` replayed from nothing."""
    crashed = run_to_crash(explorer, scenario)
    if crashed is None:
        return False, None
    return True, explorer._finish(scenario, crashed, ledger)
