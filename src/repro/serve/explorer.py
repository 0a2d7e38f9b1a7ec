"""Systematic crash sweep over the durable-procedure frame log.

The serving layer's correctness claim is the persistent-stack paper's:
a server crash at *any* instant — including between a step's effects
and its frame persist, during the ``begin``/``done`` records, or again
during recovery itself — loses no committed step and applies no step
twice.  :class:`ServeCrashExplorer` makes that mechanically testable
the same way :class:`~repro.check.CrashExplorer` does for the engines:

1. run a fixed procedure workload once with a fail-point budget armed
   on the procedure log's device and count its mutating operations;
2. re-run with the fail-point at every such operation (sampled under a
   budget), power-failing the log mid-append — DROP_ALL for the
   worst-case torn tail, RANDOM lotteries for partial-line survival;
3. recover (``crash_and_recover`` + ``resume_all``), optionally arming
   a *second* fail-point so the crash lands inside recovery, then let
   the client retry every interrupted call;
4. judge the recovered world with exactly-once oracles: every
   procedure's stored result equals the sequential spec, re-submitting
   any pid replays (never re-executes), and the cluster's final values
   match the spec — a lost step shows up low, a double-applied step
   shows up high.

Sweeping with ``durable=False`` (volatile frame stacks, fresh dedup
incarnation per recovery) demonstrates the unhardened failure mode the
ring exists to prevent: crash points where an increment lands twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import DeviceCrashedError, ProcedureResumed
from ..nvm.device import CrashPolicy, NVMDevice
from ..parallel import SweepFailure, count_mutating_ops, fan_out, sample_points
from .gateway import ClusterGateway
from .procedures import (
    DEVICE_BYTES,
    ProcedureEngine,
    ProcedureStore,
    _as_int,
    _encode_int,
)

#: give up if one call crashes more often than this (a stuck recovery)
_MAX_CRASHES_PER_CALL = 6


# ---------------------------------------------------------------------------
# The workload specs (pure, so the oracle is a closed-form replay)
# ---------------------------------------------------------------------------


def _workload_calls(workload: str) -> List[Tuple[str, str, List[int]]]:
    calls: List[Tuple[str, str, List[int]]] = []
    if workload in ("incr", "mixed"):
        # two hot keys, four counters with distinct deltas: a lost or
        # doubled write step shifts a final value by a unique amount
        for i in range(4):
            calls.append(("incr", f"q{i}", [10 + (i % 2), i + 1]))
    if workload in ("transfer", "mixed"):
        calls.append(("transfer", "t0", [20, 21, 30]))
        calls.append(("transfer", "t1", [21, 20, 10]))
    if not calls:
        raise ValueError(f"unknown workload '{workload}'")
    return calls


def _initial_state(workload: str) -> Dict[int, int]:
    if workload in ("transfer", "mixed"):
        return {20: 100, 21: 100}
    return {}


def _expected(workload: str) -> Tuple[Dict[int, int], Dict[str, object]]:
    """Sequential-spec final key values and per-procedure results."""
    state = dict(_initial_state(workload))
    results: Dict[str, object] = {}
    for name, pid, args in _workload_calls(workload):
        if name == "incr":
            key, delta = args
            state[key] = state.get(key, 0) + delta
            results[pid] = state[key]
        else:
            src, dst, amount = args
            state[src] = state.get(src, 0) - amount
            state[dst] = state.get(dst, 0) + amount
            results[pid] = {"src": state[src], "dst": state[dst]}
    return state, results


# ---------------------------------------------------------------------------
# Scenarios / reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeScenario:
    """One deterministic replay: crash the procedure log after
    ``crash_after`` mutating device operations (optionally again after
    ``nested_after`` operations of the first recovery)."""

    workload: str = "mixed"
    crash_after: int = 1
    policy: str = "drop_all"
    survival: float = 0.5
    device_seed: int = 0
    nested_after: Optional[int] = None
    durable: bool = True

    def crash_policy(self) -> CrashPolicy:
        return CrashPolicy(self.policy)

    def describe(self) -> str:
        nested = (
            f", nested crash after {self.nested_after} recovery op(s)"
            if self.nested_after is not None else ""
        )
        stack = "durable" if self.durable else "VOLATILE"
        return (
            f"workload '{self.workload}' ({stack} stack), power-fail the "
            f"procedure log after {self.crash_after} mutating device "
            f"op(s) [{self.policy}]{nested}, then recover, resume and "
            f"retry every interrupted call"
        )


@dataclass
class ServeReport:
    workload: str
    durable: bool
    n_ops: int
    states_explored: int = 0
    nested_explored: int = 0
    not_fired: int = 0
    crashes_observed: int = 0
    failures: List[SweepFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        stack = "durable" if self.durable else "volatile"
        verdict = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"serve-crash sweep [{stack} stack, workload "
            f"'{self.workload}']: {self.states_explored} crash point(s) "
            f"of {self.n_ops} (+{self.nested_explored} nested, "
            f"{self.crashes_observed} crashes observed) -> {verdict}"
        )


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


class ServeCrashExplorer:
    """Sweep every frame-persist crash point of a procedure workload."""

    def __init__(self, workload: str = "mixed", durable: bool = True,
                 device_seed: int = 0):
        _workload_calls(workload)  # validate early
        self.workload = workload
        self.durable = durable
        self.device_seed = device_seed

    # -- harness ---------------------------------------------------------------

    def _build(self, device_seed: int) -> ProcedureEngine:
        from ..cluster import ShardedCluster

        cluster = ShardedCluster(
            groups=2, shards_per_group=2, f=1, heap_mb=2, value_size=64, seed=0,
        )
        device = NVMDevice(DEVICE_BYTES, seed=device_seed)
        store = ProcedureStore(device)
        gateway = ClusterGateway(cluster)
        engine = ProcedureEngine(gateway, store, durable=self.durable)
        self._setup(engine)
        return engine

    def _setup(self, engine: ProcedureEngine) -> None:
        for j, (key, value) in enumerate(
            sorted(_initial_state(self.workload).items())
        ):
            engine.gateway.call_write(
                "put", (key, _encode_int(value)), (key,),
                client_id="setup", request_id=j,
            )

    def count_ops(self) -> int:
        """Mutating procedure-log device ops of one clean workload run."""
        engine = self._build(self.device_seed)

        def run() -> None:
            for name, pid, args in _workload_calls(self.workload):
                engine.run(name, args, pid=pid)

        return count_mutating_ops(engine.store.device, run)

    # -- one replay ------------------------------------------------------------

    def replay(self, scenario: ServeScenario
               ) -> Tuple[Optional[SweepFailure], int]:
        """Run one scenario; returns ``(failure_or_None, crashes_seen)``.

        ``crashes_seen == 0`` means the fail-point never fired (the
        sweep records it but judges nothing)."""
        engine = self._build(scenario.device_seed)
        device = engine.store.device
        device.schedule_crash(
            scenario.crash_after, scenario.crash_policy(), scenario.survival
        )
        crashes = 0
        for name, pid, args in _workload_calls(scenario.workload):
            for _attempt in range(_MAX_CRASHES_PER_CALL):
                try:
                    engine.run(name, args, pid=pid)
                    break
                except ProcedureResumed:
                    break  # recovery already completed this pid
                except DeviceCrashedError:
                    crashes += 1
                    ok = self._recover(engine, scenario, nested=crashes == 1)
                    if not ok:
                        return SweepFailure(scenario, (
                            "recovery did not converge (repeated crashes)",
                        )), crashes
            else:
                return SweepFailure(scenario, (
                    f"call {pid} never completed after "
                    f"{_MAX_CRASHES_PER_CALL} crash/recover rounds",
                )), crashes
        device.cancel_scheduled_crash()
        if crashes == 0:
            return None, 0
        problems = self._judge(engine, scenario)
        if problems:
            return SweepFailure(scenario, tuple(problems)), crashes
        return None, crashes

    def _recover(self, engine: ProcedureEngine, scenario: ServeScenario,
                 nested: bool) -> bool:
        """Replay the log and resume; optionally crash again inside the
        resume (the nested case) and recover from that too."""
        armed = scenario.nested_after if nested else None
        for _round in range(_MAX_CRASHES_PER_CALL):
            engine.store.crash_and_recover()
            if armed is not None:
                engine.store.device.schedule_crash(
                    armed, scenario.crash_policy(), scenario.survival
                )
                armed = None
            try:
                engine.resume_all()
                return True
            except DeviceCrashedError:
                continue
        return False

    def _judge(self, engine: ProcedureEngine,
               scenario: ServeScenario) -> List[str]:
        expected_state, expected_results = _expected(scenario.workload)
        problems: List[str] = []
        done = engine._done_map()
        for name, pid, args in _workload_calls(scenario.workload):
            if pid not in done:
                problems.append(f"procedure {pid} has no stored result")
                continue
            got = done[pid]
            want = expected_results[pid]
            if got != want:
                problems.append(
                    f"procedure {pid} result {got!r} != spec {want!r}"
                )
            # exactly-once delivery: a retried pid must replay, never
            # re-execute
            try:
                engine.run(name, args, pid=pid)
                problems.append(
                    f"procedure {pid} re-submission re-executed instead "
                    f"of replaying the stored result"
                )
            except ProcedureResumed as exc:
                if exc.result != want:
                    problems.append(
                        f"procedure {pid} replayed {exc.result!r} != "
                        f"spec {want!r}"
                    )
            except DeviceCrashedError:
                problems.append(f"procedure {pid} re-submission crashed")
        for key, want in sorted(expected_state.items()):
            got = _as_int(engine.gateway.call_read("get", (key,)))
            if got != want:
                kind = "double-applied" if got > want else "lost"
                problems.append(
                    f"key {key}: expected {want}, found {got} "
                    f"({kind} step effects)"
                )
        return problems

    # -- the sweep -------------------------------------------------------------

    def explore(self, max_points: Optional[int] = None, nested: bool = True,
                max_nested_points: Optional[int] = 3, random_samples: int = 0,
                workers: int = 0) -> ServeReport:
        """Deterministic sweep: every (sampled) crash point with the
        worst-case DROP_ALL policy, optional RANDOM survival lotteries,
        then nested crashes during the first recovery.  ``workers`` fans
        the replays over a process pool with an ordered, byte-identical
        fold."""
        n_ops = self.count_ops()
        report = ServeReport(self.workload, self.durable, n_ops)
        base = ServeScenario(
            workload=self.workload, durable=self.durable,
            device_seed=self.device_seed,
        )
        scenarios = [
            replace(base, crash_after=point)
            for point in sample_points(1, n_ops, max_points)
        ]
        for r in range(random_samples):
            scenarios += [
                replace(base, crash_after=point, policy="random",
                        device_seed=self.device_seed + 101 + r)
                for point in sample_points(1, n_ops, max_points)
            ]
        if nested:
            nested_points = sample_points(
                1, n_ops,
                max_nested_points if max_nested_points is not None else None,
            )
            scenarios += [
                replace(base, crash_after=point, nested_after=after)
                for point in nested_points
                for after in (1, 3)
            ]
        results = fan_out(self.replay, scenarios, workers)
        for scenario, (failure, crashes) in zip(scenarios, results):
            if crashes == 0:
                report.not_fired += 1
                continue
            report.states_explored += 1
            if scenario.nested_after is not None and crashes >= 2:
                report.nested_explored += 1
            report.crashes_observed += crashes
            if failure is not None:
                report.failures.append(failure)
        return report
