"""Exhaustive crash-state exploration for a single heap + engine.

The explorer turns "does this engine recover correctly?" into a finite
enumeration:

1. **Count** the workload's mutating device operations by arming an
   unreachably large fail-point budget and reading back how much of it
   ticked away (:meth:`NVMDevice.scheduled_crash_remaining`).  Setup is
   excluded — the countdown is armed after setup commits and its backup
   sync drains — so every numbered point lands inside a step transaction
   or the trailing sync drain, the window recovery must handle.
2. **Record the ledger**: one uncrashed golden run, observing the
   logical state after setup and after every step
   (:class:`~repro.check.oracle.Ledger`).
3. **One forward pass**: run setup and the steps once more with a
   fail-point *callback* armed at each crash point to visit — every one,
   or an evenly-spaced sample in quick mode
   (:meth:`NVMDevice.schedule_callback`).  At point ``p`` the pass pauses
   just before mutating operation ``p + 1``, in exactly the state a crash
   scheduled there would resolve, and **prunes** on the pre-resolution
   digest of that state (durable bytes + dirty-line overlay,
   :meth:`NVMDevice.overlay_fingerprint`): two points with equal digests
   behave identically under every crash policy, so only the first is
   judged.  Points separated only by reads, or by a fence that persisted
   nothing new, collapse.  The pass never crashes; it resumes after each
   point.
4. **Judge** a novel point on *forks* of the paused device
   (:meth:`NVMDevice.clone_durable` with its overlay: the pages the run
   wrote plus its dirty lines, not the pool): the ``DROP_ALL`` base crash
   and its RANDOM-policy lotteries, which cover torn writes beyond the
   all-or-nothing policies.  Each fork power-fails under its scenario's
   own policy and device seed, takes the scenario's media rot, recovers
   with :func:`~repro.tx.recovery.reopen_after_crash`, and faces the
   ledger oracle, the workload's structure validators, and (for backup
   engines) main/backup agreement (*finish*).
5. **Nest**: for each novel point, re-crash at every mutating operation
   *of recovery itself* (and its post-recovery sync drain), then recover
   again — recovery must be idempotent under its own power failures
   (paper §3: "both directions are idempotent").  The base crash is
   resolved once more; a clone of that post-crash image counts
   recovery's operations, then one recovery pass over the image pauses
   at each sampled nested point the way the forward pass pauses at
   crash points, and forks it there.  Each fork power-fails under the
   nested policy and goes straight to the final recovery of *finish*.

A single :meth:`CrashExplorer.replay` is the same forward pass stopped at
its one point, so the sweep, the minimiser and a pasted
:func:`replay_scenario` snippet run the same code.  ``tests/check/``
keeps the from-scratch run to a scheduled crash as the spec every judged
scenario is held to.

**Media-corruption mode** (``Scenario.media`` + ``corrupt_lines``)
additionally rots the durable image *between the crash and recovery*:
seeded bit flips land in the live heap and in the backup strategy's
copies of it (the full mirror's image, or the dynamic backup's slots)
while the machine is "off", exactly when no code can observe them
happening.  The
oracle is then *detect-or-repair, never silent corruption*: with
``media="protected"`` recovery must either repair every flipped line
(checksum scrub against the surviving copy) and satisfy the usual
ledger/validator battery, or degrade with a typed
:class:`~repro.errors.MediaError` — recovered state that silently
disagrees with the ledger is a failure, and so is any line still
detectably bad after the post-recovery scrub.  With
``media="unprotected"`` the same flips go undetected, which is how the
checker demonstrates the failure class the sidecar exists to close.

**Adversarial mode** (``Scenario.stale_lines`` + ``tree``) goes one step
further: instead of random flips, changed live lines (and their backup
partners) are replayed with their setup-time bytes *and the matching
stale CRCs forged into the sidecar* — consistent multi-line corruption
that per-line checksums verify clean.  Checksum-only configurations
demonstrably serve stale state (the must-fail leg); with ``tree=True``
the persistent integrity tree's root still disputes the replayed lines,
and the same detect-or-repair oracle passes: root-verified repair from a
surviving copy, or a typed degrade.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import (
    DeviceCrashedError,
    MediaError,
    PoolCorruptionError,
    RecoveryError,
)
from ..nvm.device import CrashPolicy, NVMDevice
from ..nvm.latency import CACHE_LINE
from ..parallel import (
    contiguous_slices,
    count_mutating_ops,
    fan_out_iter,
    resolve_workers,
    sample_points,
)
from ..runtime.registry import EngineInfo, engine_info, registered_engines
from ..tx.recovery import reopen_after_crash, verify_backup_consistency
from .oracle import Ledger, OracleViolation, check_against_ledger
from .workload import CANNED_WORKLOADS, CheckWorkload, build_stack

#: the "fingerprint" of a replay whose crash point was reached but whose
#: state nobody dedups on (lotteries, nested scenarios): not ``None``,
#: which means the point lies beyond the workload
NOT_DIGESTED = ""

_LINE_SHIFT = CACHE_LINE.bit_length() - 1


@dataclass(frozen=True)
class Scenario:
    """One fully-determined crash experiment — the unit of replay.

    ``crash_after`` counts completed mutating device operations from the
    end of setup: the power fails just before operation
    ``crash_after + 1`` (0 = before the first one).  ``nested_after``
    additionally crashes recovery itself, counted the same way from the
    start of the reopen.
    """

    engine: str
    workload: str = "pairs"
    crash_after: int = 1
    policy: CrashPolicy = CrashPolicy.DROP_ALL
    survival: float = 0.5
    device_seed: int = 0
    nested_after: Optional[int] = None
    nested_policy: CrashPolicy = CrashPolicy.DROP_ALL
    #: "off" | "protected" | "unprotected" — attach a media-fault model
    media: str = "off"
    #: seeded bit flips injected into heap+backup between crash and recovery
    corrupt_lines: int = 0
    corrupt_seed: int = 0
    #: maintain the persistent integrity tree (requires media="protected")
    tree: bool = False
    #: adversarial consistent corruption: replay this many live main
    #: lines (plus their backup partners) with setup-time bytes AND the
    #: matching stale CRCs, between the crash and recovery
    stale_lines: int = 0

    def describe(self) -> str:
        parts = [
            f"engine={self.engine}",
            f"workload={self.workload}",
            f"crash_after={self.crash_after}",
            f"policy={self.policy.value}",
        ]
        if self.policy is CrashPolicy.RANDOM:
            parts.append(f"survival={self.survival}")
            parts.append(f"device_seed={self.device_seed}")
        if self.nested_after is not None:
            parts.append(
                f"nested_after={self.nested_after} ({self.nested_policy.value})"
            )
        if self.media != "off":
            parts.append(
                f"media={self.media} corrupt_lines={self.corrupt_lines} "
                f"corrupt_seed={self.corrupt_seed}"
            )
            if self.tree:
                parts.append("tree=True")
            if self.stale_lines:
                parts.append(f"stale_lines={self.stale_lines}")
        return ", ".join(parts)


@dataclass
class CheckFailure:
    """A scenario whose recovered state an oracle rejected."""

    scenario: Scenario
    violation: OracleViolation

    def __str__(self) -> str:
        return f"{self.scenario.describe()}: {self.violation}"


@dataclass
class ExplorationReport:
    """What one engine × workload sweep covered and found."""

    engine: str
    workload: str
    n_ops: int = 0
    states_explored: int = 0
    states_pruned: int = 0
    nested_explored: int = 0
    failures: List[CheckFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return (
            f"{self.engine:>16} x {self.workload:<6} "
            f"ops={self.n_ops:<4} explored={self.states_explored:<5} "
            f"pruned={self.states_pruned:<5} nested={self.nested_explored:<5} {status}"
        )


@dataclass
class _Crashed:
    """A crashed image — everything the rest of a replay (recovery and
    judgment) needs.

    ``device`` is crashed, with the scenario's media rot already in it,
    and belongs to this replay alone (recovery is destructive);
    ``workload`` is a shallow copy of the one that ran, holding the
    handles setup recorded (it re-opens its structures on whichever heap
    it is shown, which must not re-point the run's own copy);
    ``steps_done`` is how many steps had returned; ``fingerprint`` is the
    point's digest for a base point, else :data:`NOT_DIGESTED`;
    ``recovery_crashed`` says a nested scenario's crash inside recovery
    already happened (the image is a fork of a paused recovery pass),
    so only the final recovery is left.
    """

    device: NVMDevice
    workload: CheckWorkload
    steps_done: int
    fingerprint: str = NOT_DIGESTED
    recovery_crashed: bool = False


@dataclass
class _Point:
    """The forward pass paused just before mutating operation
    ``crash_after + 1``.  Judging only reads it: the pass resumes."""

    crash_after: int
    device: NVMDevice
    heap: Any
    workload: CheckWorkload
    steps_done: int
    #: setup-time line images for the stale-replay adversary, or None
    stale: Any


@dataclass
class _Verdicts:
    """What one sweep slice found at one crash point.  When the slice
    already judged an equal digest, nothing is judged and the lists stay
    empty — the sweep prunes the point either way."""

    crash_after: int
    fingerprint: str
    base: Optional[CheckFailure] = None
    lotteries: List[Optional[CheckFailure]] = field(default_factory=list)
    nested: List[Optional[CheckFailure]] = field(default_factory=list)


@dataclass(frozen=True)
class _Plan:
    """What a sweep judges at each novel point; every slice gets a copy.

    ``template`` carries the engine, workload, device seed and media
    knobs every scenario of the sweep shares.
    """

    template: Scenario
    random_samples: int
    survival: float
    nested: bool
    max_nested_points: Optional[int]

    def base(self, point: int) -> Scenario:
        return replace(
            self.template,
            crash_after=point,
            corrupt_seed=self.template.device_seed * 1000 + point,
        )

    def lotteries(self, base: Scenario) -> List[Scenario]:
        return [
            replace(
                base,
                policy=CrashPolicy.RANDOM,
                survival=self.survival,
                device_seed=base.device_seed + 1 + sample,
            )
            for sample in range(self.random_samples)
        ]


class CrashExplorer:
    """Sweeps every crash state of one engine running one workload.

    Args:
        engine: registered engine name (resolved via the runtime
            registry; the same factory rebuilds the engine for
            recovery, like a restart with the same binary).
        workload: canned workload name, or pass ``workload_factory``.
        workload_factory: zero-arg callable returning a fresh
            :class:`CheckWorkload`; overrides ``workload``.
        engine_factory: override the registry factory (tests inject
            deliberately broken engines this way).
        device_seed: base seed; RANDOM samples perturb it.
    """

    def __init__(
        self,
        engine: str,
        workload: str = "pairs",
        workload_factory: Optional[Callable[[], CheckWorkload]] = None,
        engine_factory: Optional[Callable[[], Any]] = None,
        device_seed: int = 0,
    ):
        self.engine_name = engine
        if engine_factory is not None:
            self._engine_factory = engine_factory
        else:
            info: EngineInfo = engine_info(engine)
            self._engine_factory = info.factory
        if workload_factory is None:
            if workload not in CANNED_WORKLOADS:
                raise ValueError(
                    f"unknown workload '{workload}'; choose from {sorted(CANNED_WORKLOADS)}"
                )
            workload_factory = CANNED_WORKLOADS[workload]
        self.workload_name = workload
        self._workload_factory = workload_factory
        self.device_seed = device_seed
        # a worker process runs a pickled copy of this explorer; a custom
        # (closure) factory does not pickle and keeps the sweep in-process
        self._portable = engine_factory is None and workload in CANNED_WORKLOADS and (
            workload_factory is CANNED_WORKLOADS.get(workload)
        )

    # -- replay primitives ---------------------------------------------------

    def _fresh(
        self, seed: int, media: str = "off", tree: bool = False
    ) -> Tuple[Any, Any, NVMDevice, CheckWorkload]:
        heap, engine, device = build_stack(
            self._engine_factory, seed=seed, media=media, tree=tree
        )
        workload = self._workload_factory()
        workload.setup(heap)
        heap.drain()
        return heap, engine, device, workload

    @staticmethod
    def _stale_snapshot(device: NVMDevice, heap: Any, scenario: Scenario):
        """Setup-time line images for the stale-replay adversary.

        Captured right after setup drains (so every image is a
        legitimately persisted state with a CRC the sidecar once
        vouched for), covering the live main lines and their partners
        on the other side of a line-for-line mirror
        (:meth:`~repro.tx.backup.BackupStrategy.partner_line`).
        Returns ``(images, partner)``."""
        media = device.media
        if media is None or scenario.stale_lines <= 0:
            return None
        images = media.snapshot_lines(heap.live_spans())
        partner: Dict[int, int] = {}
        backup = heap.engine.backup
        if backup is not None:
            for line in images:
                mate = backup.partner_line(line)
                if mate is not None:
                    partner[line] = mate
            mates = [(mate << _LINE_SHIFT, CACHE_LINE) for mate in partner.values()]
            images.update(media.snapshot_lines(mates))
        return images, partner

    @staticmethod
    def _inject_stale(device: NVMDevice, scenario: Scenario, snap) -> None:
        """Replay stale-but-consistent line images into the crashed
        durable state: seeded live main lines that changed since setup
        get their setup-time bytes back *with the matching stale CRC
        forged in the sidecar*, and so do their backup partners — a
        consistent multi-line replay that per-line checksums verify
        clean.  Only the integrity tree still disputes it."""
        if snap is None:
            return
        images, partner = snap
        device.media.replay_changed(
            images,
            scenario.stale_lines,
            random.Random(scenario.corrupt_seed ^ 0x5A1E),
            partner,
        )

    @staticmethod
    def _inject_corruption(device: NVMDevice, heap: Any, scenario: Scenario) -> None:
        """Rot the crashed durable image: seeded bit flips into the live
        heap and the backup strategy's copies of it, while the machine
        is "off"."""
        media = device.media
        if media is None or scenario.corrupt_lines <= 0:
            return
        # target the *live* allocations, main spans first, then whatever
        # backs them up (the mirror's image, or the dynamic backup's
        # slots) — rot in free space is unobservable and proves nothing
        live = heap.allocator.live_ranges()
        base = heap.region.offset
        spans = [(base + off, size) for off, size in live]
        if heap.engine.backup is not None:
            spans += [(copy, size) for _main, copy, size in heap.engine.backup.copies(live)]
        media.inject_flips(
            scenario.corrupt_lines,
            ranges=spans,
            rng=random.Random(scenario.corrupt_seed),
        )

    def count_ops(self) -> int:
        """Mutating device operations between end-of-setup and quiescence."""
        heap, _engine, device, workload = self._fresh(self.device_seed)

        def run() -> None:
            for i in range(workload.n_steps):
                workload.step(heap, i)
            heap.drain()

        return count_mutating_ops(device, run)

    def golden_ledger(self) -> Ledger:
        """Uncrashed run recording the logical state after every step."""
        heap, _engine, _device, workload = self._fresh(self.device_seed)
        ledger = Ledger(workload=self.workload_name)
        ledger.states.append(workload.observe(heap))
        for i in range(workload.n_steps):
            workload.step(heap, i)
            ledger.states.append(workload.observe(heap))
        heap.drain()
        return ledger

    # -- the forward pass ----------------------------------------------------

    def _forward(
        self,
        template: Scenario,
        points: Sequence[int],
        visit: Callable[[_Point], None],
    ) -> None:
        """Run setup and the steps once, pausing at each crash point of
        ``points`` (ascending) to ``visit`` it; the run ends after the
        last one.  ``template`` supplies the device seed and the media
        knobs.  A point past the end of the workload is never visited.

        The fail-point countdown calls back instead of crashing, so the
        device at a pause is bit-for-bit the one a crash scheduled there
        would resolve; ``visit`` must only fork it, never drive it.
        """
        if not points:
            return
        heap, _engine, device, workload = self._fresh(
            template.device_seed, media=template.media, tree=template.tree
        )
        stale = self._stale_snapshot(device, heap, template)
        steps_done = 0
        at = 0

        def pause() -> None:
            nonlocal at
            point = points[at]
            visit(_Point(point, device, heap, workload, steps_done, stale))
            at += 1
            if at < len(points):
                device.schedule_callback(points[at] - point - 1, pause)
            else:
                # nothing left to visit: end the run the way a crash would
                device.crash()
                raise DeviceCrashedError("forward pass: last point visited")

        device.schedule_callback(points[0], pause)
        try:
            for i in range(workload.n_steps):
                workload.step(heap, i)
                steps_done += 1
            heap.drain()
        except DeviceCrashedError:
            return
        device.cancel_scheduled_crash()

    def _crash(
        self, point: _Point, scenario: Scenario, fingerprint: str = NOT_DIGESTED
    ) -> _Crashed:
        """``scenario``'s crashed image, forked from the paused pass.

        A private clone of the device, overlay included, power-fails
        under the scenario's own policy and device seed (its media RNG
        reseeded too, as a from-scratch build seeds both), then takes the
        scenario's rot.  Corruption targets the live allocations the
        paused heap holds — what a crash there would leave, since a
        power failure never aborts the transaction in flight."""
        device = point.device.clone_durable(seed=scenario.device_seed, overlay=True)
        if device.media is not None:
            device.media.rng.seed(scenario.device_seed)
        device.crash(scenario.policy, scenario.survival)
        self._inject_corruption(device, point.heap, scenario)
        self._inject_stale(device, scenario, point.stale)
        return _Crashed(device, copy.copy(point.workload), point.steps_done, fingerprint)

    # -- one scenario --------------------------------------------------------

    def replay(
        self,
        scenario: Scenario,
        ledger: Optional[Ledger] = None,
        crashed: Optional[_Crashed] = None,
    ) -> Tuple[Optional[CheckFailure], Optional[str]]:
        """Judge one scenario; returns (failure-or-None, crash fingerprint).

        A ``None`` fingerprint means the crash point was never reached
        (it lies beyond the workload), in which case nothing was checked.
        Only a *base point* (``DROP_ALL``, no nested crash) carries a
        digest — it is the one the sweep prunes on; any other scenario
        that was reached reports :data:`NOT_DIGESTED`.

        Without ``crashed`` this is :meth:`_forward` stopped at the
        scenario's point and forked into its crashed image; the sweep
        hands every scenario it judges the image it forked for it.
        Either way what runs from there is :meth:`_finish`.
        """
        if ledger is None:
            ledger = self.golden_ledger()
        if crashed is None:
            digest = scenario.policy is CrashPolicy.DROP_ALL and scenario.nested_after is None
            images: List[_Crashed] = []
            self._forward(
                scenario,
                [scenario.crash_after],
                lambda point: images.append(
                    self._crash(
                        point,
                        scenario,
                        point.device.overlay_fingerprint() if digest else NOT_DIGESTED,
                    )
                ),
            )
            if not images:
                return None, None
            crashed = images[0]
        return self._finish(scenario, crashed, ledger), crashed.fingerprint

    def _finish(
        self, scenario: Scenario, crashed: "_Crashed", ledger: Ledger
    ) -> Optional[CheckFailure]:
        """From a crashed image to a verdict: the optional crash inside
        recovery, the final recovery, the oracles.  Consumes
        ``crashed.device``."""
        device = crashed.device
        if scenario.nested_after is not None and not crashed.recovery_crashed:
            try:
                crashed_again = self._crash_inside_recovery(device, scenario)
            except (MediaError, PoolCorruptionError):
                # the first recovery hit the rot and degraded with a typed
                # error before the nested fail-point fired — detection, not
                # silence, so the scenario passes under "protected".
                # PoolCorruptionError covers self-validating metadata
                # (pool header, allocator tables) parsing the rot before
                # the post-open scrub could mark the line.
                device.cancel_scheduled_crash()
                if scenario.media == "protected":
                    return None
                raise
            if not crashed_again:
                return None

        violation = self._judge(
            device, crashed.workload, ledger, crashed.steps_done, scenario.media
        )
        if violation is None:
            return None
        return CheckFailure(scenario=scenario, violation=violation)

    def _crash_inside_recovery(self, device: NVMDevice, scenario: Scenario) -> bool:
        """Arm the nested fail-point and run recovery until it fires."""
        device.schedule_crash(
            scenario.nested_after, scenario.nested_policy, scenario.survival
        )
        try:
            self._recover(device)
        except DeviceCrashedError:
            return True
        device.cancel_scheduled_crash()
        return False

    def _recover(self, device: NVMDevice) -> None:
        """Reopen a crashed image and drain recovery's backup sync."""
        heap, _engine, _report = reopen_after_crash(device, self._engine_factory)
        heap.drain()

    def _judge(
        self,
        device: NVMDevice,
        workload: CheckWorkload,
        ledger: Ledger,
        steps_done: int,
        media_mode: str = "off",
    ) -> Optional[OracleViolation]:
        """Final (un-crashed) recovery + the full oracle battery.

        In media mode the contract is detect-or-repair: a typed
        :class:`MediaError` out of recovery or observation is an accepted
        degrade (the corruption was *caught*), silent disagreement with
        the ledger is the failure being hunted, and — under
        ``"protected"`` — so is any line left detectably bad after the
        post-recovery scrub.
        """
        try:
            heap, engine, _report = reopen_after_crash(device, self._engine_factory)
        except MediaError as exc:
            if media_mode != "off":
                return None  # typed detection — never served silently
            return OracleViolation(
                kind="recovery",
                message=f"recovery raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except PoolCorruptionError as exc:
            media = device.media
            if media_mode == "protected" and media is not None and media.faulty:
                # self-validating metadata (pool header, allocator
                # tables) caught the injected rot and refused to mount —
                # fail-stop detection, not silence
                return None
            return OracleViolation(
                kind="recovery",
                message=f"recovery raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except Exception as exc:  # recovery itself must never fail
            return OracleViolation(
                kind="recovery",
                message=f"recovery raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        try:
            observed = workload.observe(heap)
        except MediaError as exc:
            if media_mode != "off":
                return None  # typed degrade on read, not silent garbage
            return OracleViolation(
                kind="validator",
                message=f"recovered heap unreadable: {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except Exception as exc:
            return OracleViolation(
                kind="validator",
                message=f"recovered heap unreadable: {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        violation = check_against_ledger(ledger, observed, steps_done)
        if violation is not None:
            return violation
        try:
            workload.validate(heap)
            heap.drain()
            verify_backup_consistency(heap)
        except AssertionError as exc:
            return OracleViolation(
                kind="validator",
                message=str(exc) or "structure validator failed",
                steps_completed=steps_done,
                observed=observed,
            )
        except MediaError as exc:
            if media_mode != "off":
                return None  # typed degrade while validating — detected
            return OracleViolation(
                kind="validator",
                message=f"{type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        except RecoveryError as exc:
            return OracleViolation(
                kind="backup",
                message=str(exc),
                steps_completed=steps_done,
            )
        except Exception as exc:
            # rotted bytes that escape the typed-degrade net while the
            # validators walk them: a finding, not a crash of the checker
            return OracleViolation(
                kind="validator",
                message=f"validator raised {type(exc).__name__}: {exc}",
                steps_completed=steps_done,
            )
        media = device.media
        if media_mode == "protected" and media is not None:
            silent = [ln for ln in media.bad_lines() if ln not in media.lost]
            if silent:
                return OracleViolation(
                    kind="media",
                    message=(
                        "silent corruption survived recovery + scrub: "
                        f"lines {silent[:8]}"
                    ),
                    steps_completed=steps_done,
                )
        return None

    # -- the recovery pass (for nested sweeps) -------------------------------

    def _count_recovery_ops(self, device: NVMDevice) -> int:
        """Mutating operations recovery of the crashed ``device`` makes
        (consuming it)."""
        return count_mutating_ops(device, partial(self._recover, device))

    def _recovery_forks(self, image: NVMDevice, nested: Sequence[Scenario]) -> List[NVMDevice]:
        """One recovery of the crashed ``image`` (consuming it), paused at
        each scenario's ``nested_after`` (ascending) to fork the device —
        overlay included, reseeded with the scenario's device seed — and
        power-fail the fork under its nested policy: each fork is the
        image a crash scheduled there would leave.  The pass ends at the
        last point, the way :meth:`_forward` does; recovery was counted
        on a clone of ``image``, so it reaches every point."""
        forks: List[NVMDevice] = []

        def pause() -> None:
            scenario = nested[len(forks)]
            fork = image.clone_durable(seed=scenario.device_seed, overlay=True)
            fork.crash(scenario.nested_policy, scenario.survival)
            forks.append(fork)
            if len(forks) < len(nested):
                image.schedule_callback(
                    nested[len(forks)].nested_after - scenario.nested_after - 1, pause
                )
            else:
                image.crash()
                raise DeviceCrashedError("recovery pass: last nested point forked")

        image.schedule_callback(nested[0].nested_after, pause)
        try:
            self._recover(image)
        except DeviceCrashedError:
            return forks
        raise RuntimeError(
            f"recovery quiesced after {len(forks)} of {len(nested)} nested points"
        )

    # -- the sweep -----------------------------------------------------------

    def _sweep_slice(
        self,
        points: Sequence[int],
        ledger: Ledger,
        plan: _Plan,
        emit: Optional[Callable[[_Verdicts], None]] = None,
    ) -> List[_Verdicts]:
        """One unit of parallel work: one forward pass over a contiguous
        run of the sampled points, judging each point whose digest is new
        *within the slice* — only :meth:`explore`, folding the slices in
        point order, decides novelty across them.  Each point's verdicts
        go to ``emit`` as soon as it is judged (the serial sweep folds
        them there, so progress keeps pace with the pass), else they are
        returned in point order."""
        found: List[_Verdicts] = []
        emit = emit or found.append
        seen: Set[str] = set()

        def visit(point: _Point) -> None:
            verdicts = _Verdicts(point.crash_after, point.device.overlay_fingerprint())
            if verdicts.fingerprint not in seen:
                seen.add(verdicts.fingerprint)
                base = plan.base(point.crash_after)
                verdicts.base = self.replay(
                    base, ledger, self._crash(point, base, verdicts.fingerprint)
                )[0]
                verdicts.lotteries = [
                    self.replay(lottery, ledger, self._crash(point, lottery))[0]
                    for lottery in plan.lotteries(base)
                ]
                if plan.nested:
                    verdicts.nested = self._nested_family(
                        point, base, ledger, plan.max_nested_points
                    )
            emit(verdicts)

        self._forward(plan.template, points, visit)
        return found

    def _nested_family(
        self,
        point: _Point,
        base: Scenario,
        ledger: Ledger,
        max_nested_points: Optional[int],
    ) -> List[Optional[CheckFailure]]:
        """Every crash-during-recovery scenario nested under ``base``; one
        verdict each.  ``base`` is crashed once more; recovery's mutating
        ops are counted on a clone of that image, then one recovery pass
        over the image forks every sampled nested point, all seeded from
        ``base``.  The forks are judged after the pass returns, so
        recovery spans never nest."""
        crashed = self._crash(point, base)
        try:
            n_recovery_ops = self._count_recovery_ops(
                crashed.device.clone_durable(seed=base.device_seed)
            )
        except Exception:
            # recovery on this image raises before quiescing, typed
            # degrade or not: there is no op timeline to nest crashes
            # into, and the base point's own judgment reports that
            # recovery
            return []
        nested = [
            replace(base, nested_after=q)
            for q in sample_points(0, n_recovery_ops - 1, max_nested_points)
        ]
        if not nested:
            return []
        forks = self._recovery_forks(crashed.device, nested)
        return [
            self.replay(
                scenario, ledger, replace(crashed, device=fork, recovery_crashed=True)
            )[0]
            for scenario, fork in zip(nested, forks)
        ]

    def explore(
        self,
        max_points: Optional[int] = None,
        random_samples: int = 1,
        survival: float = 0.5,
        nested: bool = True,
        max_nested_points: Optional[int] = 4,
        progress: Optional[Callable[[str], None]] = None,
        media: str = "off",
        corrupt_lines: int = 2,
        tree: bool = False,
        stale_lines: int = 0,
        workers: int = 0,
    ) -> ExplorationReport:
        """Sweep crash points; returns the coverage + failure report.

        Args:
            max_points: cap on outer crash points (evenly sampled when
                the workload has more); ``None`` = exhaustive.
            random_samples: RANDOM-policy lotteries per novel state
                (0 disables torn-write sampling).
            nested: also crash inside recovery at every novel state.
            max_nested_points: cap on nested points per outer state.
            media: ``"protected"``/``"unprotected"`` additionally rots
                ``corrupt_lines`` seeded durable bits (heap + backup)
                between each crash and its recovery; the oracle becomes
                detect-or-repair, never silent corruption.
            corrupt_lines: bit flips injected per scenario in media mode.
            tree: maintain the persistent integrity tree
                (``media="protected"`` only).
            stale_lines: adversarial consistent corruption — replay this
                many changed live lines (plus backup partners) with
                setup-time bytes and forged matching CRCs between each
                crash and its recovery.  Checksum-only protection
                verifies the replay clean; only a tree catches it.
            workers: fan the sweep over this many processes (0/1 =
                serial).  The unit of work is a contiguous slice of the
                sampled points — one forward pass each; serial is the
                one-slice case.  Slices judge every point novel within
                themselves and the fold drops a point an earlier slice
                already saw, so the report is byte-identical for any
                worker count; only wall-clock changes.  Explorers built
                from closures (custom factories) cannot cross a process
                boundary and always sweep serially.

        Failures are reported base points first, then lotteries, then
        nested scenarios, each in point order.
        """
        report = ExplorationReport(engine=self.engine_name, workload=self.workload_name)
        report.n_ops = self.count_ops()
        ledger = self.golden_ledger()
        plan = _Plan(
            template=Scenario(
                engine=self.engine_name,
                workload=self.workload_name,
                device_seed=self.device_seed,
                media=media,
                corrupt_lines=corrupt_lines if media != "off" else 0,
                tree=tree and media == "protected",
                stale_lines=stale_lines if media != "off" else 0,
            ),
            random_samples=random_samples,
            survival=survival,
            nested=nested,
            max_nested_points=max_nested_points,
        )
        # crash_after=p fires just before mutating op p+1, so p ranges over
        # 0 (nothing of the steps durable yet) .. n_ops-1 (all but the
        # final operation done)
        points = sample_points(0, report.n_ops - 1, max_points)
        seen: Set[str] = set()
        lottery_failures: List[CheckFailure] = []
        nested_failures: List[CheckFailure] = []

        def fold(verdicts: _Verdicts) -> None:
            if progress is not None:
                progress(
                    f"{self.engine_name}/{self.workload_name}: "
                    f"point {verdicts.crash_after}/{report.n_ops}"
                )
            if verdicts.fingerprint in seen:
                # same durable bytes + same dirty overlay as an earlier
                # point: every policy resolves it identically
                report.states_pruned += 1
                return
            seen.add(verdicts.fingerprint)
            report.states_explored += 1 + len(verdicts.lotteries)
            report.nested_explored += len(verdicts.nested)
            if verdicts.base is not None:
                report.failures.append(verdicts.base)
            lottery_failures.extend(f for f in verdicts.lotteries if f is not None)
            nested_failures.extend(f for f in verdicts.nested if f is not None)

        workers = resolve_workers(workers) if self._portable else 0
        if workers <= 1:
            self._sweep_slice(points, ledger, plan, emit=fold)
        else:
            job = partial(self._sweep_slice, ledger=ledger, plan=plan)
            for found in fan_out_iter(job, contiguous_slices(points, workers), workers):
                for verdicts in found:
                    fold(verdicts)
        report.failures += lottery_failures + nested_failures
        return report


def replay_scenario(
    scenario: Scenario,
    workload_factory: Optional[Callable[[], CheckWorkload]] = None,
    engine_factory: Optional[Callable[[], Any]] = None,
) -> Optional[CheckFailure]:
    """Replay one scenario — the repro-snippet entry point, and the
    same forward pass and fork the sweep judged it with."""
    explorer = CrashExplorer(
        scenario.engine,
        workload=scenario.workload,
        workload_factory=workload_factory,
        engine_factory=engine_factory,
        device_seed=scenario.device_seed,
    )
    failure, _fingerprint = explorer.replay(scenario)
    return failure


def sweep_registry(
    workloads: Sequence[str] = ("pairs",),
    engines: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
    workers: int = 0,
    **explore_kwargs: Any,
) -> List[ExplorationReport]:
    """Run the explorer over every standalone-recoverable registered engine.

    Engines declaring ``needs_chain_repair`` (the in-place chain replica)
    cannot recover alone and are swept by
    :class:`repro.check.chain.ChainCrashExplorer` instead; deliberately
    unsafe baselines (``recoverable=False``) are skipped.  ``workers``
    fans each explorer's sweep slices over a process pool; the reports
    are byte-identical for any worker count.
    """
    for name in engines or ():
        engine_info(name)  # an unknown name would sweep nothing and pass vacuously
    reports: List[ExplorationReport] = []
    for name, info in registered_engines().items():
        if engines is not None and name not in engines:
            continue
        caps = info.capabilities
        if not caps.recoverable or caps.needs_chain_repair:
            continue
        for workload in workloads:
            explorer = CrashExplorer(name, workload=workload)
            reports.append(
                explorer.explore(progress=progress, workers=workers, **explore_kwargs)
            )
    return reports
