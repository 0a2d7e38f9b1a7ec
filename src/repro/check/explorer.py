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
3. For every crash point (or an evenly-spaced sample in quick mode),
   **replay** the workload with the fail-point armed and let the power
   failure fire (*run-to-crash*), then recover with
   :func:`~repro.tx.recovery.reopen_after_crash` and judge the recovered
   heap with the ledger oracle, the workload's structure validators, and
   (for backup engines) main/backup agreement (*finish*).
4. **Prune** redundant states: at a base point (``DROP_ALL``, no nested
   crash) the device records a digest of the pre-resolution crash image
   (durable bytes + dirty-line overlay) at crash time; two points with
   equal digests behave identically under every crash policy, so only
   the first is explored.  Points separated only by reads, or by a fence
   that persisted nothing new, collapse.  No other crash is digested —
   nothing reads it.
5. **Nest**: for each novel crash state, re-crash at every mutating
   operation *of recovery itself* (and its post-recovery sync drain),
   then recover again — recovery must be idempotent under its own power
   failures (paper §3: "both directions are idempotent").  The state is
   run to its crash *once*; counting recovery's operations and every
   nested point each *fork* that image (:meth:`NVMDevice.clone_durable`
   copies the pages the run wrote, not the pool) and go straight to
   *finish*, which is the same code a from-scratch replay of that
   scenario runs.

RANDOM-policy sampling replays surviving-word lotteries with distinct
device seeds, covering torn writes beyond the all-or-nothing policies.

**Media-corruption mode** (``Scenario.media`` + ``corrupt_lines``)
additionally rots the durable image *between the crash and recovery*:
seeded bit flips land in the heap and backup-mirror bytes while the
machine is "off", exactly when no code can observe them happening.  The
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
demonstrably serve stale state (the must-fail leg); with
``tree="streamed"``/``"eager"`` the persistent integrity tree's root
still disputes the replayed lines, and the same detect-or-repair oracle
passes: root-verified repair from a surviving copy, or a typed degrade.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import (
    DeviceCrashedError,
    MediaError,
    PoolCorruptionError,
    RecoveryError,
)
from ..nvm.device import CrashPolicy, NVMDevice
from ..nvm.latency import CACHE_LINE
from ..runtime.registry import EngineInfo, engine_info, registered_engines
from ..tx.recovery import reopen_after_crash, verify_backup_consistency
from .oracle import Ledger, OracleViolation, check_against_ledger
from .workload import CANNED_WORKLOADS, CheckWorkload, build_stack

#: fail-point budget no sane canned workload exhausts
OP_BUDGET = 1_000_000

#: the "fingerprint" of a replay whose fail-point fired but whose crash
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
    #: "off" | "streamed" | "eager" — maintain the persistent integrity
    #: tree (requires media="protected")
    tree: str = "off"
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
            if self.tree != "off":
                parts.append(f"tree={self.tree}")
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
    """A workload run up to its fail-point — everything the rest of a
    replay (recovery and judgment) needs.

    ``device`` is crashed, with the scenario's media rot already in it;
    ``workload`` holds the handles setup recorded; ``steps_done`` is how
    many steps had returned.  Recovery is destructive, so each replay
    needs the image to itself: :meth:`fork` clones the durable media
    (the workload object is shared — it re-opens its structures on
    whichever heap it is shown).
    """

    device: NVMDevice
    workload: CheckWorkload
    steps_done: int
    fingerprint: str

    def fork(self, seed: int) -> "_Crashed":
        return replace(self, device=self.device.clone_durable(seed=seed))


def _sample_points(lo: int, hi: int, limit: Optional[int]) -> List[int]:
    """All integers lo..hi, or an evenly spaced sample hitting both ends."""
    n = hi - lo + 1
    if n <= 0:
        return []
    if limit is None or n <= limit:
        return list(range(lo, hi + 1))
    if limit == 1:
        return [lo]
    step = (n - 1) / (limit - 1)
    return sorted({lo + round(i * step) for i in range(limit)})


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
        # a worker process can only rebuild this explorer from names; a
        # custom (closure) factory keeps the sweep in-process
        self._portable = engine_factory is None and workload in CANNED_WORKLOADS and (
            workload_factory is CANNED_WORKLOADS.get(workload)
        )

    # -- replay primitives ---------------------------------------------------

    def _fresh(
        self, seed: int, media: str = "off", tree: str = "off"
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
        vouched for), covering the live main lines and their
        backup-mirror partners."""
        media = device.media
        if media is None or scenario.stale_lines <= 0:
            return None
        region = heap.region
        live = heap.allocator.live_ranges()
        spans = [(region.offset + off, size) for off, size in live]
        images = media.snapshot_lines(spans)
        main_lines = sorted(images)
        partner: Dict[int, int] = {}
        backup = region.pool.regions.get("backup")
        if backup is not None and backup.size >= region.size:
            images.update(
                media.snapshot_lines(
                    [(backup.offset + off, size) for off, size in live]
                )
            )
            for line in main_lines:
                rel = (line << _LINE_SHIFT) - region.offset
                partner[line] = (backup.offset + rel) >> _LINE_SHIFT
        return {"images": images, "main": main_lines, "partner": partner}

    @staticmethod
    def _inject_stale(device: NVMDevice, scenario: Scenario, snap) -> None:
        """Replay stale-but-consistent line images into the crashed
        durable state: seeded live main lines that changed since setup
        get their setup-time bytes back *with the matching stale CRC
        forged in the sidecar*, and so do their backup partners — a
        consistent multi-line replay that per-line checksums verify
        clean.  Only the integrity tree still disputes it."""
        media = device.media
        if media is None or snap is None or scenario.stale_lines <= 0:
            return
        durable = device._durable
        images = snap["images"]
        changed = []
        for line in snap["main"]:
            base = line << _LINE_SHIFT
            if bytes(durable[base : base + CACHE_LINE]) != images[line]:
                changed.append(line)
        if not changed:
            return
        rng = random.Random(scenario.corrupt_seed ^ 0x5A1E)
        chosen = sorted(rng.sample(changed, min(scenario.stale_lines, len(changed))))
        targets = list(chosen)
        partner = snap["partner"]
        for line in chosen:
            p = partner.get(line)
            if p is not None and p in images:
                targets.append(p)
        media.replay_stale(images, targets)

    @staticmethod
    def _inject_corruption(device: NVMDevice, heap: Any, scenario: Scenario) -> None:
        """Rot the crashed durable image: seeded bit flips into the heap
        and its backup mirror, while the machine is "off"."""
        media = device.media
        if media is None or scenario.corrupt_lines <= 0:
            return
        # target the *live* allocations (and their backup-mirror image) —
        # rot in free space is unobservable and proves nothing
        region = heap.region
        live = heap.allocator.live_ranges()
        spans = [(region.offset + off, size) for off, size in live]
        backup = region.pool.regions.get("backup")
        if backup is not None and backup.size >= region.size:
            spans += [(backup.offset + off, size) for off, size in live]
        if not spans:
            spans = [(region.offset, region.size)]
        media.inject_flips(
            scenario.corrupt_lines,
            ranges=spans,
            rng=random.Random(scenario.corrupt_seed),
        )

    def count_ops(self) -> int:
        """Mutating device operations between end-of-setup and quiescence."""
        heap, _engine, device, workload = self._fresh(self.device_seed)
        device.schedule_crash(OP_BUDGET, CrashPolicy.DROP_ALL)
        for i in range(workload.n_steps):
            workload.step(heap, i)
        heap.drain()
        remaining = device.scheduled_crash_remaining()
        device.cancel_scheduled_crash()
        if remaining is None:
            raise RuntimeError("workload exceeded the fail-point budget")
        return OP_BUDGET - remaining

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

    # -- one scenario --------------------------------------------------------

    def replay(
        self,
        scenario: Scenario,
        ledger: Optional[Ledger] = None,
        crashed: Optional["_Crashed"] = None,
    ) -> Tuple[Optional[CheckFailure], Optional[str]]:
        """Run one scenario; returns (failure-or-None, crash fingerprint).

        A ``None`` fingerprint means the fail-point never fired (the
        point lies beyond the workload), in which case nothing was
        checked.  Only a *base point* (``DROP_ALL``, no nested crash)
        carries a digest — it is the one the sweep prunes on; any other
        scenario that fired reports :data:`NOT_DIGESTED`.

        A replay is :meth:`_run_to_crash` then :meth:`_finish`.  The
        sweep hands nested scenarios the crashed image their base
        already produced (``crashed``, a private fork of it) instead of
        having each re-run the prefix; what runs from there is the same
        :meth:`_finish` either way.
        """
        if ledger is None:
            ledger = self.golden_ledger()
        if crashed is None:
            crashed = self._run_to_crash(
                scenario,
                digest=scenario.policy is CrashPolicy.DROP_ALL
                and scenario.nested_after is None,
            )
            if crashed is None:
                return None, None
        return self._finish(scenario, crashed, ledger), crashed.fingerprint

    def _run_to_crash(self, scenario: Scenario, digest: bool) -> Optional["_Crashed"]:
        """Build the stack, run setup and the steps until the scenario's
        fail-point fires, then rot the crashed image as the scenario
        asks.  ``None`` when the workload finishes first.  ``digest``
        records the pre-resolution crash fingerprint (base points only:
        nobody reads it anywhere else)."""
        heap, _engine, device, workload = self._fresh(
            scenario.device_seed, media=scenario.media, tree=scenario.tree
        )
        snap = self._stale_snapshot(device, heap, scenario)
        device.fingerprint_crashes = digest
        device.schedule_crash(
            scenario.crash_after, scenario.policy, scenario.survival
        )
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
        # a crash inside recovery is never a pruning key
        device.fingerprint_crashes = False
        self._inject_corruption(device, heap, scenario)
        self._inject_stale(device, scenario, snap)
        return _Crashed(
            device, workload, steps_done, device.last_crash_fingerprint or NOT_DIGESTED
        )

    def _finish(
        self, scenario: Scenario, crashed: "_Crashed", ledger: Ledger
    ) -> Optional[CheckFailure]:
        """From a crashed image to a verdict: the optional crash inside
        recovery, the final recovery, the oracles.  Consumes
        ``crashed.device``."""
        device = crashed.device
        if scenario.nested_after is not None:
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
            heap, _engine, _report = reopen_after_crash(device, self._engine_factory)
            heap.drain()
        except DeviceCrashedError:
            return True
        device.cancel_scheduled_crash()
        return False

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
            media = getattr(device, "media", None)
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

    # -- recovery op counting (for nested sweeps) ----------------------------

    def _count_recovery_ops(self, image: NVMDevice) -> int:
        device = image.clone_durable(seed=self.device_seed)
        device.schedule_crash(OP_BUDGET, CrashPolicy.DROP_ALL)
        heap, _engine, _report = reopen_after_crash(device, self._engine_factory)
        heap.drain()
        remaining = device.scheduled_crash_remaining()
        device.cancel_scheduled_crash()
        if remaining is None:
            raise RuntimeError("recovery exceeded the fail-point budget")
        return OP_BUDGET - remaining

    # -- the sweep -----------------------------------------------------------

    def _fan_out(
        self,
        serial: Callable[..., Any],
        job_fn: Callable[[Tuple], Any],
        jobs: Sequence[Tuple],
        workers: int,
    ) -> Iterator[Any]:
        """``serial(*job)`` for every job — lazily, in job order,
        optionally on a process pool (``job_fn`` is ``serial``'s
        module-level, picklable twin).

        Results arrive in job order either way (see
        :mod:`repro.parallel`), so the caller's fold — pruning, counter
        updates, failure collection — is byte-identical for any worker
        count, and one at a time, so the fold (and ``progress``) keeps
        pace with the sweep.  Explorers built from closures (custom
        factories) cannot cross a process boundary and fall back to the
        serial loop.
        """
        if workers and workers != 1 and len(jobs) > 1 and self._portable:
            from ..parallel import fan_out_iter

            return fan_out_iter(job_fn, jobs, workers)
        return (serial(*job) for job in jobs)

    def _replay_many(
        self,
        scenarios: Sequence[Scenario],
        ledger: Ledger,
        workers: int,
    ) -> Iterator[Tuple[Optional[CheckFailure], Optional[str]]]:
        """Replay a batch of scenarios from scratch, one result each."""
        return self._fan_out(
            self.replay, _replay_job, [(s, ledger) for s in scenarios], workers
        )

    def _replay_nested(
        self,
        base: Scenario,
        ledger: Ledger,
        max_nested_points: Optional[int],
    ) -> List[Optional[CheckFailure]]:
        """Every crash-during-recovery scenario nested under ``base``,
        replayed from *one* run of the prefix; one verdict each.

        Runs ``base`` to its crash once, counts recovery's mutating ops
        on a clone of that image, and hands each sampled nested point
        its own fork.  One call is one unit of parallel work: the image
        is built where its nested points run.
        """
        crashed = self._run_to_crash(base, digest=False)
        if crashed is None:
            return []
        try:
            n_recovery_ops = self._count_recovery_ops(crashed.device)
        except (MediaError, PoolCorruptionError):
            # recovery on this image degrades with a typed error before
            # quiescing; there is no op timeline to nest crashes into
            return []
        return [
            self.replay(
                replace(base, nested_after=q), ledger, crashed.fork(base.device_seed)
            )[0]
            for q in _sample_points(0, n_recovery_ops - 1, max_nested_points)
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
        tree: str = "off",
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
            tree: ``"streamed"``/``"eager"`` maintains the persistent
                integrity tree (``media="protected"`` only).
            stale_lines: adversarial consistent corruption — replay this
                many changed live lines (plus backup partners) with
                setup-time bytes and forged matching CRCs between each
                crash and its recovery.  Checksum-only protection
                verifies the replay clean; only a tree catches it.
            workers: fan the sweep over this many processes (0/1 =
                serial).  A unit of work — a base point, a lottery, or a
                novel state's whole nested family — builds its own
                stack, so the report is byte-identical for any worker
                count; only wall-clock changes.

        The sweep runs in three deterministic phases — base points,
        RANDOM lotteries for the novel states, nested recovery crashes —
        so the batches are wide enough to fan out.  Every phase folds
        its ordered results, as they arrive, the same way serial
        exploration would.
        """
        report = ExplorationReport(engine=self.engine_name, workload=self.workload_name)
        report.n_ops = self.count_ops()
        ledger = self.golden_ledger()
        # crash_after=p fires just before mutating op p+1, so p ranges over
        # 0 (nothing of the steps durable yet) .. n_ops-1 (all but the
        # final operation done)
        bases = [
            Scenario(
                engine=self.engine_name,
                workload=self.workload_name,
                crash_after=point,
                policy=CrashPolicy.DROP_ALL,
                device_seed=self.device_seed,
                media=media,
                corrupt_lines=corrupt_lines if media != "off" else 0,
                corrupt_seed=self.device_seed * 1000 + point,
                tree=tree if media == "protected" else "off",
                stale_lines=stale_lines if media != "off" else 0,
            )
            for point in _sample_points(0, report.n_ops - 1, max_points)
        ]
        seen: Dict[str, int] = {}
        novel: List[Scenario] = []
        for base, (failure, fingerprint) in zip(
            bases, self._replay_many(bases, ledger, workers)
        ):
            if progress is not None:
                progress(
                    f"{self.engine_name}/{self.workload_name}: "
                    f"point {base.crash_after}/{report.n_ops}"
                )
            if fingerprint is None:
                continue
            if fingerprint in seen:
                # same durable bytes + same dirty overlay as an earlier
                # point: every policy resolves it identically
                report.states_pruned += 1
                continue
            seen[fingerprint] = base.crash_after
            report.states_explored += 1
            if failure is not None:
                report.failures.append(failure)
            novel.append(base)
        lotteries = [
            replace(
                base,
                policy=CrashPolicy.RANDOM,
                survival=survival,
                device_seed=self.device_seed + 1 + sample,
            )
            for base in novel
            for sample in range(random_samples)
        ]
        for failure, fired in self._replay_many(lotteries, ledger, workers):
            if fired is not None:
                report.states_explored += 1
                if failure is not None:
                    report.failures.append(failure)
        if nested:
            families = self._fan_out(
                self._replay_nested,
                _nested_job,
                [(base, ledger, max_nested_points) for base in novel],
                workers,
            )
            for family in families:
                report.nested_explored += len(family)
                report.failures.extend(f for f in family if f is not None)
        return report


def _worker_explorer(scenario: Scenario) -> CrashExplorer:
    """The explorer a worker process runs ``scenario`` on, rebuilt from
    the scenario's registry names (engine, workload) — the same "restart
    with the same binary" the recovery path already relies on."""
    return CrashExplorer(
        scenario.engine,
        workload=scenario.workload,
        device_seed=scenario.device_seed,
    )


def _replay_job(
    job: Tuple[Scenario, Ledger]
) -> Tuple[Optional[CheckFailure], Optional[str]]:
    """:meth:`CrashExplorer.replay` in a worker (module-level: pickles)."""
    scenario, ledger = job
    return _worker_explorer(scenario).replay(scenario, ledger)


def _nested_job(
    job: Tuple[Scenario, Ledger, Optional[int]]
) -> List[Optional[CheckFailure]]:
    """:meth:`CrashExplorer._replay_nested` in a worker."""
    base, ledger, max_nested_points = job
    return _worker_explorer(base)._replay_nested(base, ledger, max_nested_points)


def replay_scenario(
    scenario: Scenario,
    workload_factory: Optional[Callable[[], CheckWorkload]] = None,
    engine_factory: Optional[Callable[[], Any]] = None,
) -> Optional[CheckFailure]:
    """Re-run one scenario from scratch — the repro-snippet entry point."""
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
    fans each explorer's scenario replays over a process pool; the
    reports are byte-identical for any worker count.
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
