"""The sweep loop every crash explorer shares: sample, count, fan out.

Every sweep in this repo — crash points, chain and migration
scenarios, serve frame-log crashes, nemesis seeds — is a bag of
*independent* jobs: each one builds its own simulated stack from
picklable parameters, runs it, and returns a picklable result.  This
leaf module holds the three pieces of that loop, written once:

* :func:`sample_points` — which crash points (or event boundaries) a
  sweep visits under a budget, and :func:`contiguous_slices` — how a
  sweep whose unit of work is a pass over consecutive points cuts them
  into jobs;
* :func:`count_mutating_ops` — how many mutating device operations a
  run performs, the timeline a fail-point is armed on;
* :func:`fan_out_iter` / :func:`fan_out` — run the jobs over a
  ``multiprocessing.Pool`` and return the results **in job order**, so
  a parallel sweep merges exactly like the serial one: the caller folds
  the ordered results and gets byte-identical reports for 1 or N
  workers (the invariance the worker-count tests pin).

:class:`SweepFailure` is the verdict the chain, migration and serve
sweeps return for a scenario their oracles reject.

Rules the call sites follow:

* the job function is a **bound method of the explorer** (or a
  ``functools.partial`` of one): the explorer pickles with everything
  a replay needs, so a worker runs the same method on an equal copy.
  A sweep with no explorer object (the nemesis corpus) fans out bound
  calls through :func:`call`.  A replay must not touch global mutable
  state;
* results are merged by walking them in job order, never by completion
  order (ordered ``Pool.imap``, not ``imap_unordered``);
* ``workers <= 1`` short-circuits to a plain in-process loop — the
  same code path the merge logic is tested against.

It imports nothing from the rest of the package, so every explorer can
import it — including :mod:`repro.serve.explorer`, which
:mod:`repro.check` itself imports and therefore cannot import back.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: fail-point budget no sane swept run exhausts
OP_BUDGET = 1_000_000


def sample_points(lo: int, hi: int, limit: Optional[int]) -> List[int]:
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


def contiguous_slices(items: Sequence[T], n: int) -> List[List[T]]:
    """``items`` cut into ``min(n, len(items))`` runs of near-equal
    length, in order — the jobs of a sweep whose unit of work is one
    pass over consecutive points."""
    n = max(1, min(n, len(items)))
    return [list(items[i * len(items) // n : (i + 1) * len(items) // n]) for i in range(n)]


def count_mutating_ops(device: Any, run: Callable[[], Any]) -> int:
    """Mutating operations ``device`` performs while ``run()`` executes.

    Arms an unreachably large fail-point budget, runs, and reads back
    how much of it ticked away
    (:meth:`~repro.nvm.device.NVMDevice.scheduled_crash_remaining`).
    """
    device.schedule_crash(OP_BUDGET)
    run()
    remaining = device.scheduled_crash_remaining()
    device.cancel_scheduled_crash()
    if remaining is None:
        raise RuntimeError("run exceeded the fail-point budget")
    return OP_BUDGET - remaining


@dataclass
class SweepFailure:
    """A swept scenario and every problem its oracles found."""

    scenario: Any
    problems: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.scenario.describe()}: " + "; ".join(self.problems)


def cpu_count() -> int:
    """Usable CPUs (what ``workers="auto"`` resolves to)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-linux
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker-count knob: ``None``/``"auto"``/negative →
    one process per usable CPU; 0/1 → serial."""
    if workers is None or workers < 0:
        return cpu_count()
    return workers


def fan_out_iter(
    fn: Callable[[T], R],
    jobs: Sequence[T],
    workers: int = 0,
) -> Iterator[R]:
    """Run ``fn`` over ``jobs``, optionally on a process pool, yielding
    each result as soon as it *and every earlier one* is done.

    Results come in job order regardless of completion order, so the
    caller's merge is deterministic — and incremental: a fold that
    reports progress does so while the sweep runs, not after it.
    ``workers <= 1`` (or a single job) runs serially in-process —
    bit-identical results, no pool.
    """
    jobs = list(jobs)
    workers = resolve_workers(workers)
    if workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            yield fn(job)
        return
    with multiprocessing.Pool(min(workers, len(jobs))) as pool:
        yield from pool.imap(fn, jobs)


def fan_out(
    fn: Callable[[T], R],
    jobs: Sequence[T],
    workers: int = 0,
) -> List[R]:
    """:func:`fan_out_iter`, materialised: the ordered result list."""
    return list(fan_out_iter(fn, jobs, workers))


def call(thunk: Callable[[], R]) -> R:
    """``thunk()``: the ``fn`` of a fan-out whose jobs are already bound
    calls (``functools.partial`` objects of a module-level function)."""
    return thunk()
