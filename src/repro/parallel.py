"""Process-parallel fan-out with deterministic merge.

Every sweep in this repo — crash points, chain and migration
scenarios, nemesis seeds — is a bag of *independent* jobs: each one
builds its own simulated stack from picklable parameters, runs it, and
returns a picklable result.  :func:`fan_out` runs such a bag over a
``multiprocessing.Pool`` and returns the results **in job order**
(:func:`fan_out_iter` yields them one by one, as they complete in that
order), so a parallel sweep merges exactly like the serial one: the
caller folds the ordered results and gets byte-identical reports for 1
or N workers (the invariance the worker-count tests pin).

Rules the call sites follow:

* the job function must be **module-level** (picklable) and must not
  touch global mutable state — all inputs travel in the job tuple;
* results are merged by walking them in job order, never by completion
  order (ordered ``Pool.imap``, not ``imap_unordered``);
* ``workers <= 1`` short-circuits to a plain in-process loop — the
  same code path the merge logic is tested against.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


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

