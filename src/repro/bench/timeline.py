"""Transaction timelines: regenerating Figures 2, 5 and 6 as output.

The paper's mechanism figures are timelines — *when* each scheme copies,
edits, flushes, commits, and unlocks.  The engines emit named phase
events (``engine.phase_hook``); :class:`TimelineRecorder` timestamps
each with the device's simulated nanoseconds, and :func:`render_timeline`
draws the result as an ASCII Gantt chart whose commit point is marked,
making the "copying moved off the critical path" claim visible directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..nvm.device import NVMDevice


@dataclass
class PhaseSpan:
    """One protocol phase: ``[start_ns, end_ns)`` in simulated time."""

    name: str
    start_ns: float
    end_ns: float

    @property
    def duration_ns(self) -> float:
        return self.end_ns - self.start_ns


class TimelineRecorder:
    """Captures an engine's phase events against simulated device time.

    Use as a context manager around exactly one transaction (plus its
    deferred sync, for Kamino)::

        with TimelineRecorder(device, engine) as rec:
            ... one transaction ...
            engine.sync_pending()
        spans = rec.spans
    """

    def __init__(self, device: NVMDevice, engine):
        self.device = device
        self.engine = engine
        self.model = device.model
        self.spans: List[PhaseSpan] = []
        self.commit_ns: Optional[float] = None
        self._t0 = 0.0
        self._last = 0.0

    def _now(self) -> float:
        return self.device.stats.simulated_ns(self.model) - self._t0

    def _on_phase(self, name: str) -> None:
        now = self._now()
        self.spans.append(PhaseSpan(name, self._last, now))
        # commit points: kamino/CoW write an explicit commit record;
        # undo's commit is the durable discard of its log (delete_copy)
        if name in ("commit_record", "delete_copy") and self.commit_ns is None:
            self.commit_ns = now
        self._last = now

    def __enter__(self) -> "TimelineRecorder":
        self._t0 = self.device.stats.simulated_ns(self.model)
        self._last = 0.0
        self.engine.phase_hook = self._on_phase
        return self

    def __exit__(self, *_exc) -> None:
        self.engine.phase_hook = None

    @property
    def total_ns(self) -> float:
        return self.spans[-1].end_ns if self.spans else 0.0


def record_one_update(ctx, key: int, payload: bytes) -> TimelineRecorder:
    """Run one KV update under a recorder, draining the sync inside it."""
    recorder = TimelineRecorder(ctx.device, ctx.engine)
    with recorder:
        ctx.kv.put(key, payload)
        ctx.engine.sync_pending()
    return recorder


def render_timeline(
    label: str,
    recorder: TimelineRecorder,
    width: int = 64,
    scale_ns: Optional[float] = None,
) -> str:
    """ASCII Gantt: one row per phase, a ``|`` at the commit point.

    Pass a common ``scale_ns`` to compare engines on the same axis
    (Figure 5 places the three schemes side by side).
    """
    spans = [s for s in recorder.spans if s.duration_ns > 0]
    if not spans:
        return f"{label}: (no phases recorded)"
    scale = scale_ns or recorder.total_ns
    name_w = max(len(s.name) for s in spans)
    lines = [f"{label}  (total {recorder.total_ns / 1e3:.2f} us"
             + (f", commit at {recorder.commit_ns / 1e3:.2f} us)" if recorder.commit_ns else ")")]
    for span in spans:
        start = int(span.start_ns / scale * width)
        length = max(1, int(span.duration_ns / scale * width))
        row = " " * start + "#" * length
        row = row[:width].ljust(width)
        if recorder.commit_ns is not None:
            cpos = min(width - 1, int(recorder.commit_ns / scale * width))
            if row[cpos] == " ":
                row = row[:cpos] + "|" + row[cpos + 1:]
        lines.append(f"  {span.name:<{name_w}} [{row}] {span.duration_ns / 1e3:6.2f} us")
    return "\n".join(lines)


def critical_path_ns(recorder: TimelineRecorder) -> float:
    """Simulated time until the commit point (what the client waits for)."""
    return recorder.commit_ns if recorder.commit_ns is not None else recorder.total_ns
