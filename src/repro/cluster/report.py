"""The typed report an online shard migration produces.

Kept dependency-free (dataclasses only) so the package root can
re-export it without dragging the simulator in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class MigrationReport:
    """What one online shard migration did, phase by phase.

    ``resumed`` is True when the migration was reconstructed from the
    placement service's durable cursor after a coordinator crash; the
    pre-cursor prefix is then re-verified conservatively (the volatile
    dirty-key set died with the coordinator).
    """

    shard: int
    src_group: int
    dst_group: int
    #: keys moved by the bulk copy (cursor-ordered, chunked)
    copied_keys: int = 0
    #: keys whose source/destination bytes already matched (value-diff)
    skipped_keys: int = 0
    #: keys re-copied by catch-up rounds (dirtied under traffic)
    catchup_keys: int = 0
    #: client writes parked during the hand-off window and replayed
    #: into the destination at the flip, in FIFO order
    parked_ops: int = 0
    #: durable cursor advances logged at the placement service
    cursor_advances: int = 0
    #: copy attempts that came back with a typed error and were retried
    retries: int = 0
    #: keys deleted from the source group after the flip
    purged_keys: int = 0
    resumed: bool = False
    aborted: bool = False
    started_at_ns: float = 0.0
    finished_at_ns: Optional[float] = None
    #: terminal phase: "done" or "aborted"
    phase: str = "copy"

    @property
    def duration_ns(self) -> Optional[float]:
        if self.finished_at_ns is None:
            return None
        return self.finished_at_ns - self.started_at_ns

    def to_dict(self) -> dict:
        return {
            "shard": self.shard,
            "src_group": self.src_group,
            "dst_group": self.dst_group,
            "copied_keys": self.copied_keys,
            "skipped_keys": self.skipped_keys,
            "catchup_keys": self.catchup_keys,
            "parked_ops": self.parked_ops,
            "cursor_advances": self.cursor_advances,
            "retries": self.retries,
            "purged_keys": self.purged_keys,
            "resumed": self.resumed,
            "aborted": self.aborted,
            "phase": self.phase,
        }

    def describe(self) -> str:
        tag = "resumed " if self.resumed else ""
        return (
            f"{tag}migration shard {self.shard}: g{self.src_group} -> "
            f"g{self.dst_group} [{self.phase}] copied={self.copied_keys} "
            f"catchup={self.catchup_keys} parked={self.parked_ops}"
        )
