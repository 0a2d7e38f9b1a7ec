"""Typed messages of the chain protocols (§5.1).

All chain traffic is view-stamped: replicas reject messages from an
older view, which is what makes chain repair safe ("All messages carry
a viewID and replicas reject messages with an older viewID", §5.3).

Every message may be retransmitted: the network drops, duplicates, and
reorders under fault injection, so the protocol relies on sequence
numbers (``seq``, filtered by each replica's ``applied_seq``) and the
head's ``(client_id, request_id)`` dedup table rather than on exactly-
once delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple


def wire_size(msg: Any) -> int:
    """Approximate on-the-wire payload bytes, for the replicas' durable
    input-queue accounting (header + per-argument cost)."""
    args = getattr(msg, "args", ())
    return 64 + 8 * len(args)


@dataclass(frozen=True)
class TxForward:
    """Replica → successor: the named-procedure RPC of §5.1."""

    view_id: int
    seq: int
    proc: str
    args: Tuple[Any, ...]


@dataclass(frozen=True)
class TailAck:
    """Tail → head: transaction ``seq`` committed chain-wide."""

    view_id: int
    seq: int


@dataclass(frozen=True)
class CleanupAck:
    """Tail → ... → head: drop in-flight state for ``seq``."""

    view_id: int
    seq: int
