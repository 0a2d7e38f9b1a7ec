"""Simulated message-passing network for the replication layer.

Point-to-point links with configurable one-way latency (the ``ln`` of
Table 1), FIFO ordering per link, and failure injection for the
chain-repair and nemesis tests.  Delivery is an event on the shared
:class:`~repro.sim.events.EventSimulator`, so replica processing
interleaves deterministically with client activity.

Fault surface (all deterministic under a seeded RNG):

* fail-stopped nodes and cut links (the original §5.2 model);
* per-link :class:`LinkFaultPolicy` — probabilistic drop, duplication,
  reordering, latency jitter, and payload corruption.  Corruption is
  *detected*, not silently delivered: every message under an active
  policy carries a checksum, the receiving side verifies it, and a
  mismatch is counted and dropped (the sender learns via timeouts,
  exactly like a real CRC-protected transport);
* named partitions (node groups that cannot cross-talk) and per-node
  delivery slow-down, both heal-able — the verbs the
  :class:`~repro.faults.nemesis.Nemesis` scheduler composes.

All counters live in an :class:`NetStats` with the same
``snapshot()``/``delta()`` contract as
:class:`~repro.nvm.stats.NVMStats`, so oracles can assert over exactly
the window they injected faults into.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .events import EventSimulator

#: default one-way hop latency: ~2 µs, RDMA-class (paper: 32 Gbps IB)
DEFAULT_HOP_NS = 2_000.0


@dataclass(frozen=True)
class LinkFaultPolicy:
    """Probabilistic faults applied to one directed link (or as the
    network-wide default).  Probabilities are independent per message;
    all draws come from the network's seeded RNG, so a run is exactly
    replayable from its seed.

    ``reorder_p`` delays the picked message by a uniform draw from
    ``[jitter_min_ns, jitter_max_ns]`` *on top of* any base jitter,
    letting it overtake later sends on the same link (the FIFO
    guarantee is intentionally broken for it).
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    reorder_p: float = 0.0
    corrupt_p: float = 0.0
    jitter_min_ns: float = 0.0
    jitter_max_ns: float = 0.0

    @property
    def active(self) -> bool:
        return (
            self.drop_p > 0.0
            or self.dup_p > 0.0
            or self.reorder_p > 0.0
            or self.corrupt_p > 0.0
            or self.jitter_max_ns > 0.0
        )


@dataclass(slots=True)
class NetStats:
    """Message counters, NVMStats-style (``snapshot()`` / ``delta()``).

    ``dropped_link`` — cut links and partitions; ``dropped_node`` — the
    destination is fail-stopped or unregistered; ``dropped_fault`` — a
    fault policy dropped or corrupted the message in flight.
    """

    sent: int = 0
    delivered: int = 0
    dropped_link: int = 0
    dropped_node: int = 0
    dropped_fault: int = 0
    corrupted: int = 0
    duplicated: int = 0
    reordered: int = 0

    @property
    def dropped(self) -> int:
        """Total messages that never reached a handler."""
        return self.dropped_link + self.dropped_node + self.dropped_fault

    def reset(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_link = 0
        self.dropped_node = 0
        self.dropped_fault = 0
        self.corrupted = 0
        self.duplicated = 0
        self.reordered = 0

    def snapshot(self) -> "NetStats":
        return NetStats(
            self.sent,
            self.delivered,
            self.dropped_link,
            self.dropped_node,
            self.dropped_fault,
            self.corrupted,
            self.duplicated,
            self.reordered,
        )

    def delta(self, since: "NetStats") -> "NetStats":
        return NetStats(
            self.sent - since.sent,
            self.delivered - since.delivered,
            self.dropped_link - since.dropped_link,
            self.dropped_node - since.dropped_node,
            self.dropped_fault - since.dropped_fault,
            self.corrupted - since.corrupted,
            self.duplicated - since.duplicated,
            self.reordered - since.reordered,
        )


def message_checksum(msg: Any) -> int:
    """CRC32 over the message's canonical text form.

    The protocol messages are frozen dataclasses of ints, strings, and
    bytes, so ``repr`` is a stable serialization; a transport flipping
    payload bits flips the checksum with overwhelming probability."""
    return zlib.crc32(repr(msg).encode("utf-8", "backslashreplace"))


class SimNetwork:
    """Routes messages between named nodes over the event simulator."""

    def __init__(
        self,
        sim: EventSimulator,
        hop_latency_ns: float = DEFAULT_HOP_NS,
        rng: Optional[random.Random] = None,
    ):
        self.sim = sim
        self.hop_latency_ns = hop_latency_ns
        self.rng = rng if rng is not None else random.Random(0)
        self._handlers: Dict[str, Callable[[str, Any], None]] = {}
        self._down: Set[str] = set()
        self._cut_links: Set[Tuple[str, str]] = set()
        self._policies: Dict[Tuple[str, str], LinkFaultPolicy] = {}
        self._default_policy: Optional[LinkFaultPolicy] = None
        self._node_delay_ns: Dict[str, float] = {}
        self._groups: List[Set[str]] = []
        self.stats = NetStats()

    # -- membership -----------------------------------------------------------

    def register(self, node_id: str, handler: Callable[[str, Any], None]) -> None:
        """Attach a node; ``handler(src, msg)`` runs at delivery time."""
        self._handlers[node_id] = handler

    def unregister(self, node_id: str) -> None:
        self._handlers.pop(node_id, None)

    # -- failure injection -------------------------------------------------------

    def fail_node(self, node_id: str) -> None:
        """Fail-stop: the node receives nothing until revived."""
        self._down.add(node_id)

    def revive_node(self, node_id: str) -> None:
        self._down.discard(node_id)

    def cut_link(self, src: str, dst: str) -> None:
        """Drop all traffic src→dst (one direction)."""
        self._cut_links.add((src, dst))

    def heal_link(self, src: str, dst: str) -> None:
        self._cut_links.discard((src, dst))

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down

    # -- fault policies ----------------------------------------------------------

    def set_link_policy(self, src: str, dst: str, policy: LinkFaultPolicy) -> None:
        """Apply ``policy`` to the directed link src→dst."""
        self._policies[(src, dst)] = policy

    def set_default_policy(self, policy: Optional[LinkFaultPolicy]) -> None:
        """Policy for every link without a per-link entry (storms)."""
        self._default_policy = policy

    def set_node_delay(self, node_id: str, extra_ns: float) -> None:
        """Slow node: add ``extra_ns`` to every delivery to or from it."""
        if extra_ns <= 0:
            self._node_delay_ns.pop(node_id, None)
        else:
            self._node_delay_ns[node_id] = extra_ns

    def partition(self, groups: List[List[str]]) -> None:
        """Nodes in different groups cannot exchange messages.  Nodes in
        no group (e.g. a spare joining later) are unrestricted."""
        self._groups = [set(g) for g in groups]

    def heal_partition(self) -> None:
        self._groups = []

    def clear_faults(self) -> None:
        """Remove every injected fault: policies, partitions, slow nodes,
        and cut links.  Fail-stopped nodes stay down (they are topology,
        not link noise — revive them explicitly)."""
        self._policies.clear()
        self._default_policy = None
        self._node_delay_ns.clear()
        self._groups = []
        self._cut_links.clear()

    def _policy_for(self, src: str, dst: str) -> Optional[LinkFaultPolicy]:
        policy = self._policies.get((src, dst), self._default_policy)
        if policy is not None and policy.active:
            return policy
        return None

    def _partitioned(self, src: str, dst: str) -> bool:
        if not self._groups:
            return False
        src_group = next((g for g in self._groups if src in g), None)
        dst_group = next((g for g in self._groups if dst in g), None)
        return (
            src_group is not None
            and dst_group is not None
            and src_group is not dst_group
        )

    # -- transport ------------------------------------------------------------------

    def send(self, src: str, dst: str, msg: Any) -> None:
        """One-way send; silently dropped if the destination is down, the
        link is cut/partitioned, or a fault policy eats it (the sender
        learns via timeouts, as in reality)."""
        stats = self.stats
        stats.sent += 1
        if (src, dst) in self._cut_links or self._partitioned(src, dst):
            stats.dropped_link += 1
            return
        delay = self.hop_latency_ns
        delay += self._node_delay_ns.get(src, 0.0) + self._node_delay_ns.get(dst, 0.0)
        policy = self._policy_for(src, dst)
        if policy is None:
            self.sim.schedule(delay, self._deliver, src, dst, msg, None)
            return
        rng = self.rng
        if policy.drop_p > 0.0 and rng.random() < policy.drop_p:
            stats.dropped_fault += 1
            return
        if policy.jitter_max_ns > 0.0:
            delay += rng.uniform(policy.jitter_min_ns, policy.jitter_max_ns)
        checksum = message_checksum(msg)
        if policy.corrupt_p > 0.0 and rng.random() < policy.corrupt_p:
            # bits flipped in flight: the payload no longer matches the
            # checksum the sender stamped
            checksum ^= 0xDEADBEEF
        if policy.reorder_p > 0.0 and rng.random() < policy.reorder_p:
            stats.reordered += 1
            delay += rng.uniform(policy.jitter_min_ns, policy.jitter_max_ns or self.hop_latency_ns * 4)
        self.sim.schedule(delay, self._deliver, src, dst, msg, checksum)
        if policy.dup_p > 0.0 and rng.random() < policy.dup_p:
            stats.duplicated += 1
            dup_delay = delay + rng.uniform(0.0, policy.jitter_max_ns or self.hop_latency_ns * 2)
            self.sim.schedule(dup_delay, self._deliver, src, dst, msg, checksum)

    def _deliver(self, src: str, dst: str, msg: Any, checksum: Optional[int]) -> None:
        stats = self.stats
        if (src, dst) in self._cut_links or self._partitioned(src, dst):
            stats.dropped_link += 1
            return
        handler = self._handlers.get(dst)
        if handler is None or dst in self._down:
            stats.dropped_node += 1
            return
        if checksum is not None and checksum != message_checksum(msg):
            # checksum mismatch: corrupted in flight, receiver discards
            stats.corrupted += 1
            stats.dropped_fault += 1
            return
        stats.delivered += 1
        handler(src, msg)
