"""Chain repair: fail-stop handling, quick reboots, joins (§5.2–5.3).

These functions orchestrate the recovery protocols over a
:class:`~repro.replication.chain.ChainCluster`:

* **fail-stop** (§5.2) — the chain shrinks, the view bumps, neighbours
  re-forward in-flight transactions; a failed head is replaced by its
  successor, which first rolls incomplete items back from *its*
  successor and only then builds a local backup; a failed tail's
  predecessor completes the in-flight acknowledgments.
* **quick reboot** (§5.3, Figure 9) — the rebooted replica keeps its
  place: it identifies incomplete write ranges from its intent logs and
  repairs them from a neighbour (roll forward from the predecessor for
  non-head nodes, roll back from the local backup for the head), then
  replays whatever in-flight transactions it missed.

Which repair a replica runs follows from its index in
:attr:`ChainCluster.chain <repro.replication.chain.ChainCluster.chain>`
(0 is the head), the one record of the chain's order; the membership
manager only bumps the view.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import NVMError, ReplicationError
from ..nvm.device import CrashPolicy
from ..kvstore import KVStore
from ..sim.resources import FIFOServer
from .chain import KAMINO, ChainCluster
from .messages import TailAck, TxForward
from .node import ReplicaNode


def _copy_ranges(dst: ReplicaNode, src: ReplicaNode, ranges: List[Tuple[int, int]]) -> int:
    """Overwrite ``dst``'s heap bytes with ``src``'s for each range."""
    copied = 0
    for offset, size in ranges:
        dst.write_heap_bytes(offset, src.read_heap_bytes(offset, size))
        copied += size
    return copied


def _reload_volatile(node: ReplicaNode) -> None:
    """Refresh allocator mirrors + KV handles after byte-level repair."""
    node.heap.allocator.open()
    node.kv = KVStore.open(node.heap)


def quick_reboot(
    cluster: ChainCluster,
    index: int,
    policy: CrashPolicy = CrashPolicy.RANDOM,
    survival: float = 0.5,
) -> int:
    """Crash + immediately recover the replica at ``index`` (Figure 9).

    Returns the number of bytes repaired from a neighbour/backup.
    The caller must ensure the chain is otherwise quiescent for the
    repair window (the head holds dependent transactions anyway).
    """
    node = cluster.chain[index]
    node.crash(policy, survival)
    node.reopen(is_head=index == 0)
    # §5.3: the rebooted replica asks the membership manager to rejoin
    # with the view it believes is current; a removed replica must take
    # the join-as-new-tail path instead
    cluster.membership.rejoin_request(node.node_id, node.view_id)
    node.view_id = cluster.view_id
    repaired = 0
    if cluster.mode == KAMINO and index != 0:
        # roll forward from the assigned predecessor (case 1 of §5.3)
        ranges = list(node.engine.incomplete_ranges)
        repaired = _copy_ranges(node, cluster.chain[index - 1], ranges)
        node.engine.ack_repaired()
        _reload_volatile(node)
    else:
        # head (kamino: rolled back from its local backup during reopen;
        # traditional: undo logs restored everything) — case 2 of §5.3
        _reload_volatile(node)
    _replay_missed(cluster, node)
    return repaired


def _replay_missed(cluster: ChainCluster, node: ReplicaNode) -> None:
    """Replay in-flight transactions the replica missed while down.

    Replay ships each missed transaction's *byte-level write-set* from
    the predecessor rather than re-executing the procedure: the §5.3
    range repair may already have rolled fragments of later
    transactions forward (the predecessor is strictly newer, and its
    bytes for any shared range reflect its whole history), so the
    replica's heap is not guaranteed to be a state the procedure can
    re-execute against.  Copying the write-sets in order is idempotent
    and lands exactly on the predecessor's prefix.
    """
    pred = cluster.predecessor(node)
    if pred is None:
        return
    copied = False
    for seq in sorted(pred.inflight):
        _txid, msg = pred.inflight[seq]
        if msg.seq <= node.applied_seq:
            continue
        node.persist_to_input_queue(64)
        ranges = pred.applied_ranges.get(seq)
        if ranges is not None:
            _copy_ranges(node, pred, ranges)
            copied = True
        else:
            # predecessor no longer tracks the write-set (cleaned up):
            # fall back to re-execution, refreshing volatile mirrors
            # first if byte-level repair preceded it
            if copied:
                _reload_volatile(node)
                copied = False
            node.execute(msg.proc, msg.args)
        node.applied_seq = msg.seq
        node.inflight[msg.seq] = (msg.seq, msg)
        node.applied_ranges[msg.seq] = list(ranges) if ranges is not None else list(
            node.last_write_set
        )
    if copied:
        _reload_volatile(node)


def media_peer_fetch(cluster: ChainCluster, node: ReplicaNode):
    """Build a scrubber ``peer_repair`` callback for ``node``.

    Every replica formats its pool with the same creation sequence, so a
    device-absolute address names the same logical bytes on each of
    them; fetching a neighbour's durable line is replica state transfer
    at cache-line granularity — the last resort when both local copies
    of a line are gone.  The predecessor is tried first (its history is
    a superset, so its bytes are a roll-forward), then the successor (a
    roll-back, still better than data loss).  Peers that are crashed or
    whose own media faults on the line are skipped.
    """

    def fetch(abs_addr: int, size: int) -> Optional[bytes]:
        for peer in (cluster.predecessor(node), cluster.successor(node)):
            if peer is None or peer.device.crashed:
                continue
            try:
                return peer.device.durable_read(abs_addr, size)
            except NVMError:
                continue
        return None

    return fetch


def scrub_node(cluster: ChainCluster, node: ReplicaNode):
    """One scrub pass over ``node``'s pool with neighbour state transfer
    as the last-resort repair source; refreshes volatile mirrors if any
    bytes changed.  Returns the :class:`~repro.integrity.scrub.ScrubReport`."""
    from ..integrity.scrub import Scrubber

    report = Scrubber(
        node.device,
        pool=node.heap.region.pool,
        engine=node.engine,
        peer_repair=media_peer_fetch(cluster, node),
    ).scrub_once()
    if report.repaired or report.quarantined:
        _reload_volatile(node)
    return report


def _detach(cluster: ChainCluster, index: int) -> ReplicaNode:
    """Take the replica at ``index`` out of the topology (network +
    chain list) and return it."""
    node = cluster.chain.pop(index)
    cluster.net.fail_node(node.node_id)
    cluster.net.unregister(node.node_id)
    return node


def _repair_chain(cluster: ChainCluster, index: int) -> None:
    """Re-stitch the chain around the replica just detached from
    ``index``: the head's successor is promoted, the tail's predecessor
    completes its acks, and a mid replica's predecessor re-forwards its
    window to the replica now at ``index``."""
    if index == 0:
        _promote_new_head(cluster)
    elif index == len(cluster.chain):
        _promote_new_tail(cluster)
    else:
        cluster.resend_window(cluster.chain[index - 1])


def fail_stop(cluster: ChainCluster, index: int) -> None:
    """Remove a fail-stopped replica and repair the chain (§5.2)."""
    if len(cluster.chain) <= 2 and cluster.mode == KAMINO:
        raise ReplicationError("kamino chain needs at least two replicas to repair")
    cluster.membership.declare_failed(cluster.chain[index].node_id, cluster.node_ids())
    _detach(cluster, index)
    _repair_chain(cluster, index)
    cluster._install_view()


def replace_node(cluster: ChainCluster, index: int) -> ReplicaNode:
    """Automatic node replacement: fail-stop the replica at ``index``
    and splice a caught-up spare into the chain under a single view
    change (:meth:`MembershipManager.replace_failed`).

    The spare joins at the tail after state transfer from the (new)
    tail — the same byte-shipping path a joining replica uses — then the
    old tail's in-flight window is re-forwarded so nothing committed is
    stranded.  The chain keeps its f-target instead of shrinking."""
    if len(cluster.chain) <= 2 and cluster.mode == KAMINO:
        raise ReplicationError("kamino chain needs at least two replicas to repair")
    members = cluster.node_ids()
    failed = _detach(cluster, index)
    _repair_chain(cluster, index)

    donor = cluster.tail
    spare_id = f"{cluster.node_prefix}s{cluster.view_id}x{len(cluster.chain)}"
    seed = len(cluster.chain) + cluster.view_id
    # one view change: the repair above ran under the old view
    cluster.membership.replace_failed(failed.node_id, spare_id, members)
    spare = _splice_at_tail(cluster, spare_id, seed)
    # the donor's un-cleaned window rides down to the spare so completion
    # acks regenerate under the new view
    cluster.resend_window(donor)
    return spare


def _splice_at_tail(cluster: ChainCluster, node_id: str, seed: int) -> ReplicaNode:
    """State-transfer a fresh replica from the current tail and splice
    it in as the new tail, once the caller has bumped the view (a plain
    join, or the replacement of a failed replica).

    The new replica takes the donor's geometry and whole heap image, so
    its heap size, record size and ``applied_seq`` are the donor's."""
    donor = cluster.tail
    node = ReplicaNode(
        node_id,
        cluster.mode,
        is_head=False,
        heap_mb=donor.heap.region.size >> 20,
        value_size=donor.kv.value_size,
        alpha=donor.alpha,
        seed=seed,
    )
    node.load_heap_image(donor.heap_image())
    node.kv = KVStore.open(node.heap)
    node.applied_seq = donor.applied_seq
    cluster.chain.append(node)
    cluster.net.register(node_id, cluster._make_handler(node))
    cluster._servers[node_id] = cluster.runtime.resources.register(FIFOServer(node_id))
    cluster._install_view()
    return node


def _promote_new_head(cluster: ChainCluster) -> None:
    """§5.2 head failure: the successor becomes head.

    The new head first rolls incomplete transactions back from *its*
    successor (case 3 of Figure 9 — the successor has strictly older
    state), then constructs a local backup and the conservative lock
    set; pending client state at the old head is lost with it (clients
    live on the head)."""
    new_head = cluster.chain[0]
    if cluster.mode == KAMINO:
        # a kamino repair leaves at least two replicas
        _copy_ranges(new_head, cluster.chain[1], list(new_head.engine.incomplete_ranges))
        # any still-running local transaction state is volatile; scan the
        # durable intent log state via a clean engine restart instead
        new_head.open_stack(is_head=True)
        _reload_volatile(new_head)
    # conservative lock reconstruction: quiesce by clearing client state
    # (clients live on the head, §5.1 — their pending requests die with
    # it and must be retried, which the dedup table makes idempotent)
    cluster._busy_keys.clear()
    cluster._inflight_writes.clear()
    cluster._admission_queue.clear()
    cluster._inflight_requests.clear()
    for timer in cluster._retx_events.values():
        timer.cancel()
    cluster._retx_events.clear()
    # resume sequence numbering above everything any survivor applied —
    # the new head itself holds the maximum (each replica's history is a
    # prefix of its predecessor's), and numbering from the tail instead
    # would let a fresh transaction collide with one the old head
    # forwarded but the tail never saw
    cluster._next_seq = max(node.applied_seq for node in cluster.chain) + 1


def _promote_new_tail(cluster: ChainCluster) -> None:
    """§5.2 tail failure: the predecessor is the new tail and sends the
    head completion acks for everything it forwarded but saw no
    clean-up ack for."""
    new_tail = cluster.tail
    head = cluster.head
    for seq in sorted(new_tail.inflight):
        cluster.net.send(new_tail.node_id, head.node_id, TailAck(cluster.view_id, seq))


def join_new_replica(cluster: ChainCluster) -> ReplicaNode:
    """Grow the chain: a fresh replica joins as the tail after state
    transfer from the current tail (§5.2)."""
    node_id = f"{cluster.node_prefix}r{cluster.view_id}x{len(cluster.chain)}"
    cluster.membership.add_at_tail(node_id, cluster.node_ids())
    return _splice_at_tail(cluster, node_id, seed=0)


#: re-forwarding rounds :func:`settle` runs before its final drain
SETTLE_ROUNDS = 6


def settle(cluster: ChainCluster) -> None:
    """Re-forward stalled in-flight windows until the chain is quiet.

    An intervention can strand a window: a crashed replica's successor
    never saw a forward, or a tail ack died with the old view.  The
    hardened protocol's timeout ladder usually heals this on its own;
    this driver forces the same retransmissions *now* — each round
    re-sends every survivor's un-cleaned window downstream (the head's
    is rebuilt from its client table), re-acks from the applied tail,
    then drains.  ``applied_seq`` and the idempotent procedures make the
    duplicates harmless.  Used by the crash explorer and the nemesis
    runner to settle a cluster after fault injection stops.
    """
    for _ in range(SETTLE_ROUNDS):
        cluster.drain()
        stalled = bool(cluster._inflight_writes) or any(
            node.inflight for node in cluster.chain
        )
        if not stalled:
            return
        head = cluster.head
        succ = cluster.successor(head)
        # unacked client writes: rebuild the head's forwards from the
        # client table (the head's volatile window dies with a reboot)
        for seq, op in sorted(cluster._inflight_writes.items()):
            msg = TxForward(cluster.view_id, seq, op.proc, op.args)
            if succ is None:
                cluster._on_tail_ack(TailAck(cluster.view_id, seq))
            else:
                cluster.net.send(head.node_id, succ.node_id, msg)
        # every survivor's un-cleaned window, the head's included (a
        # promoted head still owes its old downstream forwards)
        for node in cluster.chain:
            cluster.resend_window(node)
        # an applied-but-unacked tail: regenerate the completion acks
        tail = cluster.tail
        for seq in sorted(cluster._inflight_writes):
            if tail.applied_seq >= seq:
                cluster.net.send(
                    tail.node_id, cluster.head.node_id,
                    TailAck(cluster.view_id, seq),
                )
    cluster.drain()
