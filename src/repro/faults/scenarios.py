"""The built-in nemesis corpus.

Each scenario stresses one failure dimension (plus a combined storm);
the runner executes every one under several seeds and demands the same
convergence verdict each time: clients finish, replicas agree, acked
writes survive.  Timings assume the default topology (2 µs hops, write
commit in tens of µs, retransmission ladder starting at 400 µs), so
every injected fault window clears well before the retry budgets of the
hardened configuration run out — a hardened chain must pass all of
these, and the deliberately unhardened one demonstrably cannot.
"""

from __future__ import annotations

from typing import List, Optional

from .nemesis import FaultAction, NemesisScenario

_US = 1_000.0  # ns per µs — action times below read naturally
_MS = 1_000_000.0


CORPUS: List[NemesisScenario] = [
    NemesisScenario(
        name="flaky_link",
        description="head→successor link drops 30% of forwards for 3 ms; "
        "retransmission must re-drive the window",
        actions=(
            FaultAction(10 * _US, "flaky_link",
                        {"src": "head", "dst": 1, "drop_p": 0.3}),
            FaultAction(3 * _MS, "clear_faults"),
        ),
    ),
    NemesisScenario(
        name="duplication_storm",
        description="every link duplicates half its messages; applied_seq "
        "and the dedup table must absorb the echoes",
        actions=(
            FaultAction(0.0, "flaky_link", {"dup_p": 0.5}),
            FaultAction(5 * _MS, "clear_faults"),
        ),
    ),
    NemesisScenario(
        name="reorder_jitter",
        description="40% of messages overtake their successors under "
        "0-20 µs jitter; the sequence-gap guard must hold the prefix",
        actions=(
            FaultAction(0.0, "flaky_link",
                        {"reorder_p": 0.4, "jitter_min_ns": 0.0,
                         "jitter_max_ns": 20 * _US}),
            FaultAction(5 * _MS, "clear_faults"),
        ),
    ),
    NemesisScenario(
        name="corrupt_payload",
        description="a mid link flips bits in 25% of messages; checksums "
        "must catch every one and timeouts must re-drive them",
        actions=(
            FaultAction(10 * _US, "flaky_link",
                        {"src": 1, "dst": 2, "corrupt_p": 0.25}),
            FaultAction(3 * _MS, "clear_faults"),
        ),
    ),
    NemesisScenario(
        name="partition_and_heal",
        description="the chain splits down the middle for ~2 ms, then "
        "heals; stalled windows must retransmit to convergence",
        actions=(
            FaultAction(200 * _US, "partition",
                        {"groups": [[0, 1], [-2, -1]]}),
            FaultAction(2_500 * _US, "heal"),
        ),
    ),
    NemesisScenario(
        name="slow_node",
        description="one mid replica serves every message 100 µs late; "
        "back-pressure and timeouts must tolerate the lag without loss",
        actions=(
            FaultAction(0.0, "slow_node", {"node": 2, "delay_ns": 100 * _US}),
            FaultAction(4 * _MS, "clear_faults"),
        ),
    ),
    NemesisScenario(
        name="crash_and_replace",
        description="a mid replica fail-stops under live traffic and a "
        "spare is spliced in (one view change); the chain keeps its "
        "f-target and no acked write is lost",
        actions=(
            FaultAction(1 * _MS, "crash_replace", {"node": 2}),
        ),
    ),
    NemesisScenario(
        name="head_failover",
        description="the head dies mid-run; the successor promotes, "
        "clients re-drive their unanswered requests against the new head",
        actions=(
            FaultAction(1 * _MS, "fail_stop", {"node": "head"}),
        ),
    ),
    NemesisScenario(
        name="tail_failover",
        description="the tail dies mid-run; its predecessor takes over "
        "acknowledging and no acked write is lost",
        actions=(
            FaultAction(800 * _US, "fail_stop", {"node": "tail"}),
        ),
    ),
    NemesisScenario(
        name="reboot_under_loss",
        description="a mid replica quick-reboots while its inbound link "
        "is lossy; intent-log repair plus retransmission must converge",
        actions=(
            FaultAction(10 * _US, "flaky_link",
                        {"src": "head", "dst": 1, "drop_p": 0.2}),
            FaultAction(600 * _US, "quick_reboot", {"node": 1}),
            FaultAction(3 * _MS, "clear_faults"),
        ),
    ),
    NemesisScenario(
        name="chaos_combo",
        description="default-policy loss + a slow replica + a mid-run "
        "quick reboot, all at once",
        actions=(
            FaultAction(0.0, "flaky_link", {"drop_p": 0.15}),
            FaultAction(500 * _US, "slow_node",
                        {"node": 1, "delay_ns": 50 * _US}),
            FaultAction(1_200 * _US, "quick_reboot", {"node": 2}),
            FaultAction(3_500 * _US, "clear_faults"),
        ),
        ops_per_client=10,
    ),
    NemesisScenario(
        name="overload_storm",
        description="the serving-layer overload drill: a connection storm "
        "(8 clients) hits a chain whose mid replica is slow, the circuit "
        "breaker is forced open mid-storm (the first tail ack of a write "
        "already in flight closes it again, so no write is refused), and "
        "the chain partitions; hardened clients must ride the "
        "retransmission ladders to convergence before the quiesce",
        actions=(
            FaultAction(50 * _US, "slow_node",
                        {"node": 1, "delay_ns": 80 * _US}),
            FaultAction(150 * _US, "trip_breaker",
                        {"cooldown_ns": 5 * _MS}),
            FaultAction(400 * _US, "partition",
                        {"groups": [[0, 1], [-2, -1]]}),
            FaultAction(700 * _US, "close_breaker", {}),
            FaultAction(1_500 * _US, "heal"),
            FaultAction(1_600 * _US, "clear_faults"),
        ),
        n_clients=8,
        ops_per_client=10,
    ),
    # -- media-fault scenarios (the failure class below fail-stop) --------
    NemesisScenario(
        name="bitrot_scrub",
        description="latent bit flips land in a mid replica's live heap "
        "bytes; the checksum scrub must repair every line from the "
        "backup mirror (or a peer, where the backup lags) before the "
        "convergence oracles look",
        actions=(
            FaultAction(300 * _US, "media_flip",
                        {"node": "mid", "n": 6, "target": "live"}),
            FaultAction(2 * _MS, "media_scrub", {}),
        ),
        media="protected",
    ),
    NemesisScenario(
        name="dead_lines_quarantine",
        description="two cache lines of the head's backup mirror go "
        "uncorrectable (only the head keeps a local backup in kamino "
        "mode); the scrub must quarantine them to spare lines and "
        "restore their content from the main copy",
        actions=(
            FaultAction(400 * _US, "media_dead",
                        {"node": "head", "n": 2, "target": "backup"}),
            FaultAction(2 * _MS, "media_scrub", {"node": "head"}),
        ),
        media="protected",
    ),
    NemesisScenario(
        name="bitrot_reboot_combo",
        description="bit rot on the tail's live bytes while a mid "
        "replica quick-reboots: intent-log repair and the media scrub "
        "must both land, and no acked write may go silently wrong",
        actions=(
            FaultAction(300 * _US, "media_flip",
                        {"node": "tail", "n": 6, "target": "live"}),
            FaultAction(1 * _MS, "quick_reboot", {"node": 1}),
            FaultAction(2_500 * _US, "media_scrub", {}),
        ),
        media="protected",
    ),
    NemesisScenario(
        name="stale_replay_tree",
        description="an adversarial consistent replay on a mid replica: "
        "live main lines that changed after the snapshot leg get their "
        "old bytes back with matching stale CRCs forged into the "
        "sidecar, so per-line checksums verify clean; only the integrity "
        "tree's published root disputes them, and the scrub must repair "
        "every replayed line from the backup mirror before the "
        "convergence oracles look",
        actions=(
            FaultAction(1_500 * _US, "media_stale",
                        {"node": "mid", "n": 4,
                         "snapshot_at_ns": 300 * _US}),
            FaultAction(2_500 * _US, "media_scrub", {}),
        ),
        media="protected",
        tree=True,
    ),
    # -- sharded-cluster scenarios (groups > 1 builds a ShardedCluster) ----
    NemesisScenario(
        name="rebalance_during_partition",
        description="a shard migrates from group 0 to group 1 while "
        "group 1's head is partitioned from its chain; copy traffic is "
        "rejected as degraded and must retry to completion after the "
        "heal, with no acked write lost on either group",
        actions=(
            FaultAction(100 * _US, "partition",
                        {"groups": [["g1:0"], ["g1:1", "g1:2", "g1:3"]]}),
            FaultAction(250 * _US, "migrate_shard", {"shard": 0, "dst": 1}),
            FaultAction(2_500 * _US, "heal"),
            FaultAction(2_600 * _US, "clear_faults"),
        ),
        groups=2,
        n_clients=4,
        ops_per_client=14,
    ),
    NemesisScenario(
        name="migrate_then_crash",
        description="the migration coordinator power-fails twice while a "
        "shard is moving under live traffic; the durable cursor must "
        "resume the copy (not restart or corrupt it) and the flip must "
        "still happen exactly once",
        actions=(
            FaultAction(150 * _US, "migrate_shard", {"shard": 1, "dst": 0}),
            FaultAction(400 * _US, "crash_coordinator", {}),
            FaultAction(1_200 * _US, "crash_coordinator", {}),
        ),
        groups=2,
        n_clients=4,
        ops_per_client=14,
        keyspace=8,
    ),
    NemesisScenario(
        name="hot_shard_skew",
        description="zipfian clients hammer a few keys, making one shard "
        "hot; mid-run the hottest shard migrates to the least-loaded "
        "group while the skewed traffic keeps flowing",
        actions=(
            FaultAction(500 * _US, "migrate_shard",
                        {"shard": "hottest", "dst": None}),
        ),
        groups=2,
        n_clients=4,
        ops_per_client=16,
        keyspace=12,
        key_skew=0.95,
    ),
]

#: the media-fault subset — what ``repro nemesis --media`` and the
#: integrity-smoke CI job run
MEDIA_CORPUS: List[NemesisScenario] = [s for s in CORPUS if s.media != "off"]

#: the sharded-cluster subset — what ``repro cluster`` and the
#: cluster-smoke CI job run
CLUSTER_CORPUS: List[NemesisScenario] = [s for s in CORPUS if s.groups > 1]


def scenario_by_name(name: str) -> Optional[NemesisScenario]:
    for scenario in CORPUS:
        if scenario.name == name:
            return scenario
    return None
