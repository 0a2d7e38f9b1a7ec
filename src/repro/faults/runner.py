"""Nemesis scenario execution + convergence oracles.

:func:`run_scenario` builds a fresh seeded cluster, arms a scenario's
fault script, drives closed-loop clients through it, then quiesces and
judges.  The verdict is a :class:`NemesisResult` whose ``problems`` list
is empty iff the run converged:

1. **liveness** — every client finished its stream *before* the forced
   quiesce (a hardened chain self-heals via its timeout ladders; the
   unhardened one strands clients the moment a message is lost);
2. **exactly-once accounting** — no operation resolves twice, and every
   rejection (:class:`~repro.errors.ClusterDegraded`, timeout) surfaces
   exactly once;
3. **convergence** — all replicas' logical KV states are byte-identical
   over the live key range;
4. **durability** — for every key, the tail holds the last
   *acknowledged* value, unless a later same-key operation with an
   unknown outcome (a timeout) legitimately superseded it; an operation
   the head definitively rejected must never appear.

Determinism: all randomness flows from ``seed`` (the cluster RNG drives
fault draws, a derived stream RNG builds the workload), so any verdict
replays exactly — :func:`minimize` exploits that to shrink a failing
``(scenario, seed)`` to a minimal repro, and :func:`repro_snippet`
prints the replay program.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional

from ..cluster.sharded import ShardedCluster
from ..errors import MediaError
from ..parallel import call, fan_out
from ..replication.chain import KAMINO, ChainCluster, RetryPolicy
from ..replication.client import ChainClient, run_clients
from ..replication.recovery import settle, scrub_node
from ..sim.network import NetStats
from ..workloads.keydist import ZipfianGenerator
from ..workloads.ycsb import READ, UPDATE, Op
from .nemesis import Nemesis, NemesisScenario
from .scenarios import CORPUS

#: fixed record size for nemesis clusters (stores zero-pad to this)
VALUE_SIZE = 64
#: key-range stride: client ``i`` owns keys ``[i * stride, i * stride + keyspace)``
KEY_STRIDE = 1000
#: the smoke-sized corpus ``run_corpus(quick=True)`` runs by default
QUICK_SCENARIOS = ("flaky_link", "partition_and_heal", "crash_and_replace",
                   "head_failover")
#: seeds per scenario under ``quick``
QUICK_SEEDS = 2


def _value_for(client: int, op_index: int) -> bytes:
    return f"c{client:02d}o{op_index:04d}".encode()


def client_streams(scenario: NemesisScenario, seed: int) -> List[List[Op]]:
    """Deterministic per-(scenario, seed) workload, one stream per
    client, each over a private key range."""
    base = zlib.crc32(scenario.name.encode()) ^ (seed * 0x9E3779B1 & 0xFFFFFFFF)
    streams: List[List[Op]] = []
    for ci in range(scenario.n_clients):
        rng = random.Random((base + ci * 7919) & 0xFFFFFFFF)
        # key_skew > 0 draws offsets zipfian inside the private range, so
        # most traffic lands on a few keys (and therefore a hot shard)
        zipf = (
            ZipfianGenerator(
                scenario.keyspace,
                theta=min(scenario.key_skew, 0.999),
                seed=(base + ci * 7919) & 0xFFFFFFFF,
            )
            if scenario.key_skew > 0 and scenario.keyspace > 1
            else None
        )
        lo = ci * KEY_STRIDE
        ops: List[Op] = []
        for i in range(scenario.ops_per_client):
            offset = (
                zipf.next() % scenario.keyspace
                if zipf is not None
                else rng.randrange(scenario.keyspace)
            )
            key = lo + offset
            if i > 0 and rng.random() < scenario.read_fraction:
                ops.append(Op(READ, key))
            else:
                ops.append(Op(UPDATE, key, _value_for(ci, i)))
        streams.append(ops)
    return streams


@dataclass
class NemesisResult:
    """Verdict + accounting for one (scenario, seed) nemesis run."""

    scenario: str
    seed: int
    mode: str
    hardened: bool
    problems: List[str] = field(default_factory=list)
    completed_ops: int = 0
    total_ops: int = 0
    failed_ops: int = 0
    client_retries: int = 0
    retransmissions: int = 0
    timed_out: int = 0
    degraded_rejections: int = 0
    duplicate_requests: int = 0
    net: Optional[NetStats] = None
    #: sharded-cluster accounting (defaults describe a single chain)
    groups: int = 1
    map_version: Optional[int] = None
    migrations: int = 0
    migrations_aborted: int = 0
    coordinator_crashes: int = 0
    map_refreshes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.problems)})"
        drops = self.net.dropped if self.net is not None else 0
        return (
            f"{self.scenario:>20} seed={self.seed} [{self.mode}"
            f"{'' if self.hardened else ', unhardened'}] "
            f"ops={self.completed_ops}/{self.total_ops} "
            f"retx={self.retransmissions} dropped={drops} {status}"
        )


def run_scenario(
    scenario: NemesisScenario,
    seed: int = 0,
    mode: str = KAMINO,
    f: int = 2,
    retry: Optional[RetryPolicy] = None,
) -> NemesisResult:
    """One deterministic nemesis run; see the module docstring for the
    oracles.  ``retry=RetryPolicy.disabled()`` runs the deliberately
    unhardened configuration."""
    retry = retry if retry is not None else RetryPolicy()
    result = NemesisResult(
        scenario=scenario.name, seed=seed, mode=mode, hardened=retry.enabled,
        groups=scenario.groups,
    )
    if scenario.groups > 1:
        cluster = ShardedCluster(
            groups=scenario.groups, shards_per_group=scenario.shards_per_group,
            f=f, mode=mode, heap_mb=2, value_size=VALUE_SIZE, seed=seed,
            retry=retry,
        )
    else:
        cluster = ChainCluster(
            f=f, mode=mode, heap_mb=2, value_size=VALUE_SIZE, seed=seed,
            retry=retry,
        )
    if scenario.media != "off":
        protect = scenario.media == "protected"
        for i, node in enumerate(_all_nodes(cluster)):
            node.device.attach_media(
                seed=seed * 101 + i, protect=protect, tree=protect and scenario.tree
            )
    nemesis = Nemesis(cluster, scenario)
    nemesis.arm()
    streams = client_streams(scenario, seed)
    result.total_ops = sum(len(s) for s in streams)
    try:
        clients = run_clients(cluster, streams, raise_on_stuck=False)
    except Exception as exc:  # a protocol crash is itself the verdict
        result.problems.append(f"run raised {type(exc).__name__}: {exc}")
        return result
    # liveness is judged NOW: the hardened chain must have healed itself
    # during the run; the forced quiesce below is only there to let the
    # state oracles see a settled chain
    for c in clients:
        if not c.done:
            result.problems.append(
                f"client {c.client_id} stuck at {c.completed}/{len(c.ops)} ops "
                f"(lost message, nothing retried it)"
            )
    cluster.net.clear_faults()
    try:
        for chain in _chains(cluster):
            settle(chain)
        if isinstance(cluster, ShardedCluster):
            cluster.drain()  # let any still-active migration finish
    except Exception as exc:
        result.problems.append(
            f"post-fault settle raised {type(exc).__name__}: {exc}"
        )
        return result
    if scenario.media == "protected":
        _final_scrub(cluster, result)
    try:
        _judge_state(cluster, clients, result)
    except MediaError as exc:
        # detection, not silence — but a protected run should have
        # repaired everything before the oracles read the heaps
        result.problems.append(
            f"state oracle hit media fault: {type(exc).__name__}: {exc}"
        )
    except Exception as exc:
        if scenario.media == "off":
            raise
        # undetected corruption can wreck structures the oracles walk;
        # for a media run that crash IS the verdict, not a harness bug
        result.problems.append(
            f"state oracle crashed on corrupted state: "
            f"{type(exc).__name__}: {exc}"
        )
    result.completed_ops = sum(c.completed for c in clients)
    result.failed_ops = sum(len(c.failed) for c in clients)
    result.client_retries = sum(c.retries for c in clients)
    result.retransmissions = cluster.retransmissions
    result.timed_out = cluster.timed_out
    result.degraded_rejections = cluster.degraded_rejections
    result.duplicate_requests = cluster.duplicate_requests
    result.net = cluster.net.stats.snapshot()
    if isinstance(cluster, ShardedCluster):
        result.map_version = cluster.map_version
        result.migrations = len(cluster.migration_reports)
        result.migrations_aborted = sum(
            1 for r in cluster.migration_reports if r.aborted
        )
        result.coordinator_crashes = cluster.coordinator_crashes
        result.map_refreshes = sum(c.map_refreshes for c in clients)
    return result


def _all_nodes(cluster) -> List:
    """Every replica node, across all groups if sharded."""
    if isinstance(cluster, ShardedCluster):
        return [node for group in cluster.groups for node in group.chain]
    return list(cluster.chain)


def _chains(cluster) -> List[ChainCluster]:
    if isinstance(cluster, ShardedCluster):
        return list(cluster.groups)
    return [cluster]


def _final_scrub(cluster, result: NemesisResult) -> None:
    """Scrub every replica before judging; in a protected run, all
    injected corruption must end repaired, quarantined+restored, or
    degraded to a typed *lost* state — never silently resident."""
    for chain in _chains(cluster):
        for node in chain.chain:
            media = node.device.media
            if media is None:
                continue
            try:
                scrub_node(chain, node)
            except MediaError as exc:
                result.problems.append(
                    f"scrub on {node.node_id} raised {type(exc).__name__}: {exc}"
                )
                continue
            leftover = [ln for ln in media.bad_lines() if ln not in media.lost]
            if leftover:
                result.problems.append(
                    f"media corruption on {node.node_id} survived the final "
                    f"scrub undetected-or-unrepaired: lines {leftover[:6]}"
                )
            if media.lost:
                result.problems.append(
                    f"{node.node_id} lost lines {sorted(media.lost)[:6]} "
                    f"(no surviving copy on mirror or peers)"
                )


def _judge_state(
    cluster, clients: List[ChainClient], result: NemesisResult
) -> None:
    # exactly-once: no double resolutions, no double error surfacing
    for c in clients:
        if c.completed > len(c.ops):
            result.problems.append(
                f"client {c.client_id} resolved {c.completed} ops for "
                f"{len(c.ops)} submissions (double completion)"
            )
        rids = [rid for rid, _op, _err in c.failed]
        if len(rids) != len(set(rids)):
            result.problems.append(
                f"client {c.client_id} surfaced an error more than once "
                f"for the same request"
            )
    # replica convergence over the live range (per group when sharded,
    # with the cross-shard migration and placement oracles)
    if isinstance(cluster, ShardedCluster):
        result.problems.extend(cluster.convergence_problems())
        if cluster.active_migrations:
            return
        tail_state = cluster.merged_tail_state()
    else:
        try:
            cluster.assert_replicas_consistent()
        except AssertionError as exc:
            result.problems.append(f"replica divergence: {exc}")
        tail_state = cluster.kv_states()[-1]
    # durability of acknowledged writes at the (owning) tail
    for c in clients:
        _judge_durability(c, tail_state, result)


def _judge_durability(
    client: ChainClient, tail_state: Dict[int, bytes], result: NemesisResult
) -> None:
    """Per key: the tail must hold the last acked value, or the value of
    a later unknown-outcome write to the same key; writes the head
    definitively rejected must never be the surviving value."""
    failed_rids = {rid for rid, _op, _err in client.failed}
    per_key: Dict[int, List[tuple]] = {}
    for rid, op in enumerate(client.ops):
        if rid >= client.issued:
            break  # never issued (client gave up earlier)
        if op.kind != UPDATE:
            continue
        if rid not in failed_rids:
            outcome = "acked"
        elif rid in client.unknown_rids:
            outcome = "unknown"
        else:
            outcome = "rejected"
        per_key.setdefault(op.key, []).append((rid, op.value, outcome))
    for key, history in per_key.items():
        acked = [i for i, (_r, _v, o) in enumerate(history) if o == "acked"]
        last_acked = acked[-1] if acked else -1
        allowed = set()
        if last_acked >= 0:
            allowed.add(history[last_acked][1].ljust(VALUE_SIZE, b"\x00"))
        else:
            allowed.add(None)
        for i, (_r, value, outcome) in enumerate(history):
            if i > last_acked and outcome == "unknown":
                allowed.add(value.ljust(VALUE_SIZE, b"\x00"))
        actual = tail_state.get(key)
        if actual not in allowed:
            acked_value = history[last_acked][1] if last_acked >= 0 else None
            result.problems.append(
                f"key {key}: tail holds {actual!r:.40}, but the last acked "
                f"write by {client.client_id} was {acked_value!r:.40} "
                f"(acked write lost or phantom write applied)"
            )


def run_corpus(
    scenarios: Optional[List[NemesisScenario]] = None,
    seeds: int = 5,
    mode: str = KAMINO,
    f: int = 2,
    retry: Optional[RetryPolicy] = None,
    quick: bool = False,
    workers: int = 0,
) -> List[NemesisResult]:
    """Every scenario × every seed, in that order (``scenarios=None``
    runs the built-in corpus).  ``quick`` trims to a smoke-sized sweep
    (CI): at most :data:`QUICK_SEEDS` seeds, and the
    :data:`QUICK_SCENARIOS` subset when no scenarios are given.
    ``workers`` fans the runs over a process pool; every run is
    seed-deterministic, so the results do not depend on it."""
    if scenarios is None:
        scenarios = CORPUS
        if quick:
            scenarios = [s for s in CORPUS if s.name in QUICK_SCENARIOS]
    if quick:
        seeds = min(seeds, QUICK_SEEDS)
    runs = [
        partial(run_scenario, scenario, seed=seed, mode=mode, f=f, retry=retry)
        for scenario in scenarios
        for seed in range(seeds)
    ]
    return fan_out(call, runs, workers)


#: the most candidate runs one :func:`minimize` call replays
MINIMIZE_BUDGET = 40


def minimize(
    scenario: NemesisScenario,
    seed: int,
    mode: str = KAMINO,
    f: int = 2,
    retry: Optional[RetryPolicy] = None,
) -> NemesisScenario:
    """Greedy delta-debugging of a failing run: drop fault actions and
    halve the workload while the failure reproduces.  Deterministic
    replay makes every probe exact.  Returns the smallest scenario found
    (the input itself if it doesn't fail)."""

    def fails(candidate: NemesisScenario) -> bool:
        return not run_scenario(
            candidate, seed=seed, mode=mode, f=f, retry=retry
        ).ok

    if not fails(scenario):
        return scenario
    current = scenario
    probes = 0
    progress = True
    while progress and probes < MINIMIZE_BUDGET:
        progress = False
        for i in range(len(current.actions)):
            cand = replace(
                current, actions=current.actions[:i] + current.actions[i + 1:]
            )
            probes += 1
            if fails(cand):
                current = cand
                progress = True
                break
        for attr, floor in (("n_clients", 1), ("ops_per_client", 1)):
            while getattr(current, attr) > floor and probes < MINIMIZE_BUDGET:
                cand = replace(
                    current, **{attr: max(floor, getattr(current, attr) // 2)}
                )
                probes += 1
                if not fails(cand):
                    break
                current = cand
                progress = True
    return current


def repro_snippet(
    scenario: NemesisScenario, seed: int, mode: str = KAMINO,
    hardened: bool = False,
) -> str:
    """A standalone replay program for a (scenario, seed) verdict."""
    retry = (
        "RetryPolicy()" if hardened else "RetryPolicy.disabled()"
    )
    return (
        "from repro.faults import NemesisScenario, run_scenario\n"
        "from repro.replication.chain import RetryPolicy\n\n"
        f"scenario = NemesisScenario.from_dict({scenario.to_dict()!r})\n"
        f"result = run_scenario(scenario, seed={seed}, mode={mode!r}, "
        f"retry={retry})\n"
        "print(result.summary())\n"
        "for problem in result.problems:\n"
        "    print(' -', problem)\n"
    )


def demonstrate_unprotected(
    scenarios: Optional[List[NemesisScenario]] = None,
    seeds: int = 3,
    mode: str = KAMINO,
) -> Optional[tuple]:
    """The media-fault demonstration with teeth: rerun the protected
    media scenarios with the checksum sidecar disabled (``media`` set to
    ``"unprotected"``) and find one (scenario, seed) where the injected
    corruption goes silently wrong — divergent replicas, a corrupted
    acked value at the tail, or an oracle crash.  Returns
    ``(minimized_scenario, seed, snippet)``; ``None`` if everything
    (surprisingly) passed."""
    from .scenarios import MEDIA_CORPUS

    pool = scenarios if scenarios is not None else MEDIA_CORPUS
    for scenario in pool:
        bare = replace(scenario, media="unprotected")
        for seed in range(seeds):
            verdict = run_scenario(bare, seed=seed, mode=mode)
            if not verdict.ok:
                small = minimize(bare, seed, mode=mode)
                return small, seed, repro_snippet(small, seed, mode=mode,
                                                  hardened=True)
    return None

