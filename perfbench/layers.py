"""Per-layer metrics of one traced run.

Two sources: the tracer's spans (self time, calls, caller -> callee
counts) and the program's own public counters, read by
:mod:`perfbench.workloads` into ``Measurement.counts`` (deterministic:
they repeat exactly for a fixed seed and size).  A metric that does not
apply to a workload, or whose probe target no longer exists, is
``None``.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Optional

from .trace import LAYERS, Tracer
from .workloads import Measurement

Metrics = Dict[str, Optional[float]]


def _ratio(num: Optional[float], den: Optional[float], scale: float = 1.0) -> Optional[float]:
    if num is None or not den:
        return None
    return num / den * scale


def _median(values: Any) -> Optional[float]:
    return statistics.median(values) if values else None


def span_metrics(tracer: Tracer, traced: Measurement, inner_ns: float, outer_ns: float) -> Metrics:
    """The generic ``<layer>.self_us_per_op`` / ``<layer>.calls_per_op``
    pairs plus the metrics defined on particular spans."""
    ops = traced.attempted
    layers = tracer.by_layer(traced.wall_ns, inner_ns, outer_ns)
    out: Metrics = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_op"] = layers[layer]["self_ns"] / ops / 1e3
        out[f"{layer}.calls_per_op"] = layers[layer]["calls"] / ops
    out["bench.span_overhead_us_per_op"] = layers["span_overhead"]["self_ns"] / ops / 1e3
    attributed = sum(layers[layer]["self_ns"] for layer in LAYERS)
    out["serve.front_door_frac"] = _ratio(
        layers["serve"]["self_ns"] + layers["other"]["self_ns"], attributed
    ) if layers["serve"]["calls"] else None

    calls, self_of, incl_of = tracer.calls_of, tracer.self_of, tracer.incl_of
    txs = traced.counts.get("tx.count") or calls("Engine.commit")
    out["heap.field_reads_per_op"] = (
        calls("field.__get__", "PersistentHeap.read_object_field") / ops
    )
    out["heap.field_writes_per_op"] = calls("PersistentHeap.write_object_field") / ops
    out["heap.allocs_per_kop"] = (
        calls("PersistentHeap.alloc", "PersistentHeap.alloc_blob") / ops * 1e3
    )
    out["tx.log.appends_per_tx"] = _ratio(calls("TxLog.append"), txs)
    out["runtime.stats_snapshots_per_tx"] = _ratio(calls("NVMStats.snapshot"), txs)
    # the tree builds node handles itself (no ``heap.deref``), so what a
    # lookup dereferences shows as heap spans directly under its span
    out["kvstore.derefs_per_lookup"] = _ratio(
        tracer.children_in_layer("BPlusTree.get", "heap"), calls("BPlusTree.get")
    )
    out["kvstore.get_us_p50"] = _ratio(_median(tracer.samples_of("KVStore.get")), 1e3)
    out["kvstore.put_us_p50"] = _ratio(_median(tracer.samples_of("KVStore.put")), 1e3)
    requests = calls("ReproServer.handle_batch")
    out["serve.parse_us_per_req"] = _ratio(
        self_of("ProtocolReader.feed", "ProtocolReader.pop_all"), requests, 1e-3
    )
    out["replication.node_exec_us_per_op"] = (
        incl_of("ReplicaNode.execute") / ops / 1e3 if calls("ReplicaNode.execute") else None
    )
    replays = calls("CrashExplorer.replay")
    out["check.replay_ms_p50"] = _ratio(_median(tracer.samples_of("CrashExplorer.replay")), 1e6)
    out["check.oracle_ms_per_scenario"] = _ratio(
        incl_of("oracle.check_against_ledger", "oracle.verify_backup_consistency",
                "CheckWorkload.observe", "CheckWorkload.validate"),
        replays, 1e-6,
    )
    out["nvm.crash_image_ms_per_scenario"] = _ratio(
        self_of("NVMDevice.crash", "NVMDevice.clone_durable",
                "NVMDevice.overlay_fingerprint", "NVMDevice.__init__"),
        replays, 1e-6,
    )
    out["tx.recover_ms_per_scenario"] = _ratio(
        incl_of("recovery.reopen_after_crash"), replays, 1e-6
    )
    return out


def count_metrics(measured: Measurement, extra: Dict[str, float]) -> Metrics:
    """Metrics read from the program's own counters (all exact)."""
    counts = measured.counts
    ops = measured.attempted
    get = counts.get
    out: Metrics = {}
    for name in ("loads", "load_bytes", "stores", "flushed_lines", "fences", "copy_bytes"):
        out[f"nvm.{name}_per_op"] = _ratio(get(f"nvm.{name}"), ops)
    moved = None if get("nvm.store_bytes") is None else get("nvm.store_bytes") + get("nvm.copy_bytes")
    out["nvm.write_amp"] = _ratio(moved, get("user_bytes"))
    txs = get("tx.count")
    out["tx.intents_per_tx"] = _ratio(get("tx.intents"), txs)
    out["tx.crit_bytes_per_op"] = _ratio(get("tx.crit_bytes"), ops)
    out["tx.backup.async_bytes_per_op"] = _ratio(get("tx.async_bytes"), ops)
    out["tx.lock.read_acquires_per_op"] = _ratio(get("tx.lock.read_acquires"), ops)
    out["tx.lock.write_acquires_per_op"] = _ratio(get("tx.lock.write_acquires"), ops)
    out["tx.lock.dependent_waits_per_kop"] = _ratio(get("tx.lock.dependent_waits"), ops, 1e3)
    out["tx.backup.bytes_per_user_byte"] = _ratio(
        extra.get("tx.backup.storage_bytes"), extra.get("live_user_bytes")
    )
    out["tx.recover_ms"] = extra.get("tx.recover_ms")
    out["tx.recover_sim_us"] = extra.get("tx.recover_sim_us")
    out["kvstore.btree_height"] = extra.get("kvstore.btree_height")
    out["sim.events_per_op"] = _ratio(get("sim.events"), ops)
    out["sim.bandwidth_util"] = _ratio(get("sim.bandwidth_busy_ns"), get("sim.duration_ns"))
    out["sim.log_mgmt_util"] = _ratio(get("sim.log_mgmt_busy_ns"), get("sim.duration_ns"))
    out["replication.msgs_per_op"] = _ratio(get("replication.msgs"), ops)
    out["replication.retransmissions"] = get("replication.retransmissions")
    out["cluster.committed"] = get("cluster.committed")
    out["cluster.map_refreshes"] = get("cluster.map_refreshes")
    out["serve.gateway.retries_per_kreq"] = _ratio(get("serve.gateway.retries"), ops, 1e3)
    decided = None
    if get("serve.admission.admitted") is not None and get("serve.admission.rejected") is not None:
        decided = get("serve.admission.admitted") + get("serve.admission.rejected")
    out["serve.admission.rejected_frac"] = _ratio(get("serve.admission.rejected"), decided)
    explored, nested, pruned = get("check.explored"), get("check.nested"), get("check.pruned")
    if explored is not None:
        out["check.scenarios"] = explored + nested
        out["check.explored"] = explored
        out["check.nested"] = nested
        out["check.pruned_frac"] = _ratio(pruned, explored + pruned)
    else:
        for name in ("scenarios", "explored", "nested", "pruned_frac"):
            out[f"check.{name}"] = None
    out["sim_ns_per_op"] = measured.sim_ns_per_op
    out["sim_p99_us"] = measured.sim_p99_us
    out["failed_frac"] = measured.failed / measured.attempted
    return out
