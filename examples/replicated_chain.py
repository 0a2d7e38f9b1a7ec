"""Kamino-Tx-Chain: replicated in-place updates surviving failures (§5).

Builds a 4-replica Kamino chain (f=2), runs writes through it, then
exercises the recovery protocols: a quick replica reboot repaired from a
neighbour (Figure 9), a fail-stop of the head with successor promotion,
and a new replica joining at the tail.

Run:  python examples/replicated_chain.py
"""

import statistics as st

from repro.nvm import CrashPolicy
from repro.replication import (
    KAMINO,
    TRADITIONAL,
    ChainCluster,
    fail_stop,
    join_new_replica,
    quick_reboot,
    run_clients,
)
from repro.workloads import Op, UPDATE


def write_ops(lo, hi, tag):
    return [Op(UPDATE, k, bytes([tag]) * 16) for k in range(lo, hi)]


def describe(cluster):
    """The chain in order; a replica's role is its position in it."""
    last = len(cluster.chain) - 1
    roles = ["head" if i == 0 else "tail" if i == last else "mid"
             for i in range(len(cluster.chain))]
    return " -> ".join(f"{n.node_id}({r})" for n, r in zip(cluster.chain, roles))


def main() -> None:
    print("building a Kamino-Tx chain tolerating f=2 failures (4 replicas)")
    cluster = ChainCluster(f=2, mode=KAMINO, heap_mb=4, value_size=128)
    print("chain:", describe(cluster))
    print(f"cluster storage: {cluster.total_storage_bytes >> 20} MiB "
          f"(f+2 heaps + one head backup; a naive per-replica mirror would "
          f"need {2 * sum(n.heap.region.size for n in cluster.chain) >> 20} MiB)\n")

    run_clients(cluster, [write_ops(0, 40, tag=1)])
    cluster.assert_replicas_consistent()
    print(f"40 writes committed chain-wide; mean latency "
          f"{st.mean(cluster.write_latencies_ns) / 1e3:.1f} us")

    # --- quick reboot of a middle replica (Figure 9) -------------------------
    print("\nquick-rebooting replica r2 with torn state ...")
    repaired = quick_reboot(cluster, 2, CrashPolicy.RANDOM)
    cluster.assert_replicas_consistent()
    print(f"r2 rolled forward {repaired} bytes from its predecessor; "
          f"replicas consistent again")

    # --- head fail-stop: the successor takes over ----------------------------
    print("\nfail-stopping the head ...")
    fail_stop(cluster, 0)
    print("new chain:", describe(cluster))
    run_clients(cluster, [write_ops(0, 20, tag=2)])
    cluster.assert_replicas_consistent()
    print("new head (with freshly built backup) serves writes; consistent")

    # --- a new replica joins at the tail -------------------------------------
    print("\njoining a replacement replica at the tail ...")
    node = join_new_replica(cluster)
    cluster.assert_replicas_consistent()
    print("chain:", describe(cluster))
    run_clients(cluster, [write_ops(20, 40, tag=3)])
    cluster.assert_replicas_consistent()
    print("writes flow through the repaired chain; all replicas agree")

    # --- compare against traditional chain replication ------------------------
    print("\nlatency comparison vs traditional chain (f=2, 1 KB values):")
    for mode in (TRADITIONAL, KAMINO):
        c = ChainCluster(f=2, mode=mode, heap_mb=16, value_size=1024)
        # preload, then measure in-place updates (inserts are dominated
        # by allocator work on both schemes)
        run_clients(c, [[Op(UPDATE, k, b"\x01" * 64) for k in range(400)]])
        c.write_latencies_ns.clear()
        streams = [
            [Op(UPDATE, 100 * cl + k, bytes([k % 255 + 1]) * 64) for k in range(40)]
            for cl in range(4)
        ]
        run_clients(c, streams)
        print(f"  {mode:12s}: {st.mean(c.write_latencies_ns) / 1e3:6.1f} us/write "
              f"({len(c.chain)} replicas, 4 pipelined clients)")


if __name__ == "__main__":
    main()
