"""Command-line interface: run the paper's experiments without writing code.

Subcommands::

    python -m repro engines
    python -m repro ycsb   --workload A --engines undo,kamino-simple --threads 2,4,8
    python -m repro tpcc   --engines undo,kamino-simple --ops 400
    python -m repro chain  --workload A --f 2 --clients 4
    python -m repro crash  --engine kamino-simple --policy random
    python -m repro check  --engine all --workloads pairs,kv --quick
    python -m repro nemesis --quick
    python -m repro nemesis --media --seeds 3
    python -m repro cluster --groups 2 --shards 2 --quick
    python -m repro scrub  --flips 8 --dead 2
    python -m repro contend --clients 1,2,4,8 --require-crossover 4
    python -m repro serve  --smoke
    python -m repro info   --engine kamino-dynamic --alpha 0.3

Each prints the same fixed-width tables the benchmark suite records.

Engine construction flags (``--alpha`` and friends) are not hard-coded
per subcommand: each engine's registered capabilities declare its
tunable options, and :func:`_engine_kwargs` collects whichever the
parsed arguments carry.
"""

from __future__ import annotations

import argparse
import statistics as st
import sys
from typing import List, Optional

from .bench import format_table, run_tpcc_online, run_ycsb_online
from .errors import UnknownEngineError
from .nvm.inspect import format_report
from .nvm.latency import PROFILES
from .runtime.registry import find_registered, registered_engines


def _parse_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _engine_kwargs(engine_name: str, args) -> dict:
    """Constructor kwargs for ``engine_name`` from parsed CLI arguments.

    The registry declares each engine's tunable options; any the parsed
    namespace actually carries are forwarded.  One helper instead of a
    per-subcommand ``if engine == ...`` ladder.
    """
    info = find_registered(engine_name)
    if info is None:
        return {}
    return {
        opt: getattr(args, opt)
        for opt in info.capabilities.options
        if getattr(args, opt, None) is not None
    }


def cmd_engines(args) -> int:
    rows = []
    for info in registered_engines().values():
        caps = info.capabilities
        engine = info.factory()
        flags = []
        if engine.log_data_bytes:
            flags.append("crit-copy")
        if engine.backup is not None:
            flags.append("backup")
        if not caps.recoverable:
            flags.append("unsafe")
        rows.append([
            info.name,
            ",".join(flags) or "-",
            ",".join(caps.options) or "-",
            caps.description,
        ])
    print(format_table(
        "registered atomicity engines",
        ["engine", "capabilities", "options", "description"],
        rows,
    ))
    return 0


def cmd_ycsb(args) -> int:
    engines = _parse_list(args.engines)
    threads = [int(t) for t in _parse_list(args.threads)]
    model = PROFILES[args.medium]
    rows = []
    for engine in engines:
        kwargs = _engine_kwargs(engine, args)
        for n in threads:
            r = run_ycsb_online(
                engine, args.workload, n, nrecords=args.records, nops=args.ops,
                value_size=args.value_size, model=model, **kwargs,
            )
            rows.append([
                engine, n, r.throughput_kops, r.mean_latency_us,
                r.percentile_latency_us(99),
            ])
    print(format_table(
        f"YCSB-{args.workload}: {args.records} records, {args.ops} ops, "
        f"{model.name} medium",
        ["engine", "threads", "K ops/s", "mean us", "p99 us"],
        rows,
    ))
    return 0


def cmd_tpcc(args) -> int:
    engines = _parse_list(args.engines)
    rows = []
    for engine in engines:
        r = run_tpcc_online(engine, args.threads, nops=args.ops)
        rows.append([engine, r.throughput_kops, r.mean_latency_us])
    print(format_table(
        f"TPC-C-lite: {args.ops} transactions, {args.threads} threads",
        ["engine", "K tx/s", "mean us"],
        rows,
    ))
    return 0


def cmd_chain(args) -> int:
    from .replication import KAMINO, TRADITIONAL, ChainCluster, run_clients
    from .workloads import Op, UPDATE, YCSBWorkload

    rows = []
    for mode in (TRADITIONAL, KAMINO):
        cluster = ChainCluster(f=args.f, mode=mode, heap_mb=16, value_size=1024)
        load = [Op(UPDATE, k, bytes([k % 255 + 1]) * 64) for k in range(args.records)]
        run_clients(cluster, [load])
        cluster.write_latencies_ns.clear()
        workload = YCSBWorkload(args.workload, args.records, 1024, seed=1)
        streams = [list(workload.run_ops(args.ops)) for _ in range(args.clients)]
        run_clients(cluster, streams)
        cluster.assert_replicas_consistent()
        writes = cluster.write_latencies_ns
        rows.append([
            mode, len(cluster.chain),
            st.mean(writes) / 1e3 if writes else 0.0,
            st.mean(cluster.read_latencies_ns) / 1e3 if cluster.read_latencies_ns else 0.0,
            cluster.total_storage_bytes >> 20,
        ])
    print(format_table(
        f"Chain replication, f={args.f}, YCSB-{args.workload}, {args.clients} clients",
        ["mode", "replicas", "write us", "read us", "storage MiB"],
        rows,
    ))
    return 0


def cmd_crash(args) -> int:
    from .errors import DeviceCrashedError
    from .kvstore import KVStore
    from .nvm import CrashPolicy
    from .runtime.context import ExecutionContext
    from .tx import make_engine, reopen_after_crash

    policy = {
        "drop": CrashPolicy.DROP_ALL,
        "keep": CrashPolicy.KEEP_ALL,
        "random": CrashPolicy.RANDOM,
    }[args.policy]
    kwargs = _engine_kwargs(args.engine, args)
    ctx = ExecutionContext.create(
        args.engine, value_size=128, heap_mb=16, seed=args.seed, **kwargs
    )
    device, kv = ctx.device, ctx.kv
    committed = {}
    for k in range(100):
        kv.put(k, bytes([k]) * 16)
        committed[k] = bytes([k]) * 16
    kv.drain()
    device.schedule_crash(args.after, policy)
    survived = 0
    try:
        for k in range(100, 200):
            kv.put(k, bytes([k % 256]) * 16)
            survived = k
        kv.drain()
    except DeviceCrashedError:
        print(f"power failed at device op budget {args.after} "
              f"(~key {survived + 1} in flight)")
    device.cancel_scheduled_crash()
    if not device.crashed:
        device.crash(policy)

    def factory():
        return make_engine(args.engine, **kwargs)

    heap2, _engine, report = reopen_after_crash(device, factory)
    kv2 = KVStore.open(heap2)
    kv2.tree.check_invariants()
    ok = sum(1 for k, v in committed.items() if kv2.get(k)[: len(v)] == v)
    print(f"recovery: {report}")
    print(f"all {ok}/100 pre-crash records intact; B+Tree invariants hold")
    return 0


def cmd_check(args) -> int:
    """Systematic crash-consistency sweep (repro.check)."""
    from .check import (
        ChainCrashExplorer,
        CANNED_WORKLOADS,
        minimize_failure,
        repro_snippet,
        sweep_registry,
    )

    if args.quick:
        explore_kwargs = dict(max_points=24, random_samples=1, max_nested_points=4)
        chain_kwargs = dict(max_points=3, max_device_points=3)
    else:
        explore_kwargs = dict(
            max_points=args.max_points,
            random_samples=args.random_samples,
            max_nested_points=args.max_nested_points,
        )
        chain_kwargs = dict(max_points=12, max_device_points=8)
    explore_kwargs["nested"] = not args.no_nested
    explore_kwargs["workers"] = args.workers
    chain_kwargs["workers"] = args.workers
    if args.media != "off":
        explore_kwargs.update(
            media=args.media,
            corrupt_lines=args.corrupt_lines,
            tree=args.tree,
            stale_lines=args.stale_lines,
        )

    workloads = (
        sorted(CANNED_WORKLOADS)
        if args.workloads == "all"
        else _parse_list(args.workloads)
    )
    unknown = [w for w in workloads if w not in CANNED_WORKLOADS]
    if unknown:
        print(
            f"unknown workload(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(CANNED_WORKLOADS))}",
            file=sys.stderr,
        )
        return 2
    engines = None if args.engine == "all" else _parse_list(args.engine)

    progress = None
    if args.verbose:
        progress = lambda line: print(f"  .. {line}", file=sys.stderr)  # noqa: E731

    reports = sweep_registry(
        workloads=workloads, engines=engines, progress=progress, **explore_kwargs
    )
    failures = [f for r in reports for f in r.failures]
    for report in reports:
        print(report.summary())

    # the in-place chain replica (needs_chain_repair) can only be swept
    # inside a live chain: quick reboots, fail-stops, and device-op
    # crashes mid-propagation, through the same scenario machinery
    chain_failed = 0
    if not args.no_chain and (engines is None or "intent-only" in engines):
        for mode in ("kamino", "traditional"):
            chain_report = ChainCrashExplorer(mode=mode).explore(**chain_kwargs)
            print(chain_report.summary())
            chain_failed += len(chain_report.failures)
            for failure in chain_report.failures[:5]:
                print(f"  FAILURE: {failure}")

    for failure in failures[:5]:
        minimized = minimize_failure(failure)
        print(f"\nFAILURE: {minimized}")
        print(repro_snippet(minimized))
    if failures or chain_failed:
        print(
            f"\n{len(failures) + chain_failed} crash-consistency failure(s)",
            file=sys.stderr,
        )
        return 1
    total = sum(r.states_explored + r.nested_explored for r in reports)
    print(f"all oracles satisfied over {total} crash states")
    return 0


def cmd_nemesis(args) -> int:
    """Seeded fault-injection sweep over the replication chain."""
    from dataclasses import replace

    from .faults import (
        CORPUS,
        MEDIA_CORPUS,
        minimize,
        repro_snippet,
        run_corpus,
        scenario_by_name,
    )
    from .faults.runner import QUICK_SEEDS
    from .replication.chain import RetryPolicy

    if args.list:
        print(format_table(
            "nemesis scenario corpus",
            ["scenario", "actions", "media", "description"],
            [[s.name, len(s.actions), s.media, s.description[:60]] for s in CORPUS],
        ))
        return 0

    if args.scenarios:
        scenarios = []
        for name in _parse_list(args.scenarios):
            scenario = scenario_by_name(name)
            if scenario is None:
                print(f"unknown scenario '{name}'; see --list", file=sys.stderr)
                return 2
            scenarios.append(scenario)
    elif args.media:
        scenarios = list(MEDIA_CORPUS)
    else:
        scenarios = None  # the corpus (its smoke subset under --quick)
    seeds = min(args.seeds, QUICK_SEEDS) if args.quick else args.seeds
    # --unhardened with --media demonstrates the *media* failure class:
    # same faults, detection disabled (retries stay on — they are not the
    # defence under test)
    if args.unhardened and args.media:
        scenarios = [replace(s, media="unprotected") for s in scenarios]
        retry = RetryPolicy()
    else:
        retry = RetryPolicy.disabled() if args.unhardened else RetryPolicy()

    results = run_corpus(scenarios, seeds=seeds, mode=args.mode, f=args.f,
                         retry=retry, quick=args.quick)
    rows = [
        [r.scenario, r.seed, f"{r.completed_ops}/{r.total_ops}",
         r.retransmissions, r.net.dropped if r.net else 0,
         "ok" if r.ok else f"FAIL({len(r.problems)})"]
        for r in results
    ]
    failures = [r for r in results if not r.ok]
    unhardened_note = ""
    if args.unhardened:
        unhardened_note = (
            ", UNPROTECTED (media detection disabled)" if args.media
            else ", UNHARDENED (retries disabled)"
        )
    print(format_table(
        f"nemesis sweep: {args.mode}, f={args.f}, {seeds} seed(s)"
        + unhardened_note,
        ["scenario", "seed", "ops", "retx", "dropped", "verdict"],
        rows,
    ))
    for r in failures[:5]:
        for problem in r.problems[:3]:
            print(f"  {r.scenario} seed={r.seed}: {problem}")

    if args.unhardened:
        # the demonstration: the unhardened chain is SUPPOSED to fail;
        # minimize the first failure and print its replay program
        if not failures:
            print("unhardened configuration unexpectedly survived every "
                  "scenario", file=sys.stderr)
            return 1
        seed = failures[0].seed
        scenario = next(
            s for s in scenarios or CORPUS if s.name == failures[0].scenario
        )
        small = minimize(scenario, seed, mode=args.mode, f=args.f, retry=retry)
        print(f"\nminimized failing repro ({small.name}, seed={seed}, "
              f"{small.n_clients} client(s) x {small.ops_per_client} op(s)):\n")
        print(repro_snippet(small, seed, mode=args.mode,
                            hardened=bool(args.media)))
        return 0
    if failures:
        print(f"\n{len(failures)} nemesis failure(s)", file=sys.stderr)
        return 1
    print(f"all {len(rows)} nemesis runs converged")
    return 0


def cmd_cluster(args) -> int:
    """Sharded-cluster demo + oracle suite.

    Three stages, each gating the exit code:

    1. a live demo — load a multi-group cluster, run YCSB clients while
       the hottest shard migrates to the least-loaded group, then check
       convergence and placement;
    2. the sharded nemesis corpus (rebalance under partition, coordinator
       power failures, hot-shard skew) across seeds;
    3. a sampled migration-window crash sweep (skippable).
    """
    from .check import MigrationCrashExplorer
    from .cluster import ShardedCluster
    from .faults import CLUSTER_CORPUS, run_corpus
    from .replication import run_clients
    from .workloads import Op, UPDATE, YCSBWorkload

    records = 48 if args.quick else args.records
    ops = 30 if args.quick else args.ops
    clients = 2 if args.quick else args.clients
    seeds = 1 if args.quick else args.seeds
    failed = 0

    # -- stage 1: live demo with a mid-run migration -------------------------
    cluster = ShardedCluster(
        groups=args.groups, shards_per_group=args.shards, f=args.f,
        heap_mb=4, value_size=256, seed=args.seed,
    )
    load = [Op(UPDATE, k, bytes([k % 255 + 1]) * 64) for k in range(records)]
    run_clients(cluster, [load])
    cluster.sim.schedule(150_000.0, lambda: cluster.migrate_shard("hottest"))
    workload = YCSBWorkload("A", records, 256, seed=args.seed + 1)
    streams = [list(workload.run_ops(ops)) for _ in range(clients)]
    run_clients(cluster, streams)
    cluster.drain()

    problems = cluster.convergence_problems()
    rows = []
    for gid, group in enumerate(cluster.groups):
        shards = cluster.map.shards_of(gid)
        rows.append([
            f"g{gid}", ",".join(str(s) for s in shards),
            sum(cluster.shard_load.get(s, 0) for s in shards),
            sum(1 for _ in group.tail.kv.tree.items()),
            group.committed,
        ])
    print(format_table(
        f"cluster: {args.groups} groups x {args.shards} shards, f={args.f}, "
        f"map v{cluster.map_version}",
        ["group", "shards", "routed", "keys", "committed"],
        rows,
    ))
    if cluster.migration_reports:
        print(format_table(
            "online migrations",
            ["shard", "route", "copied", "skipped", "catchup", "parked",
             "purged", "phase", "ms"],
            [[m.shard, f"g{m.src_group}->g{m.dst_group}", m.copied_keys,
              m.skipped_keys, m.catchup_keys, m.parked_ops, m.purged_keys,
              m.phase, round(m.duration_ns / 1e6, 3)]
             for m in cluster.migration_reports],
        ))
    for problem in problems:
        print(f"  DEMO FAILURE: {problem}")
    failed += len(problems)

    # -- stage 2: the sharded nemesis corpus ---------------------------------
    rows = []
    for r in run_corpus(CLUSTER_CORPUS, seeds=seeds, mode=args.mode, f=args.f,
                        workers=args.workers):
        rows.append([
            r.scenario, r.seed, f"{r.completed_ops}/{r.total_ops}",
            r.migrations, r.coordinator_crashes, r.map_version,
            "ok" if r.ok else f"FAIL({len(r.problems)})",
        ])
        if not r.ok:
            failed += 1
            for problem in r.problems[:3]:
                print(f"  {r.scenario} seed={r.seed}: {problem}")
    print(format_table(
        f"sharded nemesis corpus: {args.mode}, {seeds} seed(s)",
        ["scenario", "seed", "ops", "migs", "coord-crash", "map", "verdict"],
        rows,
    ))

    # -- stage 3: migration-window crash sweep -------------------------------
    if not args.no_sweep:
        sweep = MigrationCrashExplorer(mode=args.mode).explore(
            max_points=2 if args.quick else args.sweep_points,
            reboots=not args.quick,
            workers=args.workers,
        )
        print(sweep.summary())
        for failure in sweep.failures[:5]:
            print(f"  SWEEP FAILURE: {failure}")
        failed += len(sweep.failures)

    if failed:
        print(f"\n{failed} cluster failure(s)", file=sys.stderr)
        return 1
    print("cluster demo, nemesis corpus, and migration sweep all converged")
    return 0


def cmd_scrub(args) -> int:
    """Media-fault demo: inject bit rot + dead lines, scrub, verify.

    With the checksum sidecar on (the default), every injected fault
    must end repaired, quarantined, or typed — silent corruption is a
    failure (exit 1).  With ``--no-protect`` the same faults go
    undetected and the verification pass counts the silently wrong
    records, demonstrating the failure class the scrubber closes.

    ``--stale N`` adds the adversarial consistent replay (old bytes +
    forged old CRC): checksum-only runs serve stale data silently
    (``--expect-silent`` turns that demonstration into the success
    criterion), while ``--tree`` runs detect it against the published
    Merkle root and repair from the backup mirror.
    """
    import random as _random

    from .errors import MediaError
    from .integrity import Scrubber
    from .runtime.context import ExecutionContext

    if args.tree and args.no_protect:
        print("--tree requires the checksum sidecar (drop --no-protect)",
              file=sys.stderr)
        return 2
    records = 64 if args.quick else args.records
    kwargs = _engine_kwargs(args.engine, args)
    ctx = ExecutionContext.create(
        args.engine, value_size=128, heap_mb=4 if args.quick else 16,
        seed=args.seed, **kwargs,
    )
    kv, device, heap = ctx.kv, ctx.device, ctx.heap
    expect = {}
    for k in range(records):
        value = bytes([(k * 7 + 3) % 256]) * 64
        kv.put(k, value)
        expect[k] = value
    kv.drain()

    media = device.attach_media(
        seed=args.seed, protect=not args.no_protect, tree=args.tree,
    )
    snap = None
    if args.stale or args.tree:
        # a second update round through the *guarded* persist path: the
        # sidecar and tree now stream every line the workload touches —
        # and, for --stale, these are the writes the replay rolls back
        if args.stale:
            snap = media.snapshot_lines(heap.live_spans())
        for k in range(records):
            value = bytes([(k * 11 + 5) % 256]) * 64
            kv.put(k, value)
            expect[k] = value
        kv.drain()
    if snap is not None:
        replayed = media.replay_changed(
            snap, args.stale, _random.Random(args.seed ^ 0x5A1E)
        )
        print(f"replayed {len(replayed)} stale line(s), each with its "
              f"matching old CRC forged into the sidecar")
    media.inject_flips(args.flips, ranges=heap.live_spans())
    backup = ctx.engine.backup
    if args.dead and backup is not None:
        media.kill_lines(args.dead, ranges=[(backup.region.offset, backup.region.size)])

    if media.protected:
        report = Scrubber(device, pool=heap.region.pool,
                          engine=ctx.engine).scrub_once()
        print(f"scrub: {report.summary()}")

    intact = typed = silent = 0
    for k, value in expect.items():
        try:
            got = kv.get(k)
        except MediaError as exc:
            typed += 1
            print(f"  key {k}: typed degrade ({type(exc).__name__})")
            continue
        except Exception as exc:
            # a corrupted pointer/header crashing the reader IS silent
            # corruption biting — there was no typed media error first
            silent += 1
            print(f"  key {k}: reader crashed on corrupt state "
                  f"({type(exc).__name__})")
            continue
        if got is not None and got[: len(value)] == value:
            intact += 1
        else:
            silent += 1
    stats = device.stats
    print(f"injected: {stats.media_flips} flips, {stats.media_dead} dead "
          f"lines, {stats.media_stale} stale replays")
    print(f"detected: {stats.media_detected}, repaired: {stats.media_repaired}")
    print(f"records: {intact}/{records} intact, {typed} typed errors, "
          f"{silent} silently corrupt")
    if media.tree is not None:
        tree_stats = media.tree.stats()
        print(f"tree: depth={tree_stats['depth']} "
              f"leaf_updates={tree_stats['leaf_updates']} "
              f"node_hashes={tree_stats['node_hashes']} "
              f"batches={tree_stats['batches']}")

    if args.expect_silent:
        if silent == 0:
            print("expected silent corruption but every record verified; "
                  "the defence under test unexpectedly held", file=sys.stderr)
            return 1
        print("silent corruption demonstrated — the failure class the "
              "integrity tree exists to close")
        return 0
    if args.no_protect:
        if silent == 0:
            print("unprotected media unexpectedly served every record "
                  "correctly; raise --flips", file=sys.stderr)
            return 1
        print("unprotected media served silently corrupt data — the "
              "failure the checksum sidecar exists to catch")
        return 0
    if silent or typed:
        print(f"{silent + typed} record(s) not fully repaired", file=sys.stderr)
        return 1
    print("every injected fault repaired; all records verified intact")
    return 0


def cmd_contend(args) -> int:
    """The contended multi-client zipfian battery (see bench.contention)."""
    from .bench.contention import run_contention_sweep

    engines = _parse_list(args.engines)
    clients = [int(t) for t in _parse_list(args.clients)]
    model = PROFILES[args.medium]
    sweep = run_contention_sweep(
        engines=engines,
        client_counts=clients,
        workload_name=args.workload,
        nrecords=args.records,
        nops=args.ops,
        seed=args.seed,
        model=model,
        baseline=args.baseline,
        challenger=args.challenger,
        engine_kwargs={e: _engine_kwargs(e, args) for e in engines},
    )
    rows = []
    for c in sweep.cells:
        rows.append([
            c.engine,
            c.nclients,
            round(c.duration_ns / 1000, 1),
            round(c.throughput_kops, 2),
            round(c.mean_latency_ns / 1000, 2),
            c.dependent_waits,
            c.lock_stats.get("stripes", "-"),
        ])
    print(format_table(
        f"contended YCSB-{args.workload}: {args.records} hot records, "
        f"{args.ops} ops, {model.name} medium, zipfian",
        ["engine", "clients", "dur us", "K ops/s", "mean us", "dep-waits", "stripes"],
        rows,
    ))
    crossover = sweep.crossover_clients()
    max_clients = max(clients)
    speedup = sweep.speedup_at(max_clients)
    if crossover is None:
        print(f"no crossover: {sweep.challenger} never beats {sweep.baseline}")
    else:
        print(
            f"crossover at {crossover} clients; "
            f"{sweep.challenger} is {speedup:.3f}x {sweep.baseline} "
            f"at {max_clients} clients"
        )
    if args.require_crossover is not None:
        if crossover is None or crossover > args.require_crossover:
            print(
                f"FAIL: crossover {crossover} exceeds required "
                f"<= {args.require_crossover} clients",
                file=sys.stderr,
            )
            return 1
        print(f"ok: crossover <= {args.require_crossover} clients")
    return 0


def cmd_serve(args) -> int:
    """The serving front door: boot the asyncio server, or run the
    self-contained smoke gate (``--smoke``) CI uses.

    The smoke gate boots on an ephemeral port and drives the whole
    surface through a real socket: a pipelined burst, a durable
    procedure crashed mid-flight by a scheduled power failure of the
    procedure log (recovered *inside the request*), an explicit
    CRASH/resume cycle, exactly-once re-submission, admission control
    under a tripped breaker, and the METRICS endpoint.
    """
    import asyncio
    import json

    from .errors import AdmissionRejected
    from .serve import ReproServer, ServeClient

    server = ReproServer(
        host=args.host, port=args.port, groups=args.groups,
        shards_per_group=args.shards, f=args.f, seed=args.seed,
    )

    if not args.smoke:
        async def _forever():
            host, port = await server.start()
            print(f"repro serve: listening on {host}:{port} "
                  f"({args.groups} group(s) x {args.shards} shard(s), "
                  f"f={args.f})")
            await server.serve_forever()

        try:
            asyncio.run(_forever())
        except KeyboardInterrupt:
            print("repro serve: shutting down")
        return 0

    async def _smoke() -> int:
        problems: List[str] = []

        def check(cond: bool, label: str) -> None:
            status = "ok" if cond else "FAIL"
            print(f"  [{status}] {label}")
            if not cond:
                problems.append(label)

        host, port = await server.start()
        print(f"serve smoke: {host}:{port}")
        client = await ServeClient.connect(host, port)
        reply = await client.execute("PING")
        check(reply == ("simple", "PONG"), "PING round-trip")

        # pipelined burst: one write carries the whole batch
        burst = [["PUT", 100 + i, b"%019d" % (100 + i)] for i in range(8)]
        burst += [["GET", 100 + i] for i in range(8)]
        replies = await client.pipeline(burst)
        check(
            all(r == ("simple", "OK") for r in replies[:8])
            and all(
                int(replies[8 + i][1].rstrip(b"\x00")) == 100 + i
                for i in range(8)
            ),
            f"pipelined burst of {len(burst)} commands",
        )

        # durable procedure + exactly-once re-submission (a retried pid
        # surfaces as +RESUMED <stored result> on the wire)
        reply = await client.proc("incr", "smoke-incr", 100, 7)
        check(json.loads(reply[1]) == 107, "PROC incr")
        reply = await client.execute("PROC", "incr", "smoke-incr", 100, 7)
        check(
            reply[0] == "simple" and reply[1].startswith("RESUMED")
            and json.loads(reply[1].split(" ", 1)[1]) == 107,
            "re-submitted pid replays stored result (RESUMED)",
        )

        # kill the procedure log mid-procedure: the scheduled power
        # failure fires during the transfer's frame appends and the
        # server must recover + resume inside the request
        await client.put(200, b"%019d" % 100)
        await client.put(201, b"%019d" % 100)
        server.store.device.schedule_crash(20)
        reply = await client.proc("transfer", "smoke-xfer", 200, 201, 30)
        result = (json.loads(reply[1]) if reply[0] == "bulk"
                  else json.loads(reply[1].split(" ", 1)[1]))
        check(result == {"src": 70, "dst": 130},
              "durable procedure crashed mid-flight still answers")
        check(server.crashes_recovered >= 1,
              f"server recovered the log ({server.crashes_recovered} time(s))")
        src = int((await client.get(200)).rstrip(b"\x00"))
        dst = int((await client.get(201)).rstrip(b"\x00"))
        check((src, dst) == (70, 130),
              f"transfer applied exactly once (200={src}, 201={dst})")

        # explicit crash/resume cycle plus exactly-once re-submission
        reply = await client.execute("CRASH")
        check(reply[0] == "simple" and reply[1].startswith("RECOVERED"),
              f"CRASH -> {reply[1]}")
        reply = await client.execute("PROC", "transfer", "smoke-xfer",
                                     200, 201, 30)
        check(
            reply[0] == "simple" and reply[1].startswith("RESUMED"),
            "pid re-submitted after reboot replays, never re-executes",
        )

        # admission control: a tripped breaker sheds with RETRY-AFTER
        server.cluster.trip_breaker()
        try:
            await client.put(300, b"x")
            check(False, "tripped breaker sheds writes with RETRY-AFTER")
        except AdmissionRejected as exc:
            check(exc.retry_after_ns > 0,
                  f"tripped breaker sheds writes "
                  f"(retry after {exc.retry_after_ns:.0f}ns)")
        server.cluster.close_breaker()
        await client.put(300, b"x")
        check(True, "write readmitted after the breaker closed")

        metrics = json.loads(await client.metrics())
        check(
            metrics["admission"]["rejected_degraded"] >= 1
            and metrics["cluster"]["breaker_transitions"] >= 2
            and metrics["procedures"]["recoveries"] >= 2
            and "procedure_log_device" in metrics,
            "METRICS reports admission, breaker + recovery counters",
        )

        await client.execute("QUIT")
        await client.close()
        await server.stop()
        if problems:
            print(f"serve smoke: {len(problems)} FAILURE(S)")
            return 1
        print("serve smoke: all checks passed")
        return 0

    return asyncio.run(_smoke())


def cmd_info(args) -> int:
    from .runtime.context import ExecutionContext

    kwargs = _engine_kwargs(args.engine, args)
    ctx = ExecutionContext.create(
        args.engine, value_size=256, heap_mb=max(1, args.mb // 3), **kwargs
    )
    kv = ctx.kv
    for k in range(args.records):
        kv.put(k, bytes([k % 256]) * 100)
    kv.drain()
    print(format_report(ctx.heap))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kamino-Tx reproduction: run experiments from the command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("engines", help="list registered engines and capabilities")
    p.set_defaults(fn=cmd_engines)

    p = sub.add_parser("ycsb", help="YCSB throughput/latency comparison")
    p.add_argument("--workload", default="A", choices=list("ABCDEF"))
    p.add_argument("--engines", default="undo,kamino-simple",
                   help="comma-separated engine names")
    p.add_argument("--threads", default="4", help="comma-separated thread counts")
    p.add_argument("--records", type=int, default=500)
    p.add_argument("--ops", type=int, default=1000)
    p.add_argument("--value-size", type=int, default=1008)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--medium", default="nvdimm", choices=sorted(PROFILES))
    p.set_defaults(fn=cmd_ycsb)

    p = sub.add_parser("tpcc", help="TPC-C-lite comparison")
    p.add_argument("--engines", default="undo,kamino-simple")
    p.add_argument("--ops", type=int, default=300)
    p.add_argument("--threads", type=int, default=4)
    p.set_defaults(fn=cmd_tpcc)

    p = sub.add_parser("chain", help="replicated chain comparison")
    p.add_argument("--workload", default="A", choices=list("ABCDEF"))
    p.add_argument("--f", type=int, default=2, help="failures to tolerate")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--records", type=int, default=200)
    p.add_argument("--ops", type=int, default=100, help="ops per client")
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("crash", help="crash-injection + recovery demo")
    p.add_argument("--engine", default="kamino-simple")
    p.add_argument("--policy", default="random", choices=["drop", "keep", "random"])
    p.add_argument("--after", type=int, default=500, help="device ops until power fail")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(fn=cmd_crash)

    p = sub.add_parser(
        "check", help="systematic crash-consistency sweep with semantic oracles"
    )
    p.add_argument("--engine", default="all",
                   help="comma-separated engine names, or 'all' (registry sweep)")
    p.add_argument("--workloads", default="pairs",
                   help="comma-separated canned workloads, or 'all'")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized sweep (sampled crash points)")
    p.add_argument("--max-points", type=int, default=None,
                   help="cap outer crash points per engine (default exhaustive)")
    p.add_argument("--random-samples", type=int, default=1,
                   help="RANDOM-policy torn-write lotteries per crash state")
    p.add_argument("--max-nested-points", type=int, default=4,
                   help="cap nested (crash-during-recovery) points per state")
    p.add_argument("--no-nested", action="store_true",
                   help="skip nested recovery crashes")
    p.add_argument("--no-chain", action="store_true",
                   help="skip the replication-chain intervention sweep")
    p.add_argument("--workers", type=int, default=0,
                   help="fan crash points over a process pool; 0 = serial, "
                   "-1 = one per CPU (verdicts are worker-count invariant)")
    p.add_argument("--media", default="off",
                   choices=["off", "protected", "unprotected"],
                   help="inject media corruption into every crash image "
                   "(protected = sidecar + scrub on recovery)")
    p.add_argument("--corrupt-lines", type=int, default=2,
                   help="random bit-flipped lines per crash image")
    p.add_argument("--tree", action="store_true",
                   help="attach a persistent integrity tree (protected "
                   "media only)")
    p.add_argument("--stale-lines", type=int, default=0,
                   help="adversarially replay N changed lines (with "
                   "forged stale CRCs) into every crash image")
    p.add_argument("--verbose", action="store_true",
                   help="progress lines on stderr")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "nemesis", help="seeded fault injection (lossy links, partitions, "
        "crash/replace) with convergence oracles"
    )
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: scenario subset, 2 seeds")
    p.add_argument("--scenarios", default="",
                   help="comma-separated scenario names (default: full corpus)")
    p.add_argument("--seeds", type=int, default=5, help="seeds per scenario")
    p.add_argument("--mode", default="kamino", choices=["kamino", "traditional"])
    p.add_argument("--f", type=int, default=2, help="failures to tolerate")
    p.add_argument("--unhardened", action="store_true",
                   help="disable the defence under test (retries, or media "
                   "protection with --media) and demonstrate the failure "
                   "(prints a minimized replayable repro)")
    p.add_argument("--media", action="store_true",
                   help="run the media-fault subset (bit rot, dead lines) "
                   "with scrub-and-repair")
    p.add_argument("--list", action="store_true", help="list the corpus")
    p.set_defaults(fn=cmd_nemesis)

    p = sub.add_parser(
        "cluster", help="sharded multi-group cluster: online-migration "
        "demo, sharded nemesis corpus, migration crash sweep"
    )
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: small load, 1 seed, sampled sweep")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--shards", type=int, default=2,
                   help="shards per group at bootstrap")
    p.add_argument("--f", type=int, default=2, help="failures to tolerate")
    p.add_argument("--records", type=int, default=128)
    p.add_argument("--ops", type=int, default=80, help="ops per client")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--seeds", type=int, default=3, help="seeds per scenario")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="kamino", choices=["kamino", "traditional"])
    p.add_argument("--no-sweep", action="store_true",
                   help="skip the migration-window crash sweep")
    p.add_argument("--sweep-points", type=int, default=6,
                   help="sampled event boundaries in the crash sweep")
    p.add_argument("--workers", type=int, default=0,
                   help="fan the sharded nemesis corpus and the migration "
                   "crash sweep over a process pool; 0 = serial, -1 = one "
                   "per CPU")
    p.set_defaults(fn=cmd_cluster)

    p = sub.add_parser(
        "scrub", help="media-fault demo: inject bit rot + dead lines, "
        "scrub-and-repair, verify every record"
    )
    p.add_argument("--engine", default="kamino-simple")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke: small heap, 64 records")
    p.add_argument("--records", type=int, default=256)
    p.add_argument("--flips", type=int, default=8,
                   help="latent bit flips injected into live heap bytes")
    p.add_argument("--dead", type=int, default=2,
                   help="uncorrectable lines injected into the backup mirror")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-protect", action="store_true",
                   help="drop the checksum sidecar: same faults, no "
                   "detection (the demonstration)")
    p.add_argument("--tree", action="store_true",
                   help="attach a persistent integrity tree over the pool "
                   "(detects stale-CRC replays the sidecar cannot)")
    p.add_argument("--stale", type=int, default=0,
                   help="adversarially replay N updated main-copy lines "
                   "with their old bytes AND old CRCs (consistent "
                   "corruption; only --tree catches it)")
    p.add_argument("--expect-silent", action="store_true",
                   help="success (exit 0) iff silent corruption is "
                   "demonstrated — the must-fail CI leg for "
                   "checksum-only protection under --stale")
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser(
        "contend",
        help="contended multi-client zipfian battery (crossover gate)",
    )
    p.add_argument("--workload", default="A", help="YCSB mix letter")
    p.add_argument("--engines", default="kamino-dynamic,kamino-finegrained")
    p.add_argument("--clients", default="1,2,4,8",
                   help="comma-separated simulated client counts")
    p.add_argument("--records", type=int, default=240,
                   help="hot key-space width (small => real collisions)")
    p.add_argument("--ops", type=int, default=720)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--medium", default="nvdimm", choices=sorted(PROFILES))
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--stripes", type=int, default=16)
    p.add_argument("--baseline", default="kamino-dynamic")
    p.add_argument("--challenger", default="kamino-finegrained")
    p.add_argument("--require-crossover", type=int, default=None,
                   help="exit 1 unless the challenger beats the baseline "
                   "at this client count or fewer (CI gate)")
    p.set_defaults(fn=cmd_contend)

    p = sub.add_parser(
        "serve",
        help="asyncio serving front door over a sharded cluster",
        description="Boot the RESP-like TCP server fronting a "
        "ShardedCluster, or run the self-contained --smoke gate "
        "(pipelined burst, mid-flight procedure crash + resume, "
        "exactly-once assert, admission control, metrics).",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 picks an ephemeral one)")
    p.add_argument("--groups", type=int, default=2)
    p.add_argument("--shards", type=int, default=2, help="shards per group")
    p.add_argument("--f", type=int, default=1, help="failures to tolerate")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the smoke gate against an ephemeral server "
                   "and exit (CI)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("info", help="inspect a pool/heap layout")
    p.add_argument("--engine", default="kamino-simple")
    p.add_argument("--mb", type=int, default=64, help="device size in MiB")
    p.add_argument("--records", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnknownEngineError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
