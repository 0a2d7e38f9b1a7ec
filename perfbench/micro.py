"""Layer micro-cells: tight loops on the real objects, one per layer.

``python -m perfbench micro`` times each cell with a fixed iteration
count (grown until one repeat takes ``--min-seconds``), five repeats,
and prints the median nanoseconds per iteration.  Device cells run on
both byte-store backends; numpy cells read ``null`` where numpy is not
importable.  A cell whose target no longer exists reads ``null`` and is
listed under ``missing_probes``.

These are the "layer by layer" half of the benchmark: they predict, they
do not gate.  ``micro.nvm.pure.*`` against ``micro.nvm.numpy.*`` on the
sub-line cells predicts the YCSB/TPC-C workloads; the ``crash_clone_fp``
cell predicts ``crash_sweep_kv``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import ROOT, use_repo_sources

_clock = time.perf_counter_ns

#: a cell is ``build() -> body``; ``body(n)`` runs ``n`` iterations
Cell = Callable[[], Callable[[int], None]]

_SPAN = 1 << 20  # device cells walk this many bytes, line by line + 64


def _device(backend: str, size: int = 16 << 20) -> Any:
    from repro.nvm.backend import device_class

    return device_class(backend)(size, seed=0)


def _read_cell(backend: str, size: int) -> Cell:
    def build() -> Callable[[int], None]:
        read = _device(backend).read
        stride = max(size, 64) + 64

        def body(n: int) -> None:
            addr = 0
            for _ in range(n):
                read(addr, size)
                addr = (addr + stride) % _SPAN

        return body

    return build


def _write_cell(backend: str, size: int) -> Cell:
    def build() -> Callable[[int], None]:
        device = _device(backend)
        write, payload = device.write, b"\xa5" * size
        stride = max(size, 64) + 64

        def body(n: int) -> None:
            addr = 0
            for _ in range(n):
                write(addr, payload)
                addr = (addr + stride) % _SPAN

        return body

    return build


def _flush_cell(backend: str) -> Cell:
    """One 64 B store + the flush of that line (a clean line's flush
    takes a shorter path, so the store is part of the cell)."""

    def build() -> Callable[[int], None]:
        device = _device(backend)
        write, flush, payload = device.write, device.flush, b"\x5a" * 64

        def body(n: int) -> None:
            addr = 0
            for _ in range(n):
                write(addr, payload)
                flush(addr, 64)
                addr = (addr + 128) % _SPAN

        return body

    return build


def _fence_cell(backend: str) -> Cell:
    def build() -> Callable[[int], None]:
        fence = _device(backend).fence

        def body(n: int) -> None:
            for _ in range(n):
                fence()

        return body

    return build


def _crash_clone_cell(backend: str) -> Cell:
    """What one crash scenario costs the device: a few dirty lines, the
    crash-state fingerprint, a durable clone, power failure, restart --
    on a pool the size the crash checker uses."""

    def build() -> Callable[[int], None]:
        device = _device(backend, 8 << 20)
        payload = b"\x3c" * 64

        def body(n: int) -> None:
            for i in range(n):
                for line in range(8):
                    device.write(((i * 8 + line) * 4096) % (4 << 20), payload)
                device.overlay_fingerprint()
                device.clone_durable(seed=0)
                device.crash()
                device.restart()

        return body

    return build


def _context(value_size: int = 64, heap_mb: int = 4, records: int = 0) -> Any:
    from repro.runtime import ExecutionContext

    ctx = ExecutionContext.create("kamino-simple", value_size=value_size, heap_mb=heap_mb)
    for key in range(records):
        ctx.kv.put(key, b"%016d" % key)
    ctx.kv.drain()
    return ctx


def _field_get() -> Callable[[int], None]:
    ctx = _context()
    heap, meta = ctx.heap, ctx.kv.meta

    def body(n: int) -> None:
        with heap.transaction():
            for _ in range(n):
                meta.value_size

    return body


def _field_set() -> Callable[[int], None]:
    ctx = _context()
    heap, meta = ctx.heap, ctx.kv.meta

    def body(n: int) -> None:
        with heap.transaction():
            meta.tx_add()
            for _ in range(n):
                meta.value_size = 64

    return body


def _log_append_durable() -> Callable[[int], None]:
    from repro.tx.base import IntentKind

    ctx = _context()
    manager = ctx.engine.log
    batch = 128  # intents per acquired slot; the slot holds 256

    def body(n: int) -> None:
        done = 0
        txid = 1 << 40
        while done < n:
            log = manager.acquire(txid)
            for i in range(min(batch, n - done)):
                log.append(4096 + i * 64, 64, IntentKind.WRITE)
                log.make_durable()
            log.release()
            done += batch
            txid += 1

    return body


def _lock_cycle(table: Any) -> Callable[[int], None]:
    acquire_read, release_read = table.acquire_read, table.release_read
    acquire_write, release_write = table.acquire_write, table.release_write

    def body(n: int) -> None:
        for i in range(n):
            off = (i & 1023) << 6
            acquire_read(1, off)
            release_read(1, off)
            acquire_write(1, off)
            release_write(1, off)

    return body


def _object_locks() -> Callable[[int], None]:
    from repro.tx.locks import ObjectLockTable

    return _lock_cycle(ObjectLockTable())


def _striped_locks() -> Callable[[int], None]:
    from repro.tx.striped_locks import StripedLockTable

    return _lock_cycle(StripedLockTable())


_TREE_RECORDS = 4000


def _btree_get() -> Callable[[int], None]:
    tree = _context(records=_TREE_RECORDS).kv.tree
    get = tree.get

    def body(n: int) -> None:
        for i in range(n):
            get((i * 2654435761) % _TREE_RECORDS)

    return body


def _btree_put() -> Callable[[int], None]:
    ctx = _context(records=_TREE_RECORDS)
    tree = ctx.kv.tree
    pointers = [tree.get(key) for key in range(_TREE_RECORDS)]

    def body(n: int) -> None:
        for i in range(n):
            key = (i * 2654435761) % _TREE_RECORDS
            tree.put(key, pointers[key])
        ctx.kv.drain()

    return body


def _sim_dispatch() -> Callable[[int], None]:
    from repro.sim.events import EventSimulator

    def tick() -> None:
        pass

    def body(n: int) -> None:
        sim = EventSimulator()
        schedule = sim.schedule
        for i in range(n):
            schedule(float(i & 255), tick)
        sim.run()

    return body


def _serve_parse() -> Callable[[int], None]:
    from repro.serve.protocol import ProtocolReader, encode_command

    wire = encode_command(["PUT", 123456, b"v" * 64])
    reader = ProtocolReader()

    def body(n: int) -> None:
        for _ in range(n):
            reader.feed(wire)
            reader.pop_all()

    return body


def _integrity_leaf_update() -> Callable[[int], None]:
    from repro.integrity import IntegrityTree

    tree = IntegrityTree((8 << 20) >> 6)
    note = tree.note_line

    def body(n: int) -> None:
        for i in range(n):
            note((i * 40503) & 0x1FFFF, i & 0xFFFFFFFF)
        tree.apply_pending()

    return body


def cells() -> List[Tuple[str, str, Cell]]:
    """``(metric name, unit, cell)`` for every micro-cell."""
    out: List[Tuple[str, str, Cell]] = []
    for backend in ("pure", "numpy"):
        prefix = f"micro.nvm.{backend}"
        for label, size in (("8", 8), ("64", 64), ("4k", 4096)):
            out.append((f"{prefix}.read{label}_ns", "ns", _read_cell(backend, size)))
        for label, size in (("8", 8), ("64", 64), ("4k", 4096)):
            out.append((f"{prefix}.write{label}_ns", "ns", _write_cell(backend, size)))
        out.append((f"{prefix}.flush_line_ns", "ns", _flush_cell(backend)))
        out.append((f"{prefix}.fence_ns", "ns", _fence_cell(backend)))
        out.append((f"{prefix}.crash_clone_fp_ms", "ms", _crash_clone_cell(backend)))
    out += [
        ("micro.heap.field_get_ns", "ns", _field_get),
        ("micro.heap.field_set_ns", "ns", _field_set),
        ("micro.tx.log_append_durable_ns", "ns", _log_append_durable),
        ("micro.tx.lock.object_rw_ns", "ns", _object_locks),
        ("micro.tx.lock.striped_rw_ns", "ns", _striped_locks),
        ("micro.kvstore.btree_get_ns", "ns", _btree_get),
        ("micro.kvstore.btree_put_ns", "ns", _btree_put),
        ("micro.sim.dispatch_ns", "ns", _sim_dispatch),
        ("micro.serve.parse_ns", "ns", _serve_parse),
        ("micro.integrity.leaf_update_ns", "ns", _integrity_leaf_update),
    ]
    return out


def time_cell(build: Cell, min_seconds: float, repeats: int) -> Tuple[float, int]:
    """Median ns per iteration and the iteration count used."""
    body = build()
    n = 1
    while True:
        start = _clock()
        body(n)
        if (_clock() - start) / 1e9 >= min_seconds or n >= 1 << 24:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        start = _clock()
        body(n)
        samples.append((_clock() - start) / n)
    return statistics.median(samples), n


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench micro", description=__doc__)
    parser.add_argument("--min-seconds", type=float, default=0.5,
                        help="grow each cell's iteration count until one repeat takes this long")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", default="", help="run cells whose name contains this")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out")
    args = parser.parse_args(argv)
    use_repo_sources()

    metrics: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    for name, unit, build in cells():
        if args.only not in name:
            continue
        try:
            ns, iterations = time_cell(build, args.min_seconds, args.repeats)
        except (ImportError, AttributeError, TypeError, RuntimeError) as exc:
            # numpy absent, or the cell's target left the program
            metrics[name] = {"value": None, "unit": unit}
            missing.append(f"{name}: {type(exc).__name__}: {exc}")
            print(f"{name:<40} {'null':>14} {unit}")
            continue
        value = ns / 1e6 if unit == "ms" else ns
        metrics[name] = {"value": value, "unit": unit, "iterations": iterations}
        print(f"{name:<40} {value:>14.6g} {unit}")
    for line in missing:
        print(f"# missing_probe {line}")
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / "micro.json", "w", encoding="utf-8") as handle:
        json.dump({"schema": "perfbench-micro/1", "min_seconds": args.min_seconds,
                   "repeats": args.repeats, "metrics": metrics,
                   "missing_probes": missing, "claim": None}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
