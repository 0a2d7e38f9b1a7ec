"""Real-thread integration: workers + background syncer, live.

The benchmarks run engines under the deterministic simulator; these
tests instead drive them with genuine ``threading`` concurrency — worker
threads issuing transactions while a :class:`BackupSyncer` drains the
Kamino queue in the background — to show the locking protocol is not
simulator-only.
"""

import threading

import pytest

from repro.kvstore import KVStore
from repro.tx import BackupSyncer, UndoLogEngine, kamino_simple, verify_backup_consistency

from ..conftest import Pair, build_heap


class TestThreadedKamino:
    def test_workers_with_background_syncer(self):
        heap, engine, _ = build_heap(
            lambda: kamino_simple(n_slots=128), pool_size=32 << 20, heap_size=8 << 20
        )
        nworkers, nobjs, rounds = 4, 16, 30
        with heap.transaction():
            objs = [heap.alloc(Pair) for _ in range(nobjs)]
        heap.drain()
        errors = []

        def worker(wid: int) -> None:
            try:
                for r in range(rounds):
                    o = objs[(wid + r * nworkers) % nobjs]
                    with heap.transaction():
                        o.tx_add()
                        o.key = o.key + 1
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        with BackupSyncer(engine):
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(nworkers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not errors, errors
        heap.drain()
        total = sum(o.key for o in objs)
        assert total == nworkers * rounds
        verify_backup_consistency(heap)

    def test_disjoint_keys_full_parallelism(self):
        heap, engine, _ = build_heap(
            lambda: kamino_simple(n_slots=128), pool_size=32 << 20, heap_size=8 << 20
        )
        with heap.transaction():
            objs = [heap.alloc(Pair) for _ in range(4)]
        heap.drain()
        done = []

        def worker(wid: int) -> None:
            for _ in range(50):
                with heap.transaction():
                    objs[wid].tx_add()
                    objs[wid].key = objs[wid].key + 1
            done.append(wid)

        with BackupSyncer(engine):
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert sorted(done) == [0, 1, 2, 3]
        heap.drain()
        assert all(o.key == 50 for o in objs)
        verify_backup_consistency(heap)

    def test_hot_key_contention_serializes_correctly(self):
        heap, engine, _ = build_heap(
            lambda: kamino_simple(n_slots=128), pool_size=32 << 20, heap_size=8 << 20
        )
        with heap.transaction():
            hot = heap.alloc(Pair)
        heap.drain()

        def worker() -> None:
            for _ in range(25):
                with heap.transaction():
                    hot.tx_add()
                    hot.key = hot.key + 1

        with BackupSyncer(engine):
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        heap.drain()
        assert hot.key == 100  # every increment survived, none lost
        verify_backup_consistency(heap)


class TestThreadedKVStore:
    @pytest.mark.parametrize("factory", [UndoLogEngine, kamino_simple])
    def test_concurrent_disjoint_ranges(self, factory):
        heap, engine, _ = build_heap(
            lambda: factory(n_slots=128), pool_size=64 << 20, heap_size=24 << 20
        )
        kv = KVStore.create(heap, value_size=64)
        # preload so worker puts are in-place updates (no allocator races
        # on shared bitmap words between different key ranges)
        for k in range(4 * 40):
            kv.put(k, b"\x00")
        kv.drain()
        errors = []

        def worker(wid: int) -> None:
            try:
                base = wid * 40
                for i in range(40):
                    kv.put(base + i, bytes([wid + 1]) * 32)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        syncer = BackupSyncer(engine) if engine.backup is not None else None
        if syncer:
            syncer.start()
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        if syncer:
            syncer.stop()
        assert not errors, errors
        kv.drain()
        kv.tree.check_invariants()
        for wid in range(4):
            for i in range(40):
                assert kv.get(wid * 40 + i)[:32] == bytes([wid + 1]) * 32
