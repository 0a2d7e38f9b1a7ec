"""Synthetic workloads for the paper's targeted experiments (§7.1).

Two micro-workloads the evaluation text describes outside the figures:

* **Dependent-transaction workload** — 80% look-ups / 20% inserts where
  every insert hits the *same key*; the inserts are either spaced
  uniformly through the stream or issued back-to-back ("burst").  Burst
  spacing maximises the chance that a transaction arrives while its
  predecessor's backup sync is still pending — the case where Kamino-Tx
  pays and undo-logging does not.

* **Worst-case workload** — a single object updated continuously, with
  the object size swept from 64 B to 4 KiB: below ~1 KB Kamino wins by
  eliminating log allocation; at larger sizes both schemes are copy- or
  bandwidth-bound and converge.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..kvstore.kv import KVStore
from .ycsb import INSERT, READ, UPDATE, Op


class DependentTxWorkload:
    """80/20 lookup/insert stream with all inserts on one hot key.

    Args:
        nrecords: pre-loaded key space for the look-ups.
        spacing: "uniform" spreads the hot-key writes evenly; "burst"
            clumps them consecutively (maximally dependent).
    """

    #: hot-key write share (paper: 20%)
    INSERT_FRACTION = 0.2

    def __init__(
        self,
        nrecords: int,
        spacing: str = "uniform",
        value_size: int = 64,
        seed: int = 0,
    ):
        if spacing not in ("uniform", "burst"):
            raise ValueError("spacing must be 'uniform' or 'burst'")
        self.nrecords = nrecords
        self.spacing = spacing
        self.value_size = value_size
        self.hot_key = nrecords  # a key outside the loaded range
        self._rng = random.Random(seed)

    def ops(self, nops: int) -> List[Op]:
        """The deterministic operation stream."""
        nwrites = int(nops * self.INSERT_FRACTION)
        nreads = nops - nwrites
        reads = [
            Op(READ, self._rng.randrange(self.nrecords)) for _ in range(nreads)
        ]
        writes = [
            Op(UPDATE, self.hot_key, bytes([i % 256]) * min(16, self.value_size))
            for i in range(nwrites)
        ]
        if self.spacing == "burst":
            # all hot-key writes back to back in the middle of the stream
            mid = nreads // 2
            return reads[:mid] + writes + reads[mid:]
        # uniform: one write every (nops/nwrites) operations
        out: List[Op] = []
        stride = max(1, nops // max(1, nwrites))
        w = iter(writes)
        for i, r in enumerate(reads):
            out.append(r)
            if (i + 1) % stride == 0:
                nxt = next(w, None)
                if nxt is not None:
                    out.append(nxt)
        out.extend(w)
        return out[:nops]

    def load(self, kv: KVStore) -> None:
        for key in range(self.nrecords):
            kv.put(key, b"\x01" * min(16, self.value_size))
        kv.put(self.hot_key, b"\x00" * min(16, self.value_size))
        kv.drain()


class WorstCaseWorkload:
    """Continuously update the same object(s); the paper's worst case.

    ``object_size`` is the payload each update rewrites (64–4096 B in
    §7.1); ``nobjects`` > 1 spreads updates round-robin over a few
    objects to emulate the multi-threaded variant where each thread owns
    one object.
    """

    SIZES = (64, 128, 256, 512, 1024, 2048, 4096)

    def __init__(self, object_size: int = 64, nobjects: int = 1):
        if object_size <= 0:
            raise ValueError("object_size must be positive")
        self.object_size = object_size
        self.nobjects = nobjects

    def ops(self, nops: int) -> Iterator[Op]:
        payload_unit = min(64, self.object_size)
        for i in range(nops):
            key = i % self.nobjects
            yield Op(UPDATE, key, bytes([i % 256]) * payload_unit)

    def load(self, kv: KVStore) -> None:
        for key in range(self.nobjects):
            kv.put(key, b"\x00" * self.object_size)
        kv.drain()
