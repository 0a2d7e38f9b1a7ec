"""YCSB core workloads A-F (paper Table 3, plus scan-heavy E).

=========  =====  =======  ======  ==============  =====
Workload    Read   Update  Insert  Read-&-Update    Scan
=========  =====  =======  ======  ==============  =====
A            50%      50%       —            —         —
B            95%       5%       —            —         —
C           100%        —       —            —         —
D            95%        —      5%            —         —
E              —        —      5%            —       95%
F            50%        —       —           50%        —
=========  =====  =======  ======  ==============  =====

Keys follow YCSB's scrambled-zipfian request distribution (D uses
"latest").  The driver emits a deterministic operation trace; executing
an operation against a :class:`~repro.kvstore.kv.KVStore` maps directly
onto get / put / read-modify-write, each of which is one transaction —
the unit the paper's throughput and latency figures count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..kvstore.kv import KVStore
from .keydist import LatestGenerator, ScrambledZipfianGenerator, UniformGenerator

#: (read %, update %, insert %, rmw %, scan %) per workload.  A-F follow
#: the paper's Table 3; E is YCSB's scan-heavy core workload, included
#: as an extension (the paper omits it) because it exercises the
#: B+Tree's leaf chain.
MIXES: Dict[str, tuple] = {
    "A": (0.50, 0.50, 0.00, 0.00, 0.00),
    "B": (0.95, 0.05, 0.00, 0.00, 0.00),
    "C": (1.00, 0.00, 0.00, 0.00, 0.00),
    "D": (0.95, 0.00, 0.05, 0.00, 0.00),
    "E": (0.00, 0.00, 0.05, 0.00, 0.95),
    "F": (0.50, 0.00, 0.00, 0.50, 0.00),
}

READ = "read"
UPDATE = "update"
INSERT = "insert"
RMW = "rmw"
SCAN = "scan"

#: maximum records returned by one YCSB-E scan
SCAN_LENGTH = 20


@dataclass(frozen=True, slots=True)
class Op:
    """One workload operation: kind + key (+ payload for writes).

    Slotted: a run's op stream holds one per operation, and without a
    per-instance ``__dict__`` an op is about half the size.
    """

    kind: str
    key: int
    value: Optional[bytes] = None


class YCSBWorkload:
    """Deterministic YCSB trace generator.

    Args:
        name: workload letter, one of A-F.
        nrecords: records loaded before the run (the paper uses 10 M;
            scale down for simulation).
        value_size: record payload bytes (1 KB in the paper).
        seed: trace seed; identical seeds give identical traces, so every
            engine sees byte-identical operations.
    """

    def __init__(self, name: str, nrecords: int, value_size: int = 1024, seed: int = 0):
        name = name.upper()
        if name not in MIXES:
            raise ValueError(f"unknown YCSB workload '{name}'; pick from {sorted(MIXES)}")
        self.name = name
        self.nrecords = nrecords
        self.value_size = value_size
        self.seed = seed
        self._rng = random.Random(seed)
        self._next_insert_key = nrecords
        if name == "D":
            self._keys = LatestGenerator(nrecords, seed=seed + 1)
        else:
            self._keys = ScrambledZipfianGenerator(nrecords, seed=seed + 1)
        self._scan_rng = random.Random(seed + 2)
        # a payload is one byte repeated, so there are 256 of them: an op
        # stream shares these instead of holding one copy per write
        self._payloads = [bytes([pattern]) * min(64, value_size) for pattern in range(256)]

    # -- trace generation ------------------------------------------------------

    def _value(self, key: int) -> bytes:
        """A deterministic, key-dependent record payload."""
        return self._payloads[(key * 2654435761 + self._rng.randrange(256)) & 0xFF]

    def load_ops(self) -> Iterator[Op]:
        """The initial load phase: one insert per record."""
        for key in range(self.nrecords):
            yield Op(INSERT, key, self._value(key))

    def run_ops(self, nops: int) -> Iterator[Op]:
        """The measured phase: ``nops`` operations in the Table 3 mix."""
        read_p, update_p, insert_p, rmw_p, scan_p = MIXES[self.name]
        for _ in range(nops):
            r = self._rng.random()
            if r < read_p:
                yield Op(READ, self._existing_key())
            elif r < read_p + update_p:
                key = self._existing_key()
                yield Op(UPDATE, key, self._value(key))
            elif r < read_p + update_p + insert_p:
                key = self._next_insert_key
                self._next_insert_key += 1
                if isinstance(self._keys, LatestGenerator):
                    self._keys.advance()
                yield Op(INSERT, key, self._value(key))
            elif r < read_p + update_p + insert_p + rmw_p:
                key = self._existing_key()
                yield Op(RMW, key, self._value(key))
            else:
                yield Op(SCAN, self._existing_key())

    def _existing_key(self) -> int:
        return self._keys.next()

    # -- execution ----------------------------------------------------------------

    @staticmethod
    def execute(kv: KVStore, op: Op) -> Optional[bytes]:
        """Apply one operation to the store (one transaction)."""
        if op.kind == READ:
            return kv.get(op.key)
        if op.kind == UPDATE or op.kind == INSERT:
            kv.put(op.key, op.value)
            return None
        if op.kind == RMW:
            kv.read_modify_write(op.key, lambda _old: op.value)
            return None
        if op.kind == SCAN:
            kv.scan(op.key, SCAN_LENGTH)
            return None
        raise ValueError(f"unknown op kind {op.kind}")

    def load(self, kv: KVStore) -> None:
        """Run the full load phase against ``kv``."""
        for op in self.load_ops():
            kv.put(op.key, op.value)
        kv.drain()

    @property
    def write_fraction(self) -> float:
        read_p, update_p, insert_p, rmw_p, _scan_p = MIXES[self.name]
        return update_p + insert_p + rmw_p


def all_workloads() -> List[str]:
    return sorted(MIXES)
