"""Per-transaction cost records and aggregate simulation results.

One record type for the context, the scheduler, and the benchmark layer
(:mod:`repro.bench` re-exports them next to its runners).  A record
keeps what a transaction cost, not what it locked: the lock footprint
(the committed transaction's write and read sets) is needed only while
the transaction is live, so the scheduler holds it until it releases
the locks and no record carries it.

A context keeps every record of its run in one :class:`TxRecords`: the
costs sit unboxed in typed :mod:`array` columns (``'d'`` for the two
times, ``'q'`` for the four counts, and a small code per interned
``kind``), about 50 B per operation where a list of :class:`TxRecord`
tuples kept about 160.  Reading an element builds the same
:class:`TxRecord`, with the same floats bit for bit, on demand; a slice
is a lazy :class:`TxRecordSlice` over the store and copies nothing.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq
from typing import Dict, Iterator, List, NamedTuple, Union


class TxRecord(NamedTuple):
    """Costs of one executed transaction.

    A tuple: :meth:`~repro.runtime.context.ExecutionContext.run_tx`
    builds one per operation, positionally, and hands it to the
    scheduler; :class:`TxRecords` keeps its fields, not the tuple.
    """

    kind: str
    crit_ns: float
    async_ns: float
    crit_bytes: int
    async_bytes: int
    crit_copy_bytes: int
    n_intents: int


class _Rows(Sequence):
    """What the store and its slices share: a sequence of
    :class:`TxRecord` that compares equal to a list of the same records."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, tuple, _Rows)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class TxRecords(_Rows):
    """Every :class:`TxRecord` of one context's run, stored as columns.

    ``ctx.records`` of an :class:`~repro.runtime.context.ExecutionContext`:
    :meth:`append` takes a record apart into its columns, indexing
    (negative too) and iteration build it again, and a slice is a
    :class:`TxRecordSlice` that copies nothing.  Like the list it
    replaces it supports ``len``, ``==`` against a list and
    :meth:`clear`; it is appended to from one thread, the scheduler's.
    """

    __slots__ = (
        "_kinds",
        "_codes",
        "_kind",
        "_crit_ns",
        "_async_ns",
        "_crit_bytes",
        "_async_bytes",
        "_crit_copy_bytes",
        "_n_intents",
    )

    def __init__(self):
        #: interned kinds, by code, and each kind's code
        self._kinds: List[str] = []
        self._codes: Dict[str, int] = {}
        self._kind = array("H")
        self._crit_ns = array("d")
        self._async_ns = array("d")
        self._crit_bytes = array("q")
        self._async_bytes = array("q")
        self._crit_copy_bytes = array("q")
        self._n_intents = array("q")

    def _columns(self) -> tuple:
        return (
            self._kind, self._crit_ns, self._async_ns, self._crit_bytes,
            self._async_bytes, self._crit_copy_bytes, self._n_intents,
        )

    def append(self, record: TxRecord) -> None:
        kind, crit_ns, async_ns, crit_bytes, async_bytes, crit_copy_bytes, n_intents = record
        code = self._codes.get(kind)
        if code is None:
            code = self._codes[kind] = len(self._kinds)
            self._kinds.append(kind)
        self._kind.append(code)
        self._crit_ns.append(crit_ns)
        self._async_ns.append(async_ns)
        self._crit_bytes.append(crit_bytes)
        self._async_bytes.append(async_bytes)
        self._crit_copy_bytes.append(crit_copy_bytes)
        self._n_intents.append(n_intents)

    def clear(self) -> None:
        # the interned kinds stay: a run has a handful
        for column in self._columns():
            del column[:]

    def __len__(self) -> int:
        return len(self._kind)

    def _row(self, index: int) -> TxRecord:
        return TxRecord(
            self._kinds[self._kind[index]],
            self._crit_ns[index],
            self._async_ns[index],
            self._crit_bytes[index],
            self._async_bytes[index],
            self._crit_copy_bytes[index],
            self._n_intents[index],
        )

    def __getitem__(self, index: Union[int, slice]) -> Union[TxRecord, "TxRecordSlice"]:
        if isinstance(index, slice):
            return TxRecordSlice(self, range(len(self))[index])
        return self._row(index)

    def __iter__(self) -> Iterator[TxRecord]:
        kind, *costs = self._columns()
        return map(TxRecord, map(self._kinds.__getitem__, kind), *costs)


class TxRecordSlice(_Rows):
    """A slice of a :class:`TxRecords`: the rows of a ``range`` of
    indices, read from the store on access.

    Like a list slice it covers the rows that existed when it was taken
    (later appends are not in it); clearing the store invalidates it.
    """

    __slots__ = ("_records", "_rows")

    def __init__(self, records: TxRecords, rows: range):
        self._records = records
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: Union[int, slice]) -> Union[TxRecord, "TxRecordSlice"]:
        if isinstance(index, slice):
            return TxRecordSlice(self._records, self._rows[index])
        return self._records._row(self._rows[index])

    def __iter__(self) -> Iterator[TxRecord]:
        return map(self._records._row, self._rows)


@dataclass
class ReplayResult:
    """Aggregate metrics of one simulated multi-client run."""

    engine: str
    workload: str
    nthreads: int
    ops: int
    duration_ns: float
    latencies_ns: List[float] = field(repr=False, default_factory=list)
    latencies_by_kind: Dict[str, List[float]] = field(repr=False, default_factory=dict)
    #: starts that found a conflicting object locked and had to wait
    dependent_waits: int = 0

    @property
    def throughput_kops(self) -> float:
        """Committed operations per second, in thousands."""
        if self.duration_ns <= 0:
            return 0.0
        return self.ops / self.duration_ns * 1e9 / 1e3

    @property
    def mean_latency_us(self) -> float:
        if not self.latencies_ns:
            return 0.0
        return sum(self.latencies_ns) / len(self.latencies_ns) / 1e3

    def mean_latency_us_of(self, kind: str) -> float:
        """Mean latency of one operation kind (e.g. 'update')."""
        lats = self.latencies_by_kind.get(kind, ())
        if not lats:
            return 0.0
        return sum(lats) / len(lats) / 1e3

    def percentile_latency_us(self, pct: float) -> float:
        if not self.latencies_ns:
            return 0.0
        data = sorted(self.latencies_ns)
        idx = min(len(data) - 1, int(pct / 100.0 * len(data)))
        return data[idx] / 1e3
