"""Per-cache-line checksum sidecar: the detection half of integrity.

A :class:`ChecksumSidecar` models the out-of-band per-line ECC/CRC
metadata an integrity-protected NVDIMM controller maintains next to the
media.  It is deliberately *not* stored in the pool: like ECC bits it
lives beside the data, survives restarts with the module, and is updated
by the controller (here: the device's persist paths) on every legitimate
line write.

Coverage is lazy: a line gets an entry the first time it is persisted
after the model is attached (or the moment a fault is injected into it,
see :meth:`MediaFaultModel.bless` — the line's pre-decay content is
checksummed first, exactly as real media carries valid ECC before it
rots).  Lines with no entry verify clean, so attaching integrity to a
long-lived device is O(1).
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List

from ..nvm.latency import CACHE_LINE

_LINE_SHIFT = CACHE_LINE.bit_length() - 1


class ChecksumSidecar:
    """CRC32-per-line metadata maintained at flush/fence time."""

    __slots__ = ("_crcs",)

    def __init__(self) -> None:
        self._crcs: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._crcs)

    def __contains__(self, line: int) -> bool:
        return line in self._crcs

    def record(self, line: int, durable) -> None:
        """(Re)checksum ``line`` from the media's current content."""
        base = line << _LINE_SHIFT
        self._crcs[line] = zlib.crc32(bytes(durable[base : base + CACHE_LINE]))

    def record_many(self, lines: Iterable[int], durable) -> None:
        """(Re)checksum a batch of lines in one pass.

        Contiguous runs are snapshotted with a single bulk ``bytes()``
        conversion and sliced locally — one buffer copy per run instead
        of one ``memoryview`` export and copy per line.
        """
        run_start = run_end = None
        for line in sorted(set(lines)):
            if run_start is None:
                run_start = run_end = line
            elif line == run_end + 1:
                run_end = line
            else:
                self.record_span(run_start, run_end, durable)
                run_start = run_end = line
        if run_start is not None:
            self.record_span(run_start, run_end, durable)

    def record_span(self, first: int, last: int, durable) -> None:
        """(Re)checksum the inclusive line range ``[first, last]`` from
        one bulk snapshot of the media."""
        base = first << _LINE_SHIFT
        blob = bytes(durable[base : (last + 1) << _LINE_SHIFT])
        crcs = self._crcs
        crc32 = zlib.crc32
        off = 0
        for line in range(first, last + 1):
            crcs[line] = crc32(blob[off : off + CACHE_LINE])
            off += CACHE_LINE

    def verify(self, line: int, durable) -> bool:
        """True when ``line`` matches its recorded checksum (or has none)."""
        crc = self._crcs.get(line)
        if crc is None:
            return True
        base = line << _LINE_SHIFT
        return crc == zlib.crc32(bytes(durable[base : base + CACHE_LINE]))

    def scan(self, durable) -> List[int]:
        """Lines whose media content no longer matches their checksum.

        Walks every *covered* line (uncovered lines were never persisted
        under protection and verify clean by definition).  Contiguous
        covered runs are snapshotted once and verified from the local
        buffer: one bulk conversion per run instead of one ``memoryview``
        export and copy per line.
        """
        covered = sorted(self._crcs)
        bad: List[int] = []
        crcs = self._crcs
        crc32 = zlib.crc32
        i, n = 0, len(covered)
        while i < n:
            j = i
            while j + 1 < n and covered[j + 1] == covered[j] + 1:
                j += 1
            run_first, run_last = covered[i], covered[j]
            base = run_first << _LINE_SHIFT
            blob = bytes(durable[base : (run_last + 1) << _LINE_SHIFT])
            off = 0
            for line in range(run_first, run_last + 1):
                if crcs[line] != crc32(blob[off : off + CACHE_LINE]):
                    bad.append(line)
                off += CACHE_LINE
            i = j + 1
        return bad

    def clone(self) -> "ChecksumSidecar":
        other = ChecksumSidecar()
        other._crcs = dict(self._crcs)
        return other
