"""The header-by-header intent-log scan, kept as the oracle for the gather.

Before the gather, :meth:`~repro.tx.intent_log.LogManager.scan` read one
slot header at a time and, after each live header, that slot's entries —
one device read per header and per entry.  :func:`scan` is that walk,
line for line, and :func:`fieldwise_scan` patches it over ``LogManager``
for the duration of a ``with`` block, so a test can run one scan both
ways and demand identical records, ``max_txid``, counters and errors.
"""

import struct
from contextlib import contextmanager

from repro.tx import intent_log
from repro.tx.intent_log import IntentEntry, LogManager, RecoveredLog, SlotState


def scan(self):
    found = []
    self.max_txid = 0
    for index in range(self.n_slots):
        base = self.slot_offset(index)
        raw = self.region.read(base, intent_log._SLOT_HDR_SIZE)
        magic, state_v, txid, n_entries, _ = struct.unpack(
            intent_log._SLOT_HDR_FMT, raw[: struct.calcsize(intent_log._SLOT_HDR_FMT)]
        )
        if magic != intent_log.LOG_MAGIC:
            continue
        if self.max_txid < txid < intent_log._TXID_LIMIT:
            self.max_txid = txid
        if state_v == int(SlotState.FREE):
            continue
        try:
            state = SlotState(state_v)
        except ValueError:
            continue
        entries = []
        n_entries = min(n_entries, self.max_entries)
        for i in range(n_entries):
            eraw = self.region.read(
                base + intent_log._SLOT_HDR_SIZE + i * intent_log.ENTRY_SIZE,
                intent_log.ENTRY_SIZE,
            )
            off, size, kind_v, _flags, data_off, check = struct.unpack(
                intent_log._ENTRY_FMT, eraw
            )
            if check != intent_log._entry_check(off, size, kind_v, data_off, txid) or size == 0:
                break
            entries.append(IntentEntry(off, size, intent_log.IntentKind(kind_v), data_off))
        found.append(RecoveredLog(index, state, txid, entries))
    return found


@contextmanager
def fieldwise_scan():
    """Run the block on the header-by-header scan."""
    original = LogManager.__dict__["scan"]
    LogManager.scan = scan
    try:
        yield
    finally:
        LogManager.scan = original
