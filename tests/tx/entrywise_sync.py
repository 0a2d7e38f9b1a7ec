"""The entry-at-a-time backup sync, kept as the oracle for the batched drains.

Before the strategies batched their device work, a Kamino engine rolled
a committed transaction forward one intent entry at a time: ``absorb``
each WRITE/ALLOC range, ``on_free_synced`` each FREE.  :func:`absorb_entries`
is that loop, and :func:`entrywise_sync` patches it over every backup
strategy for the duration of a ``with`` block, so a test can run one
workload both ways and demand identical ``NVMStats`` and durable bytes.
"""

from contextlib import contextmanager

from repro.tx.backup import FullBackup
from repro.tx.base import IntentKind
from repro.tx.dynamic import DynamicBackup

STRATEGIES = (FullBackup, DynamicBackup)


def absorb_entries(self, entries):
    for entry in entries:
        if entry.kind is IntentKind.FREE:
            self.on_free_synced(entry.offset, entry.size)
        else:
            self.absorb(entry.offset, entry.size)


@contextmanager
def entrywise_sync():
    """Run the block with every strategy syncing entry at a time."""
    originals = {cls: cls.__dict__["absorb_entries"] for cls in STRATEGIES}
    for cls in STRATEGIES:
        cls.absorb_entries = absorb_entries
    try:
        yield
    finally:
        for cls, original in originals.items():
            cls.absorb_entries = original
