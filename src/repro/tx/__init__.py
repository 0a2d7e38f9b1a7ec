"""Atomicity engines: undo, copy-on-write, no-logging, and Kamino-Tx.

Engines self-register with :mod:`repro.runtime.registry` via the
``@register_engine`` decorator; importing this package pulls in every
builtin module, which is how the registry's lazy loader materialises
them.  :func:`make_engine` is re-exported here; the registry is the
single source of truth.
"""

from ..runtime.registry import make_engine
from .backup import BACKUP_REGION, BackupStrategy, BackupSyncer, FullBackup
from .base import (
    AtomicityEngine,
    IntentKind,
    RecoveryReport,
    Transaction,
    TxState,
    run_transaction,
)
from .cow import CoWEngine
from .dynamic import DynamicBackup, kamino_dynamic
from .finegrained import FineGrainedKaminoEngine, kamino_finegrained
from .intent_log import ENTRY_SIZE, IntentEntry, LogManager, SlotState, TxLog
from .kamino import KaminoEngine, kamino_simple
from .locks import LockStats, ObjectLockTable
from .nvtraverse import NVTraverseEngine, nvtraverse
from .recovery import reopen_after_crash, verify_backup_consistency
from .striped_locks import LockTableStats, StripedLockTable
from .undo import NoLoggingEngine, UndoLogEngine

__all__ = [
    "AtomicityEngine",
    "BACKUP_REGION",
    "BackupStrategy",
    "BackupSyncer",
    "CoWEngine",
    "DynamicBackup",
    "ENTRY_SIZE",
    "FineGrainedKaminoEngine",
    "FullBackup",
    "IntentEntry",
    "IntentKind",
    "KaminoEngine",
    "LockStats",
    "LockTableStats",
    "LogManager",
    "NVTraverseEngine",
    "NoLoggingEngine",
    "ObjectLockTable",
    "RecoveryReport",
    "SlotState",
    "StripedLockTable",
    "Transaction",
    "TxLog",
    "TxState",
    "UndoLogEngine",
    "kamino_dynamic",
    "kamino_finegrained",
    "kamino_simple",
    "nvtraverse",
    "make_engine",
    "reopen_after_crash",
    "run_transaction",
    "verify_backup_consistency",
]
