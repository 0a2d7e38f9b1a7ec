"""Exception hierarchy for the Kamino-Tx reproduction.

Every package-specific error derives from :class:`ReproError` so callers can
catch the whole family with one clause.  Errors are grouped by subsystem:
device-level faults, heap/allocator faults, transaction faults, and
replication faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# NVM device / pool errors
# ---------------------------------------------------------------------------


class NVMError(ReproError):
    """Base class for simulated-device failures."""


class OutOfBoundsError(NVMError):
    """An access touched bytes outside the device or region."""


class DeviceCrashedError(NVMError):
    """The device is in the crashed state; reopen the pool to recover."""


class PoolCorruptionError(NVMError):
    """Pool header failed validation (bad magic, version, or checksum)."""


class MediaError(NVMError):
    """Base class for media-level faults: the device's durable bytes
    themselves decayed (bit flips, stuck-at bits, dead lines), as
    opposed to volatile-overlay loss at a crash."""


class UncorrectableMediaError(MediaError):
    """A read touched a cache line the media reports as uncorrectable
    (a dead line); the data cannot be returned.  The scrubber quarantines
    such lines and restores their content from the surviving copy."""

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = tuple(lines)


class IntegrityError(MediaError):
    """A checksum-protected line failed verification: its durable bytes
    no longer match the checksum recorded at the last legitimate persist.
    Raised by recovery and scrub paths that verify before acting; silent
    corruption is never propagated past a verify point."""

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = tuple(lines)


class BothCopiesLostError(MediaError):
    """Both the main copy and its backup (and any reachable peer) of a
    line are corrupt or dead: the data is unrecoverable locally.  The
    engine degrades with this typed error instead of returning garbage;
    chain deployments fall back to replica state transfer."""

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = tuple(lines)


class IntegrityTreeError(MediaError):
    """Base class for integrity-tree failures: the Merkle tree over the
    pool's line CRCs could not be maintained, recovered, or verified.
    Distinct from :class:`IntegrityError` (a single line failing its
    own checksum) — tree errors are about the *binding* of lines to the
    published root."""


class RootMismatchError(IntegrityTreeError):
    """The integrity tree's rebuilt root does not match the published
    root, or a scrub/recovery pass left lines the tree still disputes.
    Consistent multi-line corruption (e.g. a stale-CRC replay that fools
    per-line checksums) surfaces here instead of silently verifying."""


class RingCorruptionError(IntegrityError, PoolCorruptionError):
    """A persistent-ring record *behind* the durable produce index failed
    its CRC — mid-ring media corruption, not a torn append (a torn tail
    is truncated silently).  Carries the failing record's region offset
    and logical index for the repair path."""

    def __init__(self, message: str, offset: int = -1, record_index: int = -1):
        super().__init__(message)
        self.offset = offset
        self.record_index = record_index


# ---------------------------------------------------------------------------
# Heap / allocator errors
# ---------------------------------------------------------------------------


class HeapError(ReproError):
    """Base class for persistent-heap failures."""


class OutOfMemoryError(HeapError):
    """The allocator could not satisfy an allocation request."""


class InvalidPointerError(HeapError):
    """A persistent pointer does not reference a live allocation."""


class DoubleFreeError(HeapError):
    """An allocation was freed twice."""


class SchemaError(HeapError):
    """Persistent struct schema is malformed or violated."""


# ---------------------------------------------------------------------------
# Transaction errors
# ---------------------------------------------------------------------------


class TxError(ReproError):
    """Base class for transaction failures."""


class TxAborted(TxError):
    """Raised inside a transaction body to abort it; also the state after."""


class NoActiveTransactionError(TxError):
    """A transactional operation was attempted outside a transaction."""


class WriteIntentError(TxError):
    """An object was written without a prior declared write intent (TX_ADD)."""


class LogFullError(TxError):
    """The intent/undo log ran out of space for this transaction."""


class LockTimeoutError(TxError):
    """Could not acquire an object lock within the configured timeout."""


class RecoveryError(TxError):
    """Crash recovery detected an inconsistency it cannot repair."""


class UnknownEngineError(TxError, ValueError):
    """An engine name is not in the registry; the message lists the
    registered names.  Also a :class:`ValueError`, so callers that catch
    that for a bad argument keep working."""


# ---------------------------------------------------------------------------
# Replication errors
# ---------------------------------------------------------------------------


class ReplicationError(ReproError):
    """Base class for replication failures."""


class StaleViewError(ReplicationError):
    """A message carried a viewID older than the replica's current view."""


class ChainConfigError(ReplicationError):
    """The chain was configured with too few replicas for its fault target."""


class ClusterDegraded(ReplicationError):
    """The chain is below its write quorum (or its circuit breaker is
    open after repeated delivery failures); the write was rejected
    without execution.  Surfaced to the client exactly once per
    rejected operation."""


class RequestTimeoutError(ReplicationError):
    """The head exhausted its retransmission budget for a forwarded
    transaction; the outcome is unknown (it may have partially
    propagated).  Retries are safe: procedures are idempotent and the
    head deduplicates by ``(client_id, request_id)``."""


class ClientStuckError(ReplicationError):
    """``run_clients`` drained the simulator but one or more closed-loop
    clients never completed their streams — an operation was dropped
    with retries disabled, or the cluster deadlocked."""

    def __init__(self, message: str, client_ids=()):
        super().__init__(message)
        self.client_ids = tuple(client_ids)


# ---------------------------------------------------------------------------
# Sharded-cluster errors
# ---------------------------------------------------------------------------


class ClusterConfigError(ReplicationError):
    """A sharded cluster was configured inconsistently (no groups, a
    shard assigned to a missing group, duplicate shard ids, ...)."""


class StaleShardMapError(ReplicationError):
    """A request was routed with a shard-map version older than the
    placement service's current one — the cluster's analogue of
    :class:`StaleViewError`.  The typed redirect carries the current
    version so the client can refresh its cached map and re-route."""

    def __init__(self, message: str, current_version: int = 0):
        super().__init__(message)
        self.current_version = current_version


class ShardMigrationError(ReplicationError):
    """A shard migration could not start or make progress (unknown
    shard, source and destination coincide, a migration for the shard
    is already running, ...)."""


# ---------------------------------------------------------------------------
# Serving-layer errors
# ---------------------------------------------------------------------------


class ServeError(ReproError):
    """Base class for serving-layer failures (the network front door)."""


class ProtocolError(ServeError):
    """A connection sent bytes the RESP-like grammar cannot parse, or a
    well-formed command with the wrong shape (unknown verb, bad arity).
    Surfaced on the wire as ``-ERR`` and the connection keeps going —
    one malformed command must not poison the pipeline behind it."""


class AdmissionRejected(ServeError):
    """Admission control shed the request: the cluster is degraded (its
    circuit breaker is open or it is below write quorum) or the server
    is at its in-flight/queue bounds.  Carries ``retry_after_ns``, the
    server's best estimate of when capacity returns — surfaced on the
    wire as ``-RETRY-AFTER <ns>`` so clients back off instead of
    hammering a breaker that is already open."""

    def __init__(self, message: str, retry_after_ns: float = 0.0):
        super().__init__(message)
        self.retry_after_ns = retry_after_ns


class ProcedureError(ServeError):
    """A durable procedure could not run (unknown procedure name, bad
    arguments, a step raised)."""


class ProcedureResumed(ProcedureError):
    """A procedure id was re-submitted after the original already ran to
    completion; the stored result is replayed instead of re-executing.
    This is the exactly-once delivery path, typed so the serving layer
    can tell a replayed result from a first execution."""

    def __init__(self, message: str, pid: str = "", result=None):
        super().__init__(message)
        self.pid = pid
        self.result = result
