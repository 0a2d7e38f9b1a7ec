"""The persistent heap facade: objects + allocator + atomicity engine.

This is the component marked "persistent heap manager" in the paper's
Figure 3.  It owns the heap region, routes every persistent store through
the active :class:`~repro.tx.base.AtomicityEngine`, and enforces the
NVML-style programming discipline: writes only inside a transaction, and
only to ranges with a declared write intent.
"""

from __future__ import annotations

import struct
import threading
from typing import Optional, Type, TypeVar

from ..errors import (
    DeviceCrashedError,
    InvalidPointerError,
    NoActiveTransactionError,
    SchemaError,
    WriteIntentError,
)
from ..nvm.device import NVMDevice
from ..nvm.pool import PmemPool, PmemRegion
from ..tx.base import AtomicityEngine, IntentKind, Transaction, TxState
from .alloc import SlabAllocator, class_for
from .layout import PNULL
from .object import OBJ_HEADER_SIZE, PersistentStruct
from .schema import GLOBAL_REGISTRY, FieldInfo

T = TypeVar("T", bound=PersistentStruct)

HEAP_REGION = "heap"

_OBJ_HDR_FMT = "<IIQ"  # type_id, data_size, reserved
_OBJ_HDR = struct.Struct(_OBJ_HDR_FMT)


class _TxScope:
    """``with heap.transaction():`` — a hand-rolled context manager.

    Replaces the previous ``@contextmanager`` generator: same semantics
    (commit on success, abort on exception, crash propagation without an
    abort), but without the generator frame and throw() machinery that
    showed up in profiles — this wraps every transaction in the repo.
    """

    __slots__ = ("heap", "tx")

    def __init__(self, heap: "PersistentHeap"):
        self.heap = heap

    def __enter__(self) -> Transaction:
        tx = self.heap.begin()
        self.tx = tx
        return tx

    def __exit__(self, exc_type, exc, tb) -> bool:
        tx = self.tx
        if exc_type is None:
            if tx.state is TxState.ACTIVE:
                tx.commit()
        elif issubclass(exc_type, DeviceCrashedError):
            # a simulated power failure is not an abort: the device
            # refuses further writes and every volatile structure dies
            # with the process, so just mark the transaction dead and
            # let the crash propagate (recovery happens at reopen)
            tx.state = TxState.ABORTED
        elif tx.state is TxState.ACTIVE:
            tx.depth = 1  # an exception unwinds every nesting level
            tx.abort()
        return False


class PersistentHeap:
    """A transactional object heap on one pool, bound to one engine.

    Use :meth:`create` for a fresh pool and :meth:`open` after a restart
    (the open path runs the engine's crash recovery).
    """

    def __init__(self, pool: PmemPool, engine: AtomicityEngine, region: PmemRegion):
        self.pool = pool
        self.engine = engine
        self.region = region
        self.allocator = SlabAllocator(region, writer=self)
        self._tls = threading.local()
        # hot-path bindings, resolved once per heap: field reads are the
        # single hottest call chain in the repo, so the per-call property
        # and dispatch layers (current_tx, region.read, engine attribute
        # walks) are flattened here.  All of these are fixed for the
        # heap's lifetime: the engine never changes after construction,
        # ``translates_reads`` is a class attribute, and the region's
        # offset/size and the device binding are set before first use.
        # Device traffic is bit-identical — only python frames are cut.
        self._dev_read = pool.device.read
        self._dev_read_declared = pool.device.read_declared
        self._heap_off = region.offset
        self._heap_size = region.size
        self._translates = engine.translates_reads
        self._on_read = engine.on_read

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        pool: PmemPool,
        engine: AtomicityEngine,
        heap_size: Optional[int] = None,
        chunk_size: int = 64 * 1024,
    ) -> "PersistentHeap":
        """Format a heap on ``pool``; ``heap_size`` defaults to the space
        left after the engine reserves its own regions is *not* known yet,
        so by default the heap takes half the pool (Kamino-Simple needs an
        equal-sized backup)."""
        if heap_size is None:
            heap_size = pool.free_bytes // 2 - 4096
        region = pool.create_region(HEAP_REGION, heap_size)
        heap = cls(pool, engine, region)
        heap.allocator = SlabAllocator(region, writer=heap, chunk_size=chunk_size)
        heap.allocator.format()
        engine.attach(pool, region)
        engine.register_free_handler(heap._apply_free)
        return heap

    @classmethod
    def open(cls, pool: PmemPool, engine: AtomicityEngine) -> "PersistentHeap":
        """Reopen after restart: attach, recover, rebuild volatile state."""
        region = pool.region(HEAP_REGION)
        heap = cls(pool, engine, region)
        engine.attach(pool, region)
        engine.register_free_handler(heap._apply_free)
        engine.last_recovery_report = engine.recover()
        heap.allocator.open()
        return heap

    def _apply_free(self, tx: Transaction, block_off: int, size: int) -> None:
        self.allocator.apply_free(tx, block_off, size)

    # -- transactions ----------------------------------------------------------

    @property
    def current_tx(self) -> Optional[Transaction]:
        tx = getattr(self._tls, "tx", None)
        if tx is not None and tx.state is not TxState.ACTIVE:
            return None
        return tx

    def begin(self) -> Transaction:
        """Begin (or flat-nest into) a transaction on this thread."""
        tx = getattr(self._tls, "tx", None)
        if tx is not None and tx.state is TxState.ACTIVE:
            tx.depth += 1
            return tx
        tx = self.engine.begin()
        self._tls.tx = tx
        return tx

    def transaction(self) -> _TxScope:
        """``with heap.transaction() as tx:`` — commit on success, abort
        on any exception (NVML's TX_BEGIN/TX_END block)."""
        return _TxScope(self)

    def _require_tx(self) -> Transaction:
        tx = getattr(self._tls, "tx", None)
        if tx is None or tx.state is not TxState.ACTIVE:
            raise NoActiveTransactionError("operation requires an active transaction")
        return tx


    # -- translated data path ----------------------------------------------------

    def read_bytes(self, offset: int, size: int) -> bytes:
        """Load heap bytes, honouring the engine's read translation
        (copy-on-write transactions must observe their own shadows)."""
        if self._translates:
            dest = self.engine.translate_read(self.current_tx, offset, size)
            if dest is not None:
                region, off = dest
                return region.read(off, size)
        if 0 <= offset and offset + size <= self._heap_size:
            return self._dev_read(self._heap_off + offset, size)
        return self.region.read(offset, size)

    # -- allocation ---------------------------------------------------------------

    def alloc(self, struct_cls: Type[T]) -> T:
        """Allocate and zero-initialise a typed object (TX_ZALLOC)."""
        schema = struct_cls._schema
        if schema is None:
            raise SchemaError(f"{struct_cls.__name__} declares no fields")
        tx = self._require_tx()
        block = self.allocator.alloc(tx, OBJ_HEADER_SIZE + schema.size)
        header = _OBJ_HDR.pack(schema.type_id, schema.size, 0)
        self.tx_raw_write(tx, block, header, declared=True)
        return struct_cls(self, block + OBJ_HEADER_SIZE)

    def alloc_blob(self, nbytes: int) -> int:
        """Allocate an untyped blob; returns its oid (data offset)."""
        if nbytes <= 0:
            raise ValueError("blob size must be positive")
        tx = self._require_tx()
        block = self.allocator.alloc(tx, OBJ_HEADER_SIZE + nbytes)
        header = _OBJ_HDR.pack(0, nbytes, 0)
        self.tx_raw_write(tx, block, header, declared=True)
        return block + OBJ_HEADER_SIZE

    def free(self, obj_or_oid) -> None:
        """Transactionally deallocate an object (TX_FREE, applied at commit)."""
        oid = obj_or_oid.oid if isinstance(obj_or_oid, PersistentStruct) else obj_or_oid
        tx = self._require_tx()
        self.allocator.defer_free(tx, oid - OBJ_HEADER_SIZE)

    # -- object access ---------------------------------------------------------------

    def object_header(self, oid: int) -> tuple:
        """(type_id, data_size) of the object at ``oid``."""
        type_id, size, _ = _OBJ_HDR.unpack(
            self.read_bytes(oid - OBJ_HEADER_SIZE, OBJ_HEADER_SIZE)
        )
        return type_id, size

    def deref(self, oid: int, struct_cls: Optional[Type[T]] = None):
        """Resurrect a handle from a persistent pointer value.

        Returns ``None`` for ``PNULL``.  With ``struct_cls`` the header's
        type id is checked against it; without, the registry decides.
        """
        if oid == PNULL:
            return None
        type_id, _size = self.object_header(oid)
        if struct_cls is not None:
            if struct_cls._schema is None or type_id != struct_cls._schema.type_id:
                raise InvalidPointerError(
                    f"object at {oid:#x} has type id {type_id:#x}, "
                    f"not {struct_cls.__name__}"
                )
            return struct_cls(self, oid)
        _schema, cls2 = GLOBAL_REGISTRY.lookup(type_id)
        return cls2(self, oid)

    def tx_add(self, obj: PersistentStruct) -> None:
        """Declare a write intent covering the whole object (TX_ADD)."""
        tx = self._require_tx()
        block = obj.block_offset
        size = self.allocator.block_size_of(block)
        if not tx.has_intent(block):
            tx.add(block, size, IntentKind.WRITE)

    def read_object_field(self, obj: PersistentStruct, info: FieldInfo) -> bytes:
        """Load one field's bytes; takes a read lock inside a transaction.

        This is the hottest call in the repo (every ``obj.field`` load
        lands here), so ``current_tx``/``block_offset`` and the
        ``read_bytes`` dispatch are inlined — same lock discipline, same
        device traffic, fewer frames.
        """
        tx = getattr(self._tls, "tx", None)
        if tx is not None and tx.state is TxState.ACTIVE:
            block = obj._oid - OBJ_HEADER_SIZE
            if block not in tx.read_set and block not in tx.write_set:
                # tx is verified ACTIVE: engine.on_read directly (the
                # note_read wrapper re-checks liveness and re-dispatches)
                self._on_read(tx, block, self.allocator.block_size_of(block))
        else:
            tx = None
        offset = obj._oid + info.offset
        size = info.ftype.size
        if self._translates:
            dest = self.engine.translate_read(tx, offset, size)
            if dest is not None:
                region, off = dest
                return region.read(off, size)
        if offset + size <= self._heap_size:
            return self._dev_read(self._heap_off + offset, size)
        return self.region.read(offset, size)

    def read_object_declared(self, oid: int, size: int, loads) -> bytes:
        """The first ``size`` bytes of the object at ``oid`` in one block
        read, charged as the field loads ``loads`` (a
        :class:`~repro.nvm.device.DeclaredLoads`, offsets relative to
        ``oid``) that a field-by-field walk of it would have made.

        ``on_read`` fires once for the block, as on the field-wise path
        (its first field read puts the block in the read set), and
        ``translate_read`` is asked once for the object, so a
        copy-on-write shadow or an nvtraverse buffer redirects the whole
        object exactly as it redirected each of its fields.
        """
        tx = getattr(self._tls, "tx", None)
        if tx is not None and tx.state is TxState.ACTIVE:
            block = oid - OBJ_HEADER_SIZE
            if block not in tx.read_set and block not in tx.write_set:
                self._on_read(tx, block, self.allocator.block_size_of(block))
        else:
            tx = None
        if self._translates:
            dest = self.engine.translate_read(tx, oid, size)
            if dest is not None:
                region, off = dest
                return region.read_declared(off, size, loads)
        if oid + size <= self._heap_size:
            return self._dev_read_declared(self._heap_off + oid, size, loads)
        return self.region.read_declared(oid, size, loads)

    def write_object_field(self, obj: PersistentStruct, info: FieldInfo, data: bytes) -> None:
        """Store one field's bytes; requires a declared write intent."""
        tx = self._require_tx()
        block = obj.block_offset
        if not tx.has_intent(block):
            raise WriteIntentError(
                f"write to {type(obj).__name__}.{info.name} without TX_ADD; "
                f"call obj.tx_add() first"
            )
        self.tx_raw_write(tx, obj.oid + info.offset, data, declared=True)

    # -- blob access --------------------------------------------------------------------

    def read_blob(self, oid: int, size: Optional[int] = None) -> bytes:
        """Read an untyped blob's contents (read-locked inside a tx)."""
        type_id, data_size = self.object_header(oid)
        if size is None:
            size = data_size
        elif not 0 <= size <= data_size:
            # past data_size lie the next block's bytes, which this read
            # does not lock
            raise ValueError(f"blob read [0, {size}) outside {data_size} bytes")
        tx = getattr(self._tls, "tx", None)
        if tx is not None and tx.state is TxState.ACTIVE:
            block = oid - OBJ_HEADER_SIZE
            if block not in tx.read_set and block not in tx.write_set:
                self._on_read(tx, block, self.allocator.block_size_of(block))
        return self.read_bytes(oid, size)

    def read_blob_at(self, oid: int, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset`` inside a blob."""
        _type_id, data_size = self.object_header(oid)
        if offset < 0 or offset + size > data_size:
            raise ValueError(
                f"blob read [{offset}, {offset + size}) outside {data_size} bytes"
            )
        tx = getattr(self._tls, "tx", None)
        if tx is not None and tx.state is TxState.ACTIVE:
            block = oid - OBJ_HEADER_SIZE
            if block not in tx.read_set and block not in tx.write_set:
                self._on_read(tx, block, self.allocator.block_size_of(block))
        return self.read_bytes(oid + offset, size)

    def write_blob_at(self, oid: int, offset: int, data: bytes) -> None:
        """Overwrite part of a blob; the intent still covers the whole
        block (object-granular logging, as in NVML)."""
        _type_id, data_size = self.object_header(oid)
        if offset < 0 or offset + len(data) > data_size:
            raise ValueError(
                f"blob write [{offset}, {offset + len(data)}) outside {data_size} bytes"
            )
        tx = self._require_tx()
        block = oid - OBJ_HEADER_SIZE
        if not tx.has_intent(block):
            tx.add(block, self.allocator.block_size_of(block), IntentKind.WRITE)
        self.tx_raw_write(tx, oid + offset, data, declared=True)

    def write_blob(self, oid: int, data: bytes) -> None:
        """Overwrite a blob's contents; declares the intent if needed."""
        tx = self._require_tx()
        block = oid - OBJ_HEADER_SIZE
        if not tx.has_intent(block):
            tx.add(block, self.allocator.block_size_of(block), IntentKind.WRITE)
        self.tx_raw_write(tx, oid, data, declared=True)

    # -- raw transactional writes (allocator + internal) -----------------------------------

    def tx_raw_write(
        self, tx: Transaction, offset: int, data: bytes, declared: bool = False
    ) -> None:
        """Write raw bytes under transactional protection.

        When ``declared`` is false a word-granular ``WRITE`` intent is
        registered first (the allocator-metadata path).  The engine is
        given a chance to make its log durable before the first in-place
        store (Kamino's "intents durable before writes" rule).
        """
        if not declared and not tx.covers_write(offset, len(data)):
            tx.add(offset, len(data), IntentKind.WRITE)
        self.engine.before_data_write(tx)
        dest = self.engine.translate_write(tx, offset, len(data))
        if dest is None:
            self.region.write(offset, data)
        else:
            region, off = dest
            region.write(off, data)

    # -- root object ------------------------------------------------------------------------

    def set_root(self, obj: PersistentStruct) -> None:
        """Publish ``obj`` as the pool's root (durable immediately)."""
        self.pool.set_root_offset(obj.oid)

    def root(self, struct_cls: Optional[Type[T]] = None):
        """Fetch the root object, or ``None`` if unset."""
        oid = self.pool.root_offset
        if oid == PNULL:
            return None
        return self.deref(oid, struct_cls)

    # -- maintenance ---------------------------------------------------------------------------

    def drain(self) -> None:
        """Block until the engine has no deferred (async) work left."""
        while self.engine.sync_pending() > 0:
            pass

    @property
    def device(self) -> NVMDevice:
        return self.pool.device
