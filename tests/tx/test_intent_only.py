"""The intent-only engine cannot roll back locally.

A chain replica behind the head keeps no backup, so aborts are decided
at the head and never forwarded; ``IntentOnlyEngine.abort`` refuses with
the typed :class:`TxError` it documents.  Its in-place stores reach the
cache but are flushed only at commit, so a refused abort leaves the
heap's durable bytes as they were.
"""

import pytest

from repro.errors import TxError
from repro.runtime import ExecutionContext


class _Rollback(Exception):
    """The body's own failure: not a ``TxError``, so only the engine's
    refusal can raise one."""


def test_abort_raises_tx_error_and_leaves_durable_heap_unchanged():
    ctx = ExecutionContext.create("intent-only", value_size=64, heap_mb=1)
    for key in range(4):
        ctx.kv.put(key, bytes([key + 1]) * 16)
    device, region = ctx.device, ctx.heap.region
    durable = device.durable_read(region.offset, region.size)
    assert device.read(region.offset, region.size) == durable
    with pytest.raises(TxError, match="cannot roll back locally") as raised:
        with ctx.heap.transaction():
            ctx.kv.put(2, b"z" * 16)
            raise _Rollback()
    assert type(raised.value) is TxError
    assert isinstance(raised.value.__context__, _Rollback)
    # the in-place store happened, and none of it is durable
    assert device.read(region.offset, region.size) != durable
    assert device.durable_read(region.offset, region.size) == durable
