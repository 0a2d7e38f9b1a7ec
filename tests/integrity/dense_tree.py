"""The integrity tree's definition, computed densely.

Leaves are the CRC32 of every cache line; each interior node is the
CRC32 of its ``FANOUT`` children packed as little-endian 32-bit words;
the root is the single node of the top level.  No pending log, no
sparse levels, no incremental update — the reference every
:class:`~repro.integrity.IntegrityTree` root is checked against.
"""

import zlib
from array import array

from repro.integrity import FANOUT
from repro.nvm.latency import CACHE_LINE


def dense_root_of_leaves(leaves) -> int:
    level = array("I", leaves)
    while len(level) > 1:
        level = array("I", (zlib.crc32(level[i : i + FANOUT].tobytes())
                            for i in range(0, len(level), FANOUT)))
    return level[0]


def dense_root(durable) -> int:
    data = bytes(durable)
    return dense_root_of_leaves(zlib.crc32(data[i : i + CACHE_LINE])
                                for i in range(0, len(data), CACHE_LINE))
