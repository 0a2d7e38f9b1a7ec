"""Persistent integrity tree over pool cache lines.

The :class:`ChecksumSidecar` (PR 5) verifies each line against the CRC
recorded at its last legitimate persist.  That catches *random* rot but
is blind to **consistent** corruption: an adversary (or a buggy firmware
path) that replays a stale line together with its matching stale CRC
verifies clean line-by-line.  The only defence is a value that binds all
lines together — a Merkle/integrity tree whose root commits to every
leaf at once.

Layout
------
Leaves are the per-line CRC32s the sidecar already computes; interior
nodes are CRC32 over the packed little-endian words of their
``FANOUT`` children; the root is the single node of the top level.
Everything is fixed-geometry over the whole device, so a line index maps
to its leaf directly and node updates are pure arithmetic.

Persistence and crash consistency
---------------------------------
The tree is controller metadata, like the sidecar: it lives out-of-band
and survives crashes (the simulated DIMM controller owns it), but we
still model which parts are *persist-domain* and which are volatile
cache so the crash-consistency argument is honest:

* persist domain — the leaf CRC array, the published root, the pending
  update log, and the epoch counter;
* volatile cache — every interior level.

Updates arrive from the device's persist path (``note_lines``).  In
``streamed`` mode they are appended to the pending log (latest write per
line wins) and interior propagation is deferred: :meth:`apply_pending`
re-hashes each dirty interior node **once** per batch no matter how many
of its children changed, then publishes the new root and bumps the
epoch.  This is the coalesced-update scheme of *Streamlining Integrity
Tree Updates for Secure Persistent NVM* (see PAPERS.md) adapted to the
simulator.  In ``eager`` mode every noted line re-hashes its root-to-leaf
path immediately — the classic baseline the streamed mode is measured
against.

Recovery replays the persist-domain state: :meth:`recover` folds the
pending log into the leaves, rebuilds the interior cache bottom-up, and
checks the rebuilt root against the published root — any mismatch is a
:class:`~repro.errors.RootMismatchError`, never a silently wrong tree.
Because a leaf and its log entry carry the same value (the log is
idempotent, latest-wins), recovery lands on a verifiable tree from any
prefix of applied updates.

Verification (:meth:`verify_line`, :meth:`scan`) checks durable bytes
against the *expected* leaf — pending log first, then the leaf array —
so a stale-CRC replay that fools the sidecar still mismatches the tree.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Dict, Iterable, List, Optional

from ..errors import IntegrityTreeError, RootMismatchError
from ..nvm.latency import CACHE_LINE

__all__ = ["IntegrityTree", "TREE_MODES", "FANOUT", "ZERO_LINE_CRC"]

_LINE_SHIFT = CACHE_LINE.bit_length() - 1

#: Children per interior node.  16 keeps the tree shallow (a 128 Ki-line
#: pool is 5 levels) while a node re-hash stays one small crc32 call.
FANOUT = 16
_FAN_SHIFT = 4

#: CRC of an all-zero cache line — the leaf value of never-written lines.
ZERO_LINE_CRC = zlib.crc32(b"\x00" * CACHE_LINE)

TREE_MODES = ("streamed", "eager")

#: Pending-log size that triggers an automatic batch apply in streamed
#: mode.  Large enough to coalesce a burst of fences, small enough that
#: replaying the log at recovery is trivial.
DEFAULT_WATERMARK = 256

# Chunk (in lines) used by the bless/scan bulk paths: 64 lines = 4 KiB,
# the sweet spot for bytes.count() zero-run detection.
_CHUNK_LINES = 64


class IntegrityTree:
    """Fixed-geometry CRC Merkle tree over a device's cache lines.

    Parameters
    ----------
    n_lines:
        Number of cache lines covered (``device.size // CACHE_LINE``).
    mode:
        ``"streamed"`` (default) defers interior propagation into
        coalesced batches; ``"eager"`` re-hashes the root-to-leaf path on
        every noted line.
    watermark:
        Pending-log length that triggers an automatic
        :meth:`apply_pending` in streamed mode.
    """

    def __init__(
        self,
        n_lines: int,
        *,
        mode: str = "streamed",
        watermark: int = DEFAULT_WATERMARK,
    ) -> None:
        if mode not in TREE_MODES:
            raise ValueError(f"unknown tree mode {mode!r}; expected {TREE_MODES}")
        if n_lines <= 0:
            raise ValueError("integrity tree needs at least one line")
        self.n_lines = n_lines
        self.mode = mode
        self.watermark = max(1, int(watermark))
        # Persist domain -------------------------------------------------
        # A never-written line is all zeros, so its leaf starts at the
        # zero-line CRC (the invariant the sparse level builder leans on).
        self.leaves = array("I", [ZERO_LINE_CRC]) * n_lines
        self.pending: Dict[int, int] = {}
        self.epoch = 0
        self.root_published = 0
        # Volatile interior cache ----------------------------------------
        self._levels: Optional[List[array]] = None
        # Leaves whose value differs from the zero-line CRC; lets scan()
        # skip untouched space with bulk zero checks.
        self._nonzero: set = set()
        # Maintenance counters (reported by the bench cell / CLI).
        self.leaf_updates = 0
        self.node_hashes = 0
        self.batches = 0
        self.pending_peak = 0
        self._blessed = False

    # -- construction ----------------------------------------------------

    def bless_all(self, durable) -> None:
        """(Re)build every leaf from the device's durable bytes.

        Called once at attach time so coverage is total from the first
        instruction — closing the sidecar's lazy-coverage window where a
        line corrupted before its first persist verified clean.  All-zero
        devices (media attached before pool format) take a fast path.
        """
        n = self.n_lines
        nonzero = self._nonzero
        nonzero.clear()
        blob = bytes(durable[: n << _LINE_SHIFT])
        zero_leaf = ZERO_LINE_CRC
        crc = zlib.crc32
        step = _CHUNK_LINES << _LINE_SHIFT
        super_step = step << 8  # 1 MiB: zero runs skip in large strides
        out = array("I", [zero_leaf]) * n
        for sstart in range(0, len(blob), super_step):
            send = min(sstart + super_step, len(blob))
            if blob.count(0, sstart, send) == send - sstart:
                continue
            for start in range(sstart, send, step):
                end = min(start + step, send)
                if blob.count(0, start, end) == end - start:
                    continue
                for base in range(start, end, CACHE_LINE):
                    value = crc(blob[base : base + CACHE_LINE])
                    line = base >> _LINE_SHIFT
                    out[line] = value
                    if value != zero_leaf:
                        nonzero.add(line)
        self.leaves = out
        leaves = self.leaves
        self.pending.clear()
        self._levels = None
        self._levels = self._build_levels(leaves)
        self.root_published = self._levels[-1][0]
        self.epoch += 1
        self._blessed = True

    def _build_levels(self, leaves: array) -> List[array]:
        """Rebuild the interior cache bottom-up, sparsely.

        Every level of a mostly-untouched pool is one default value (the
        hash chain rooted at :data:`ZERO_LINE_CRC`) except above the
        leaves in ``self._nonzero`` — so each level is materialized as a
        C-speed array repeat of its default node, then only the parents
        of exceptional children (plus a short tail node) are re-hashed.
        Cost is O(touched · depth), not O(n_lines), and degrades to the
        dense rebuild when every leaf was written.
        """
        crc = zlib.crc32
        levels = [leaves]
        lvl = leaves
        default = ZERO_LINE_CRC
        exceptions = self._nonzero
        while len(lvl) > 1:
            n = len(lvl)
            m = (n + FANOUT - 1) >> _FAN_SHIFT
            full_default = crc((array("I", [default]) * FANOUT).tobytes())
            nxt = array("I", [full_default]) * m
            dirty = {i >> _FAN_SHIFT for i in exceptions}
            tail = n - ((m - 1) << _FAN_SHIFT)
            if tail != FANOUT:
                dirty.add(m - 1)
            next_exceptions = set()
            for p in dirty:
                value = crc(lvl[p << _FAN_SHIFT : (p + 1) << _FAN_SHIFT].tobytes())
                nxt[p] = value
                if value != full_default:
                    next_exceptions.add(p)
            levels.append(nxt)
            lvl = nxt
            default = full_default
            exceptions = next_exceptions
        return levels

    def _require_levels(self) -> List[array]:
        if self._levels is None:
            self._levels = self._build_levels(self.leaves)
        return self._levels

    # -- update path (device persist hooks) -------------------------------

    def note_line(self, line: int, crc_value: int) -> None:
        """Record that ``line`` persisted with CRC ``crc_value``."""
        self.leaf_updates += 1
        if self.mode == "eager":
            self._set_leaf(line, crc_value)
            self._bubble(line)
            return
        self.pending[line] = crc_value
        if len(self.pending) > self.pending_peak:
            self.pending_peak = len(self.pending)
        if len(self.pending) >= self.watermark:
            self.apply_pending()

    def note_lines(self, lines: Iterable[int], crcs: Dict[int, int]) -> None:
        """Bulk form of :meth:`note_line` fed by the sidecar's CRC map."""
        for line in lines:
            value = crcs.get(line)
            if value is None:
                continue
            self.note_line(line, value)

    def _set_leaf(self, line: int, value: int) -> None:
        self.leaves[line] = value
        if value != ZERO_LINE_CRC:
            self._nonzero.add(line)
        else:
            self._nonzero.discard(line)

    def _bubble(self, line: int) -> None:
        """Eagerly re-hash the root-to-leaf path above ``line``."""
        levels = self._require_levels()
        crc = zlib.crc32
        idx = line
        for depth in range(len(levels) - 1):
            idx >>= _FAN_SHIFT
            child = levels[depth]
            levels[depth + 1][idx] = crc(
                child[idx << _FAN_SHIFT : (idx + 1) << _FAN_SHIFT].tobytes()
            )
            self.node_hashes += 1
        self.root_published = levels[-1][0]
        self.epoch += 1

    def apply_pending(self) -> int:
        """Fold the pending log into the tree in one coalesced batch.

        Each dirty interior node is re-hashed exactly once regardless of
        how many children changed; returns the number of node hashes the
        batch spent.  No-op (and no epoch bump) when the log is empty.
        """
        if not self.pending:
            return 0
        levels = self._require_levels()
        crc = zlib.crc32
        dirty = set()
        for line, value in self.pending.items():
            self._set_leaf(line, value)
            dirty.add(line >> _FAN_SHIFT)
        spent = 0
        for depth in range(len(levels) - 1):
            child = levels[depth]
            parent = levels[depth + 1]
            nxt = set()
            for idx in dirty:
                parent[idx] = crc(
                    child[idx << _FAN_SHIFT : (idx + 1) << _FAN_SHIFT].tobytes()
                )
                spent += 1
                nxt.add(idx >> _FAN_SHIFT)
            dirty = nxt
        self.node_hashes += spent
        self.batches += 1
        self.pending.clear()
        self.root_published = levels[-1][0]
        self.epoch += 1
        return spent

    # -- verification -----------------------------------------------------

    def expected_crc(self, line: int) -> int:
        """The CRC the tree currently commits to for ``line``."""
        pending = self.pending
        if line in pending:
            return pending[line]
        return self.leaves[line]

    def verify_line(self, line: int, durable) -> bool:
        base = line << _LINE_SHIFT
        return zlib.crc32(durable[base : base + CACHE_LINE]) == self.expected_crc(line)

    def scan(self, durable, first: int = 0, last: Optional[int] = None) -> List[int]:
        """Return every line in ``[first, last]`` whose durable bytes
        mismatch the tree.

        Touched lines (leaf != zero CRC, or pending) are verified
        individually; the untouched gaps between them are checked with
        bulk ``bytes.count(0)`` zero-run scans, bisecting into per-line
        checks only when a gap turns out not to be all zeros.  One
        ``bytes()`` snapshot of the contiguous run keeps ``memoryview``
        exports of the device's store off the per-line hot path.
        """
        if last is None:
            last = self.n_lines - 1
        last = min(last, self.n_lines - 1)
        if first > last:
            return []
        blob = bytes(durable[first << _LINE_SHIFT : (last + 1) << _LINE_SHIFT])
        crc = zlib.crc32
        bad: List[int] = []
        interesting = sorted(
            ln
            for ln in self._nonzero.union(self.pending)
            if first <= ln <= last
        )
        zero_leaf = ZERO_LINE_CRC

        def check_gap(lo: int, hi: int) -> None:
            # lines [lo, hi) are expected all-zero (zero leaf, no pending)
            if lo >= hi:
                return
            s = (lo - first) << _LINE_SHIFT
            e = (hi - first) << _LINE_SHIFT
            if blob.count(0, s, e) == e - s:
                return
            for ln in range(lo, hi):
                ls = (ln - first) << _LINE_SHIFT
                le = ls + CACHE_LINE
                if blob.count(0, ls, le) != CACHE_LINE:
                    if crc(blob[ls:le]) != self.expected_crc(ln):
                        bad.append(ln)

        cursor = first
        for ln in interesting:
            check_gap(cursor, ln)
            s = (ln - first) << _LINE_SHIFT
            if crc(blob[s : s + CACHE_LINE]) != self.expected_crc(ln):
                bad.append(ln)
            cursor = ln + 1
        check_gap(cursor, last + 1)
        # Zero-leaf lines can also sit in self._nonzero gaps when their
        # expected value IS the zero CRC but bytes are nonzero — handled
        # inside check_gap via expected_crc.  (A crc collision with the
        # zero CRC on nonzero bytes is out of model, as for the sidecar.)
        bad.sort()
        return bad

    # -- crash / recovery -------------------------------------------------

    def recover(self, durable=None) -> "IntegrityTree":
        """Land on a verifiable tree after a crash.

        Replays the pending update log into the leaves (idempotent,
        latest-wins), rebuilds the volatile interior cache bottom-up, and
        checks the rebuilt root against the published root.  Raises
        :class:`RootMismatchError` if the persist-domain state is
        internally inconsistent — recovery never proceeds on a tree it
        cannot verify.
        """
        if not self._blessed:
            raise IntegrityTreeError("integrity tree recovered before bless_all()")
        for line, value in self.pending.items():
            self._set_leaf(line, value)
        had_pending = bool(self.pending)
        self.pending.clear()
        self._levels = self._build_levels(self.leaves)
        root = self._levels[-1][0]
        if had_pending:
            # The log held updates the published root predates: publish
            # the replayed root (the log IS the durable intent).
            self.root_published = root
            self.epoch += 1
        elif root != self.root_published:
            raise RootMismatchError(
                "integrity tree root mismatch after recovery: "
                f"rebuilt {root:#010x} != published {self.root_published:#010x}"
            )
        return self

    def drop_interior(self) -> None:
        """Model a crash taking the volatile interior cache."""
        self._levels = None

    def clone(self) -> "IntegrityTree":
        """Deep-copy persist-domain state; the clone's interior cache is
        dropped in streamed mode (it is volatile — :meth:`recover`
        rebuilds it) and kept in eager mode (eager keeps the whole tree
        in the persist domain; there is no log to replay)."""
        twin = IntegrityTree(self.n_lines, mode=self.mode, watermark=self.watermark)
        twin.leaves = self.leaves[:]
        twin.pending = dict(self.pending)
        twin.epoch = self.epoch
        twin.root_published = self.root_published
        twin._nonzero = set(self._nonzero)
        twin._blessed = self._blessed
        if self.mode == "eager" and self._levels is not None:
            twin._levels = [lvl[:] for lvl in self._levels]
        return twin

    # -- introspection ----------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self._require_levels())

    def root(self) -> int:
        """The root over the *applied* leaves (ignores pending)."""
        return self._require_levels()[-1][0]

    def stats(self) -> Dict[str, int]:
        return {
            "mode": self.mode,
            "n_lines": self.n_lines,
            "depth": self.depth,
            "leaf_updates": self.leaf_updates,
            "node_hashes": self.node_hashes,
            "batches": self.batches,
            "pending_peak": self.pending_peak,
            "pending": len(self.pending),
            "epoch": self.epoch,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IntegrityTree(mode={self.mode!r}, lines={self.n_lines}, "
            f"root={self.root_published:#010x}, pending={len(self.pending)})"
        )
