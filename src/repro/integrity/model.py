"""Seeded media-fault model: bit rot, stuck-at bits, and dead lines.

The :class:`MediaFaultModel` attaches to an
:class:`~repro.nvm.device.NVMDevice` (``device.attach_media()``) and
corrupts *durable* data — the failure class below fail-stop that crash
recovery alone cannot see:

* **latent bit flips** silently invert durable bits; reads return the
  corrupted bytes with no error (that is the point — detection is the
  checksum sidecar's job);
* **stuck-at bits** re-assert themselves after every legitimate write to
  their line, so a repair that simply rewrites the data fails again
  until the line is quarantined;
* **dead lines** are uncorrectable: any read touching one raises
  :class:`~repro.errors.UncorrectableMediaError` until the line is
  quarantined and remapped to a spare
  (:meth:`~repro.nvm.pool.PmemPool.quarantine_line` + :meth:`retire`);
* lines whose every copy is gone are marked **lost**; reads then raise
  :class:`~repro.errors.BothCopiesLostError` — a typed degradation, never
  silent garbage.

The model also owns the :class:`~repro.integrity.checksum.ChecksumSidecar`
(when ``protect=True``) and keeps it honest from the device's persist
paths: every flushed line is re-checksummed over its intended content
*before* stuck-at bits re-corrupt it, so a stuck line is detectably bad
after every write.  Only a write of the whole line clears injected
corruption: a flush that rewrote some of a line's words, like a crash
that tore one, leaves the rest as the media held it, so a line carrying
still-uninspected injected corruption keeps its stale checksum and stays
detectable.  Otherwise crash resolution re-blesses torn lines — a torn
write is a crash artifact for recovery to handle, not a media fault.

Every write the model makes to the media — a flip, a stuck bit
re-asserting, a stale replay, a controller repair — goes through
:meth:`~repro.nvm.device.NVMDevice.poke_durable`, so the device knows
which pages hold something even where no flush ever reached: the crash
fingerprint sees the write and a durable clone carries it.

Everything is deterministic under ``seed``; with no faults injected the
model is invisible: no :class:`~repro.nvm.stats.NVMStats` counter moves
and durable bytes are untouched, which the differential property tests
pin against :class:`~repro.nvm.reference.ReferenceNVMDevice`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import zlib

from ..errors import BothCopiesLostError, UncorrectableMediaError
from ..nvm.latency import CACHE_LINE
from .checksum import ChecksumSidecar
from .tree import IntegrityTree

_LINE_SHIFT = CACHE_LINE.bit_length() - 1


class MediaFaultModel:
    """Fault state + injection API for one device's media."""

    def __init__(
        self,
        device,
        seed: int = 0,
        protect: bool = True,
        tree: bool = False,
    ):
        if tree and not protect:
            raise ValueError("integrity tree requires protect=True (it hangs "
                             "off the checksum sidecar's leaf CRCs)")
        self.device = device
        self.rng = random.Random(seed)
        self.sidecar: Optional[ChecksumSidecar] = ChecksumSidecar() if protect else None
        #: integrity tree over the line CRCs (None = checksum-only)
        self.tree: Optional[IntegrityTree] = None
        #: uncorrectable lines: reads raise UncorrectableMediaError
        self.dead: Set[int] = set()
        #: lines whose every copy is gone: reads raise BothCopiesLostError
        self.lost: Set[int] = set()
        #: line -> [(byte offset in line, bit, forced value), ...]
        self.stuck: Dict[int, List[Tuple[int, int, int]]] = {}
        #: lines holding injected-but-unrepaired corruption; their stale
        #: checksum must survive crash re-blessing so scrub still detects
        self.tainted: Set[int] = set()
        #: quarantined lines remapped to spares (reads work again)
        self.retired: Set[int] = set()
        if tree:
            # total coverage from the first instruction: every leaf holds
            # the CRC of the line's current content, so corruption landing
            # before a line's first persist is detectable (the sidecar's
            # lazy-coverage window is closed by the tree).
            self.tree = IntegrityTree(device.size >> _LINE_SHIFT)
            self.tree.bless_all(device._durable)

    @property
    def protected(self) -> bool:
        """True when a checksum sidecar is maintained (detection works)."""
        return self.sidecar is not None

    @property
    def faulty(self) -> bool:
        return bool(self.dead or self.lost or self.stuck or self.tainted)

    # -- read-path surface --------------------------------------------------

    def check_read(self, addr: int, size: int) -> None:
        """Raise the typed error if the read touches a dead/lost line."""
        dead = self.dead
        lost = self.lost
        if not dead and not lost:
            return
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        hit_lost = [ln for ln in lost if first <= ln <= last]
        if hit_lost:
            raise BothCopiesLostError(
                f"lines {sorted(hit_lost)} lost beyond repair "
                f"(read [{addr}, {addr + size}))",
                lines=sorted(hit_lost),
            )
        hit_dead = [ln for ln in dead if first <= ln <= last]
        if hit_dead:
            raise UncorrectableMediaError(
                f"uncorrectable media error on lines {sorted(hit_dead)} "
                f"(read [{addr}, {addr + size}))",
                lines=sorted(hit_dead),
            )

    # -- persist-path hooks (called by the device) --------------------------

    def on_persist(self, lines: Sequence[int], partial: Sequence[int] = ()) -> None:
        """Lines were legitimately flushed: re-checksum their intended
        content, then let stuck-at bits re-corrupt the media.

        ``partial`` names the lines whose flush rewrote only some words;
        the rest of such a line is whatever the media held.  As in
        :meth:`on_crash`, a partly rewritten line that still carries
        injected corruption keeps its taint and its stale checksum, so
        the scrubber still detects it.
        """
        sidecar = self.sidecar
        durable = self.device._durable
        stuck = self.stuck
        tainted = self.tainted
        blessed = lines
        if tainted:
            kept = tainted.intersection(partial)
            tainted.difference_update(lines)
            if kept:
                tainted.update(kept)
                blessed = [line for line in lines if line not in kept]
        if sidecar is not None:
            # bulk re-checksum: contiguous runs snapshot once.  Lines are
            # distinct within one persist call and stuck-at bits only
            # touch their own line, so recording before the stuck pass is
            # byte-identical to the old interleaved per-line loop.
            sidecar.record_many(blessed, durable)
            if self.tree is not None:
                # same hook, same CRCs: dirty leaves stream into the
                # tree's pending log
                self.tree.note_lines(blessed, sidecar._crcs)
        for line in lines:
            faults = stuck.get(line)
            if faults:
                self._assert_stuck(line, faults)

    def on_crash(self, entries: Iterable[Tuple[int, bool]]) -> None:
        """Crash resolution rewrote (parts of) these lines on the media.

        ``entries`` is ``(line, full_rewrite)``; a full rewrite clears
        any outstanding injected corruption (the whole line was replaced
        with intended bytes).  Torn lines are re-blessed so recovery —
        not the scrubber — owns them, unless they still carry injected
        corruption, in which case the stale checksum stays so detection
        survives the crash.
        """
        sidecar = self.sidecar
        durable = self.device._durable
        for line, full_rewrite in entries:
            if full_rewrite:
                self.tainted.discard(line)
            if sidecar is not None and line not in self.tainted:
                sidecar.record(line, durable)
                if self.tree is not None:
                    self.tree.note_line(line, sidecar._crcs[line])
            faults = self.stuck.get(line)
            if faults:
                self._assert_stuck(line, faults)

    def _assert_stuck(self, line: int, faults: Sequence[Tuple[int, int, int]]) -> None:
        durable = self.device._durable
        base = line << _LINE_SHIFT
        changed = False
        for off, bit, value in faults:
            byte = durable[base + off]
            forced = byte | (1 << bit) if value else byte & ~(1 << bit)
            if forced != byte:
                self.device.poke_durable(base + off, bytes([forced]))
                changed = True
        if changed:
            self.tainted.add(line)

    # -- fault injection ----------------------------------------------------

    def bless(self, line: int) -> None:
        """Checksum a line's current (pre-decay) content, as the media
        carried valid ECC before rotting."""
        if self.sidecar is not None and line not in self.sidecar:
            self.sidecar.record(line, self.device._durable)

    def flip_bit(self, addr: int, bit: int) -> None:
        """Invert one durable bit (a latent media flip)."""
        line = addr >> _LINE_SHIFT
        self.bless(line)
        device = self.device
        device.poke_durable(addr, bytes([device._durable[addr] ^ (1 << bit)]))
        self.tainted.add(line)
        device.stats.media_flips += 1

    def _spans(
        self, ranges: Optional[Sequence[Tuple[int, int]]]
    ) -> List[Tuple[int, int]]:
        """The non-empty ``(start, length)`` ranges a fault lands in."""
        if ranges:
            return [(s, ln) for s, ln in ranges if ln > 0]
        return [(0, self.device.size)]

    def inject_flips(
        self,
        n: int,
        ranges: Optional[Sequence[Tuple[int, int]]] = None,
        rng: Optional[random.Random] = None,
    ) -> List[Tuple[int, int]]:
        """Flip ``n`` seeded random bits inside the given ``(start,
        length)`` ranges (the whole device when none); returns the
        (addr, bit) list for test assertions."""
        rng = rng if rng is not None else self.rng
        spans = self._spans(ranges)
        if not spans:
            return []
        total = sum(ln for _s, ln in spans)
        flips: List[Tuple[int, int]] = []
        for _ in range(n):
            pick = rng.randrange(total)
            for start, length in spans:
                if pick < length:
                    addr = start + pick
                    break
                pick -= length
            bit = rng.randrange(8)
            self.flip_bit(addr, bit)
            flips.append((addr, bit))
        return flips

    def stick_bit(self, addr: int, bit: int, value: int) -> None:
        """Force one durable bit to ``value`` now and after every
        subsequent write to its line (a stuck-at fault)."""
        line = addr >> _LINE_SHIFT
        self.bless(line)
        fault = (addr & (CACHE_LINE - 1), bit, 1 if value else 0)
        self.stuck.setdefault(line, []).append(fault)
        self.device.stats.media_flips += 1
        self._assert_stuck(line, [fault])

    def kill_line(self, line: int) -> None:
        """Declare a line uncorrectable; reads raise until quarantined."""
        self.bless(line)
        self.dead.add(line)
        self.tainted.add(line)
        self.device.stats.media_dead += 1

    def kill_lines(
        self,
        n: int,
        ranges: Optional[Sequence[Tuple[int, int]]] = None,
        rng: Optional[random.Random] = None,
    ) -> List[int]:
        """Kill ``n`` seeded random distinct lines inside the given byte
        ranges (the whole device when none); returns the killed line
        indices."""
        rng = rng if rng is not None else self.rng
        lines: Set[int] = set()
        for start, length in self._spans(ranges):
            first = start >> _LINE_SHIFT
            last = (start + length - 1) >> _LINE_SHIFT
            lines.update(range(first, last + 1))
        lines -= self.dead
        killed = sorted(rng.sample(sorted(lines), min(n, len(lines))))
        for line in killed:
            self.kill_line(line)
        return killed

    # -- repair / quarantine ------------------------------------------------

    def mark_lost(self, line: int) -> None:
        """No surviving copy exists: degrade with a typed error on read."""
        self.dead.discard(line)
        self.lost.add(line)

    def retire(self, line: int) -> None:
        """Quarantine: the controller remapped the address to a spare
        line, so the address serves (spare) media again.  Content must be
        restored by the caller (:meth:`repair_line`) or the line marked
        lost."""
        self.dead.discard(line)
        self.lost.discard(line)
        self.stuck.pop(line, None)
        self.tainted.discard(line)
        self.retired.add(line)

    def repair_line(self, line: int, data: bytes) -> None:
        """Controller-level repair: write authoritative bytes straight to
        the media and re-checksum.  Stuck-at bits re-corrupt immediately
        (repair of a stuck line fails verification again — quarantine is
        the only cure), which :meth:`verify_line` exposes."""
        if len(data) != CACHE_LINE:
            raise ValueError("repair_line wants exactly one cache line")
        base = line << _LINE_SHIFT
        durable = self.device._durable
        self.device.poke_durable(base, data)
        self.tainted.discard(line)
        self.lost.discard(line)
        if self.sidecar is not None:
            self.sidecar.record(line, durable)
            if self.tree is not None:
                # a controller repair is a legitimate persist: the leaf
                # follows the repaired content.  Safety comes from the
                # *source* side — the scrubber only repairs from copies
                # that pass tree-aware verification (or from a peer), so
                # a stale-replayed partner can never become the donor.
                self.tree.note_line(line, self.sidecar._crcs[line])
        faults = self.stuck.get(line)
        if faults:
            self._assert_stuck(line, faults)
        self.device.stats.media_repaired += 1

    # -- adversarial consistent corruption ----------------------------------

    def snapshot_lines(
        self, ranges: Sequence[Tuple[int, int]]
    ) -> Dict[int, bytes]:
        """Durable images of every line covered by the ``(start, length)``
        byte spans — ammunition for a later :meth:`replay_stale`."""
        durable = self.device._durable
        images: Dict[int, bytes] = {}
        for start, length in ranges:
            if length <= 0:
                continue
            first = start >> _LINE_SHIFT
            last = (start + length - 1) >> _LINE_SHIFT
            blob = bytes(durable[first << _LINE_SHIFT : (last + 1) << _LINE_SHIFT])
            for line in range(first, last + 1):
                off = (line - first) << _LINE_SHIFT
                images[line] = blob[off : off + CACHE_LINE]
        return images

    def replay_stale(
        self, images: Dict[int, bytes], lines: Iterable[int]
    ) -> List[int]:
        """Adversarial *consistent* corruption: write each line's stale
        image back to the media **and forge the matching stale CRC** in
        the checksum sidecar, so per-line verification passes.

        This models a firmware/controller replay (or a targeted attack)
        that is internally consistent — old data with its old checksum.
        The sidecar is fooled by construction; only the integrity tree,
        whose leaves kept moving with every persist, still disputes the
        line.  The tree is deliberately *not* told about the replay.
        Returns the lines actually replayed (those present in ``images``).
        """
        replayed: List[int] = []
        for line in lines:
            image = images.get(line)
            if image is None:
                continue
            self.device.poke_durable(line << _LINE_SHIFT, image)
            if self.sidecar is not None:
                self.sidecar._crcs[line] = zlib.crc32(image)
            # no taint: taint models *detected-by-checksum* corruption and
            # would let crash re-blessing keep the line detectable — the
            # whole point here is that the sidecar verifies clean.
            self.tainted.discard(line)
            replayed.append(line)
        if replayed:
            self.device.stats.media_stale += len(replayed)
        return replayed

    def replay_changed(
        self,
        images: Dict[int, bytes],
        n: int,
        rng: random.Random,
        partner: Optional[Dict[int, int]] = None,
    ) -> List[int]:
        """The stale-replay adversary: among the lines ``images`` holds
        whose durable bytes changed since :meth:`snapshot_lines`, draw
        ``n`` with ``rng`` and :meth:`replay_stale` them, each followed
        by its ``partner`` line (a backup-mirror copy snapshotted into the
        same ``images``) when the map names one.  Partner lines are never
        drawn themselves.  Returns the lines replayed."""
        partner = partner or {}
        mirrors = set(partner.values())
        durable = self.device._durable
        changed = [
            line
            for line in sorted(images)
            if line not in mirrors
            and bytes(durable[line << _LINE_SHIFT : (line + 1) << _LINE_SHIFT])
            != images[line]
        ]
        if not changed:
            return []
        chosen = sorted(rng.sample(changed, min(n, len(changed))))
        targets = chosen + [partner[ln] for ln in chosen if partner.get(ln) in images]
        return self.replay_stale(images, targets)

    # -- verification -------------------------------------------------------

    def verify_line(self, line: int) -> bool:
        """True when the line is readable and matches its checksum (and,
        when an integrity tree is attached, the tree's expected leaf —
        a stale-CRC replay that satisfies the sidecar still fails here)."""
        if line in self.dead or line in self.lost:
            return False
        if self.sidecar is None:
            return True
        if not self.sidecar.verify(line, self.device._durable):
            return False
        if self.tree is not None:
            return self.tree.verify_line(line, self.device._durable)
        return True

    def bad_lines(self) -> List[int]:
        """Every detectably bad line: dead, lost, or failing checksum
        verification."""
        bad = self.dead | self.lost
        if self.sidecar is not None:
            bad.update(self.sidecar.scan(self.device._durable))
        if self.tree is not None:
            bad.update(self.tree.scan(self.device._durable))
        return sorted(bad)

    # -- state carried across clones / fingerprints -------------------------

    def fingerprint_token(self) -> bytes:
        """Media state folded into the device's crash fingerprint: two
        images with equal bytes but different dead/lost/stuck maps behave
        differently."""
        parts = [
            b"dead:", repr(sorted(self.dead)).encode(),
            b"lost:", repr(sorted(self.lost)).encode(),
            b"stuck:", repr(sorted(self.stuck.items())).encode(),
            b"retired:", repr(sorted(self.retired)).encode(),
        ]
        return b"|".join(parts)

    def clone(self, device) -> "MediaFaultModel":
        """Carry media state onto a cloned device (checker replays)."""
        other = MediaFaultModel(device, protect=False)
        other.rng.setstate(self.rng.getstate())
        other.sidecar = self.sidecar.clone() if self.sidecar is not None else None
        other.tree = self.tree.clone() if self.tree is not None else None
        other.dead = set(self.dead)
        other.lost = set(self.lost)
        other.stuck = {ln: list(faults) for ln, faults in self.stuck.items()}
        other.tainted = set(self.tainted)
        other.retired = set(self.retired)
        return other
