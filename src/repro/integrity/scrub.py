"""The scrubber: walk the pool, verify checksums, repair from the copy.

Kamino-Tx's full backup mirror exists for atomicity, but the same
redundancy is the textbook remedy for media decay: a corrupt main line
is restored from the backup, a corrupt backup line from main.  The
:class:`Scrubber` runs that detect/repair/degrade loop, one pass per
:meth:`~Scrubber.scrub_once` call (``repro scrub``, recovery, and the
nemesis ``media_scrub`` verb on live replicas).

Authority rules (which copy wins) per bad line:

==============================  =========================================
situation                       action
==============================  =========================================
main bad, backup clean,         repair main from backup (the mirror is
line not pending sync           consistent wherever no sync is pending)
main bad, backup clean,         backup is *stale* for this line (commit
line inside a pending range     landed, roll-forward hasn't): backup
                                must not overwrite committed data — fall
                                back to a peer, else the line is lost
backup bad, main readable       repair backup from main (main is always
                                authoritative for the mirror's content)
both copies bad                 peer state transfer, else mark **lost**:
                                reads raise BothCopiesLostError
dead line                       quarantine + remap to a spare
                                (:meth:`PmemPool.quarantine_line`), then
                                restore content by the same rules
heap bad, no full mirror        peer transfer if available; otherwise
                                mark **lost** — the sidecar condemned
                                the bytes, so reads must not serve them
partial-backup copy bad         peer transfer if available; otherwise
                                mark **lost** — a dynamic slot has no
                                line partner, and recovery must never
                                roll main back from it
unmirrored metadata bad         peer transfer if available; otherwise
                                report only — self-checksummed
                                structures (intent log, rings, look-up
                                table) own their semantics
==============================  =========================================

Which line backs up which is the backup strategy's answer
(:meth:`~repro.tx.backup.BackupStrategy.partner_line`), never region
arithmetic here.  "Pending" ranges come from the engine's
committed-but-unsynced queue (:meth:`AtomicityEngine.pending_ranges` —
the ``BackupSyncer`` lag), the same information the crash-summary path
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..nvm.latency import CACHE_LINE

_LINE_SHIFT = CACHE_LINE.bit_length() - 1

#: optional callback fetching authoritative bytes from a replication
#: peer: ``(abs_addr, size) -> bytes | None``
PeerRepair = Callable[[int, int], Optional[bytes]]


@dataclass
class ScrubReport:
    """What one scrub pass found and did."""

    lines_covered: int = 0
    bad_lines: int = 0
    repaired: int = 0
    quarantined: int = 0
    lost: int = 0
    #: (line, reason) for lines detected but not restored locally
    unrepaired: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.bad_lines == 0

    @property
    def ok(self) -> bool:
        """True when nothing detectably corrupt was left behind silently:
        every bad line ended repaired, quarantined+restored, degraded to
        a typed-error (lost) state, or reported to its self-validating
        owner — the only bad outcome is a repair that did not verify."""
        return not any(reason != "reported" for _ln, reason in self.unrepaired)

    def summary(self) -> str:
        return (
            f"scrub: covered={self.lines_covered} bad={self.bad_lines} "
            f"repaired={self.repaired} quarantined={self.quarantined} "
            f"lost={self.lost} unrepaired={len(self.unrepaired)}"
        )


class Scrubber:
    """On-demand verify-and-repair over one device's pool.

    Args:
        device: the device whose media is scrubbed; must have a
            :class:`~repro.integrity.model.MediaFaultModel` attached
            (``device.attach_media()``).
        pool: the :class:`~repro.nvm.pool.PmemPool` on the device; gives
            the scrubber the quarantine table.
        engine: the atomicity engine, for the heap region, the backup
            strategy's main↔copy pairing (``engine.backup.partner_line``)
            and pending-sync authority (``engine.pending_ranges()``).
        peer_repair: optional ``(abs_addr, size) -> bytes|None`` callback
            fetching authoritative bytes from a replica peer (chain
            deployments); the last resort before a line is declared lost.
    """

    def __init__(
        self,
        device,
        pool,
        engine,
        peer_repair: Optional[PeerRepair] = None,
    ):
        self.device = device
        self.pool = pool
        self.engine = engine
        self.peer_repair = peer_repair
        self.passes = 0
        self.last_report: Optional[ScrubReport] = None

    # -- geometry helpers ---------------------------------------------------

    @staticmethod
    def _holds(region, addr: int) -> bool:
        return region.offset <= addr < region.offset + region.size

    @staticmethod
    def _covers(ranges: Sequence[Tuple[int, int]], rel: int) -> bool:
        end = rel + CACHE_LINE
        for off, size in ranges:
            if off < end and off + size > rel:
                return True
        return False

    def _durable_line(self, line: int) -> bytes:
        base = line << _LINE_SHIFT
        return bytes(self.device._durable[base : base + CACHE_LINE])

    def _peer_line(self, line: int) -> Optional[bytes]:
        if self.peer_repair is None:
            return None
        data = self.peer_repair(line << _LINE_SHIFT, CACHE_LINE)
        if data is not None and len(data) != CACHE_LINE:
            return None
        return data

    # -- one pass -----------------------------------------------------------

    def scrub_once(self) -> ScrubReport:
        """Verify every covered line; repair, quarantine, or degrade."""
        media = self.device.media
        report = ScrubReport()
        if media is None:
            self.last_report = report
            return report
        if media.tree is not None:
            report.lines_covered = media.tree.n_lines
        else:
            report.lines_covered = (
                len(media.sidecar) if media.sidecar is not None else 0
            ) or len(media.dead | media.lost)
        bad = media.bad_lines()
        report.bad_lines = len(bad)
        self.device.stats.media_detected += len(bad)
        pending = self.engine.pending_ranges()
        for line in bad:
            self._handle_bad_line(line, media, pending, report)
        # a repair is only a repair if it verifies; stuck-at lines fail
        # here and get one quarantine attempt before being declared lost
        for line in list(bad):
            if line in media.lost or line in media.dead:
                continue
            if not media.verify_line(line):
                if self._quarantine(line, media, report):
                    self._handle_bad_line(line, media, pending, report)
                if not media.verify_line(line) and line not in media.lost:
                    report.unrepaired.append((line, "repair did not verify"))
        self.passes += 1
        self.last_report = report
        return report

    def _handle_bad_line(self, line, media, pending, report) -> None:
        addr = line << _LINE_SHIFT
        if line in media.dead and not self._quarantine(line, media, report):
            report.unrepaired.append((line, "dead, no spare line available"))
            return
        heap = self.engine.heap_region
        backup = self.engine.backup
        in_heap = self._holds(heap, addr)
        partner = backup.partner_line(line) if backup is not None else None
        partner_data = None
        if (
            partner is not None
            and media.verify_line(partner)
            and partner not in media.dead
            # main is authoritative for the mirror, pending or not; the
            # mirror is stale for main inside a pending range — peer
            # fallback below
            and not (in_heap and self._covers(pending, addr - heap.offset))
        ):
            partner_data = self._durable_line(partner)
        if partner_data is None:
            partner_data = self._peer_line(line)
        if partner_data is not None:
            media.repair_line(line, partner_data)
            report.repaired += 1
            return
        if (
            in_heap
            or (backup is not None and self._holds(backup.region, addr))
            or line in media.lost
            or line in media.retired
            or media.tree is not None
        ):
            # heap data or a backup copy no surviving copy can restore
            # (a partial backup's slots have no partner at all): degrade
            # typed (reads raise) rather than keep serving bytes the
            # sidecar condemned.  With an integrity tree attached even
            # unmirrored lines degrade typed: the root disputes them and
            # self-validation cannot clear a consistent (stale-CRC) replay
            media.mark_lost(line)
            report.lost += 1
        else:
            # unmirrored self-validating metadata (intent log, rings,
            # look-up table): record the detection, leave the bytes to
            # their owner
            report.unrepaired.append((line, "reported"))

    def _quarantine(self, line, media, report) -> bool:
        spare = self.pool.quarantine_line(line)
        if spare is None:
            return False
        media.retire(line)
        report.quarantined += 1
        return True


def verify_ranges(device, ranges: Sequence[Tuple[int, int]]) -> List[int]:
    """Bad lines among the absolute ``(addr, size)`` ranges — the
    checksum-verify step recovery runs before rolling back or forward.
    Returns an empty list when no media model (or no sidecar) is
    attached: an unprotected deployment has nothing to verify with."""
    media = device.media
    if media is None:
        return []
    bad: List[int] = []
    seen = set()
    for addr, size in ranges:
        if size <= 0:
            continue
        first = addr >> _LINE_SHIFT
        last = (addr + size - 1) >> _LINE_SHIFT
        for line in range(first, last + 1):
            if line in seen:
                continue
            seen.add(line)
            if not media.verify_line(line):
                bad.append(line)
    if bad:
        device.stats.media_detected += len(bad)
    return sorted(bad)
