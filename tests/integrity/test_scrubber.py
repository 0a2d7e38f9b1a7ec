"""Scrubber authority rules: repair from the right copy, or degrade typed."""

import pytest

from repro.errors import BothCopiesLostError
from repro.integrity import Scrubber
from repro.nvm.latency import CACHE_LINE
from repro.tx import kamino_simple

from ..conftest import Pair, build_heap

_LINE = CACHE_LINE


def kamino_stack(seed=0):
    heap, engine, device = build_heap(kamino_simple, seed=seed)
    media = device.attach_media(seed=seed, protect=True)
    pairs = []
    with heap.transaction():
        for i in range(8):
            p = heap.alloc(Pair)
            p.key = i
            p.value = f"value-{i}"
            pairs.append(p)
    heap.drain()  # backup mirror caught up
    return heap, engine, device, media, pairs


def scrubber(heap, engine, device, **kw):
    return Scrubber(device, pool=heap.region.pool, engine=engine, **kw)


def main_line(heap, obj):
    return (heap.region.offset + obj._oid) // _LINE


def backup_line(heap, engine, obj):
    return (engine.backup.region.offset + obj._oid) // _LINE


class TestRepairDirections:
    def test_main_repaired_from_backup(self):
        heap, engine, device, media, pairs = kamino_stack()
        before = pairs[2].key
        media.flip_bit(heap.region.offset + pairs[2]._oid, 4)
        report = scrubber(heap, engine, device).scrub_once()
        assert report.repaired >= 1 and report.ok
        assert pairs[2].key == before
        assert media.bad_lines() == []
        assert device.stats.media_repaired >= 1

    def test_backup_repaired_from_main(self):
        heap, engine, device, media, pairs = kamino_stack()
        addr = engine.backup.region.offset + pairs[1]._oid
        media.flip_bit(addr, 0)
        report = scrubber(heap, engine, device).scrub_once()
        assert report.repaired == 1 and report.ok
        assert media.bad_lines() == []

    def test_partial_persist_keeps_rot_detectable(self):
        """A flush that rewrites one word of a rotted mirror line (a
        roll-forward copy) must not re-bless the other words' rot; the
        scrubber then repairs the line from main."""
        heap, engine, device, media, pairs = kamino_stack()
        main = heap.region.offset + pairs[1]._oid
        mirror = engine.backup.region.offset + pairs[1]._oid
        line = mirror // _LINE
        base = line * _LINE
        media.flip_bit(base + 40, 3)
        device.copy(base, main - mirror + base, 8)  # one word, main -> mirror
        device.flush(base, 8)
        device.fence()
        assert line in media.bad_lines()
        report = scrubber(heap, engine, device).scrub_once()
        assert report.repaired == 1 and report.ok
        assert media.bad_lines() == []
        main_base = main - mirror + base
        assert device.read(base, _LINE) == device.read(main_base, _LINE)

    def test_pending_sync_blocks_stale_backup(self):
        """A committed-but-unsynced line must NOT be 'repaired' from the
        lagging backup; without a peer it degrades to lost."""
        heap, engine, device, media, pairs = kamino_stack()
        with heap.transaction():
            pairs[0].tx_add()
            pairs[0].key = 999  # committed; backup sync still queued
        assert engine.pending_count >= 1
        assert engine.pending_ranges()
        line = main_line(heap, pairs[0])
        media.flip_bit(line * _LINE, 6)
        report = scrubber(heap, engine, device).scrub_once()
        assert report.lost == 1 and report.repaired == 0
        assert line in media.lost
        with pytest.raises(BothCopiesLostError):
            heap.read_bytes(pairs[0]._oid, 8)

    def test_pending_line_recovers_via_peer(self):
        heap, engine, device, media, pairs = kamino_stack()
        pristine = bytes(device._durable)
        with heap.transaction():
            pairs[0].tx_add()
            pairs[0].key = 999
        snapshot = bytes(device._durable)
        line = main_line(heap, pairs[0])
        media.flip_bit(line * _LINE, 6)

        def peer(addr, size):
            return snapshot[addr : addr + size]

        report = scrubber(heap, engine, device, peer_repair=peer).scrub_once()
        assert report.repaired == 1 and report.lost == 0
        assert pairs[0].key == 999
        del pristine


class TestBothCopies:
    def test_both_copies_bad_degrades_typed(self):
        heap, engine, device, media, pairs = kamino_stack()
        media.flip_bit(heap.region.offset + pairs[3]._oid, 1)
        media.flip_bit(engine.backup.region.offset + pairs[3]._oid, 1)
        report = scrubber(heap, engine, device).scrub_once()
        assert report.lost >= 1 and report.ok
        with pytest.raises(BothCopiesLostError):
            heap.read_bytes(pairs[3]._oid, 8)

    def test_both_copies_bad_peer_saves_the_line(self):
        heap, engine, device, media, pairs = kamino_stack()
        snapshot = bytes(device._durable)
        media.flip_bit(heap.region.offset + pairs[3]._oid, 1)
        media.flip_bit(engine.backup.region.offset + pairs[3]._oid, 1)

        def peer(addr, size):
            return snapshot[addr : addr + size]

        report = scrubber(heap, engine, device, peer_repair=peer).scrub_once()
        assert report.lost == 0 and report.repaired == 2
        assert pairs[3].key == 3


class TestQuarantine:
    def test_dead_line_quarantined_and_restored(self):
        heap, engine, device, media, pairs = kamino_stack()
        line = backup_line(heap, engine, pairs[4])
        media.kill_line(line)
        report = scrubber(heap, engine, device).scrub_once()
        assert report.quarantined == 1 and report.repaired >= 1
        assert line in media.retired and line not in media.dead
        table = heap.region.pool.quarantine_table()
        assert line in [ln for ln, _spare in table]

    def test_stuck_line_quarantined_after_failed_repair(self):
        heap, engine, device, media, pairs = kamino_stack()
        media.stick_bit(heap.region.offset + pairs[5]._oid, 3, 1)
        report = scrubber(heap, engine, device).scrub_once()
        line = main_line(heap, pairs[5])
        assert line in media.retired  # rewrite failed, quarantine cured it
        assert media.verify_line(line)
        assert pairs[5].key == 5
        assert report.ok

    def test_spare_capacity_exhaustion_reported(self):
        heap, engine, device, media, pairs = kamino_stack()
        pool = heap.region.pool
        start = engine.backup.region.offset // _LINE
        for i in range(40):  # more than SPARE_LINES=32
            spare = pool.quarantine_line(start + 200 + i)
            if spare is None:
                break
        else:
            pytest.fail("quarantine table never filled up")


class TestScrubberLoop:
    def test_clean_pool_scrubs_clean(self):
        heap, engine, device, media, _pairs = kamino_stack()
        report = scrubber(heap, engine, device).scrub_once()
        assert report.clean and report.ok
        assert device.stats.media_detected == 0
