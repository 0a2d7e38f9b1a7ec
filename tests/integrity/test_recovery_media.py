"""Recovery on rotted media: verify sources, repair on reopen, degrade typed."""

import pytest

from repro.errors import (
    BothCopiesLostError,
    DeviceCrashedError,
    IntegrityError,
    MediaError,
)
from repro.nvm import CrashPolicy
from repro.nvm.latency import CACHE_LINE
from repro.tx import (
    BackupSyncer,
    kamino_dynamic,
    kamino_finegrained,
    kamino_simple,
    reopen_after_crash,
)

from ..conftest import Pair, build_heap


def protected_stack(seed=0):
    heap, engine, device = build_heap(kamino_simple, seed=seed)
    device.attach_media(seed=seed, protect=True)
    with heap.transaction():
        p = heap.alloc(Pair)
        p.key = 42
        p.value = "steady"
    heap.drain()
    return heap, engine, device, p


class TestReopenScrubs:
    def test_flip_during_outage_repaired_on_reopen(self):
        """Rot landing while the machine is down is gone after reopen."""
        heap, engine, device, p = protected_stack()
        oid = p._oid
        device.crash(CrashPolicy.KEEP_ALL)
        device.media.flip_bit(heap.region.offset + oid, 5)
        heap2, engine2, _report = reopen_after_crash(device, kamino_simple)
        assert engine2.last_scrub_report is not None
        assert engine2.last_scrub_report.repaired >= 1
        assert device.media.bad_lines() == []
        obj = heap2.deref(oid, Pair)
        assert obj.key == 42

    def test_backup_flip_during_outage_repaired_from_main(self):
        heap, engine, device, p = protected_stack()
        device.crash(CrashPolicy.KEEP_ALL)
        device.media.flip_bit(engine.backup.region.offset + p._oid, 5)
        _heap2, engine2, _report = reopen_after_crash(device, kamino_simple)
        assert engine2.last_scrub_report.repaired >= 1
        assert device.media.bad_lines() == []


class TestRecoverySourceVerification:
    def test_corrupt_rollforward_source_degrades_typed(self):
        """A COMMITTED slot whose main (roll-forward source) line rotted
        must raise, never copy garbage over the backup."""
        heap, engine, device, p = protected_stack()
        with heap.transaction():
            p.tx_add()
            p.key = 1000  # committed; roll-forward still queued
        assert engine.pending_count >= 1
        device.crash(CrashPolicy.KEEP_ALL)  # commit record durable
        device.media.flip_bit(heap.region.offset + p._oid, 2)
        with pytest.raises(BothCopiesLostError):
            reopen_after_crash(device, kamino_simple)

    @pytest.mark.parametrize(
        "factory",
        [kamino_simple, kamino_dynamic, kamino_finegrained],
        ids=["kamino-simple", "kamino-dynamic", "kamino-finegrained"],
    )
    def test_corrupt_rollback_source_raises_integrity_error(self, factory):
        """Crash mid-transaction, then rot the backup copy recovery would
        roll back from — the full mirror's line or the dynamic backup's
        slot: the restore must refuse the bad source.  Crash points where
        the slot already committed recover cleanly instead (the copy is
        then a destination), and the object reads as its pre- or
        post-image, never as rot."""
        typed = clean = 0
        for after in range(1, 40):
            heap, engine, device = build_heap(factory, seed=after)
            media = device.attach_media(seed=after, protect=True)
            with heap.transaction():
                p = heap.alloc(Pair)
                p.key = 7
            heap.drain()
            device.schedule_crash(after, CrashPolicy.KEEP_ALL)
            try:
                with heap.transaction():
                    p.tx_add()
                    p.key = 8
                    p.value = "mutated-under-fire"
                heap.drain()
            except DeviceCrashedError:
                pass
            else:
                device.cancel_scheduled_crash()
                continue
            copies = engine.backup.copies([(p.oid, 1)])
            if not copies:
                continue  # crashed before the copy-on-miss made one
            [(_main, copy, _size)] = copies
            media.flip_bit(copy, 3)
            try:
                heap2, _engine2, _report = reopen_after_crash(device, factory)
            except IntegrityError:
                typed += 1
                continue
            except MediaError:
                continue  # other typed degrade — still never silent
            clean += 1
            assert heap2.deref(p.oid, Pair).key in (7, 8)
            bad = media.bad_lines()
            if engine.backup.partner_line(copy // CACHE_LINE) is None:
                # a dynamic slot has no partner to heal from: lost, not served
                bad = [line for line in bad if line not in media.lost]
            assert bad == []  # the mirror line healed from main
        assert typed >= 1, "no crash point exercised the rollback-source check"
        assert clean >= 1, "no crash point recovered cleanly"


class TestQuarantinePersistence:
    def test_quarantine_table_survives_reopen(self):
        from repro.integrity import Scrubber

        heap, engine, device, p = protected_stack()
        line = (engine.backup.region.offset + p._oid) // CACHE_LINE
        device.media.kill_line(line)
        report = Scrubber(
            device, pool=heap.region.pool, engine=engine
        ).scrub_once()
        assert report.quarantined == 1
        device.crash(CrashPolicy.KEEP_ALL)
        heap2, _engine2, _report = reopen_after_crash(device, kamino_simple)
        assert line in device.media.retired
        table = heap2.region.pool.quarantine_table()
        assert line in [ln for ln, _spare in table]
        assert heap2.deref(p._oid, Pair).key == 42


class TestSyncerPendingRanges:
    def test_crash_summary_names_pending_repair_ranges(self):
        heap, engine, device = build_heap(kamino_simple)
        syncer = BackupSyncer(engine)  # never started: backlog stays put
        with heap.transaction():
            p = heap.alloc(Pair)
            p.key = 7
        assert engine.pending_ranges()
        device.crash()
        syncer.stop(drain=True)
        assert syncer.crashed
        assert syncer.pending_repair_ranges
        assert "pending repair ranges" in syncer.crash_summary
        off, size = syncer.pending_repair_ranges[0]
        assert f"[{off}, {off + size})" in syncer.crash_summary

    def test_syncer_dies_mid_repair_then_recovery_completes(self):
        """Power fails while the syncer is rolling a commit forward; the
        queued ranges surface in the summary and a reopen finishes the
        roll-forward that the dead syncer abandoned."""
        heap, engine, device = build_heap(kamino_simple)
        with heap.transaction():
            p = heap.alloc(Pair)
            q = heap.alloc(Pair)
            p.key = 1
            q.key = 2
        heap.drain()
        oid = p._oid
        # disjoint write sets: neither commit resolves the other's sync
        with heap.transaction():
            p.tx_add()
            p.key = 11
            p.value = "acked"
        with heap.transaction():
            q.tx_add()
            q.key = 12
        assert engine.pending_count >= 2
        # the fail-point fires inside the (synchronous) roll-forward copy
        # of the first task, leaving the second queued for recovery
        device.schedule_crash(2, CrashPolicy.KEEP_ALL)
        syncer = BackupSyncer(engine)
        syncer.stop(drain=True)  # drain runs sync_pending on this thread
        device.cancel_scheduled_crash()
        assert syncer.crashed
        assert "pending repair ranges" in syncer.crash_summary
        heap2, engine2, _report = reopen_after_crash(device, kamino_simple)
        assert engine2.pending_count == 0
        obj = heap2.deref(oid, Pair)
        assert obj.key == 11 and obj.value == "acked"
