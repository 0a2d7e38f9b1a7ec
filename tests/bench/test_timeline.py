"""Timeline recorder: phase capture, commit points, rendering."""

import pytest

from repro.bench.timeline import (
    TimelineRecorder,
    critical_path_ns,
    record_one_update,
    render_timeline,
)
from repro.runtime import ExecutionContext


def recorded(engine_name):
    stack = ExecutionContext.create(engine_name, value_size=256, heap_mb=8)
    stack.kv.put(1, b"\x01" * 200)
    stack.engine.sync_pending()
    return record_one_update(stack, 1, b"\x02" * 200)


class TestRecording:
    def test_phases_are_contiguous_and_ordered(self):
        rec = recorded("kamino-simple")
        assert rec.spans
        for a, b in zip(rec.spans, rec.spans[1:]):
            assert a.end_ns == b.start_ns
        assert rec.spans[0].start_ns == 0.0

    def test_undo_commit_is_log_discard(self):
        rec = recorded("undo")
        discard = next(s for s in rec.spans if s.name == "delete_copy")
        assert rec.commit_ns == discard.end_ns

    def test_kamino_commit_is_commit_record(self):
        rec = recorded("kamino-simple")
        record = next(s for s in rec.spans if s.name == "commit_record")
        assert rec.commit_ns == record.end_ns

    def test_kamino_backup_copy_after_commit(self):
        rec = recorded("kamino-simple")
        backup = next(s for s in rec.spans if s.name == "copy_to_backup")
        assert backup.start_ns >= rec.commit_ns

    def test_hook_removed_after_context(self):
        stack = ExecutionContext.create("undo", value_size=256, heap_mb=8)
        with TimelineRecorder(stack.device, stack.engine):
            pass
        assert stack.engine.phase_hook is None

    def test_critical_path_helper(self):
        rec = recorded("kamino-simple")
        assert 0 < critical_path_ns(rec) < rec.total_ns


class TestRendering:
    def test_render_contains_all_phases(self):
        rec = recorded("undo")
        out = render_timeline("undo", rec)
        for span in rec.spans:
            if span.duration_ns > 0:
                assert span.name in out

    def test_commit_marker_present(self):
        rec = recorded("kamino-simple")
        out = render_timeline("k", rec)
        assert "|" in out

    def test_shared_scale_shrinks_bars(self):
        rec = recorded("undo")
        tight = render_timeline("u", rec)
        loose = render_timeline("u", rec, scale_ns=rec.total_ns * 4)
        assert tight.count("#") > loose.count("#")

    def test_empty_recorder(self):
        stack = ExecutionContext.create("undo", value_size=256, heap_mb=8)
        rec = TimelineRecorder(stack.device, stack.engine)
        assert "(no phases recorded)" in render_timeline("x", rec)
