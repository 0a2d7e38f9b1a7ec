"""Figures 2/5/6 — mechanism timelines, rendered from live phase events.

The paper's Figure 5 contrasts *when* each scheme does its work:

* undo-like: ``lock → copy_data → edit_orig → unlock → delete_copy``,
  with the copy squarely in the critical path;
* CoW-like: ``lock → copy_data → edit_copy → copy_to_orig → unlock``,
  paying a copy on both sides of the edit;
* Kamino-Tx: ``lock → edit_orig → commit``, then ``copy_to_backup →
  unlock`` *after* the commit point — no copy before the client returns.

This benchmark runs one identical 1 KB update under each engine with the
phase recorder attached and renders the three timelines on a shared time
axis, asserting the structural claims (where the commit point falls
relative to the copying).
"""

from repro.bench.timeline import critical_path_ns, record_one_update, render_timeline
from repro.runtime import ExecutionContext

ENGINES = ["undo", "cow", "kamino-simple"]


def run():
    recorders = {}
    for engine_name in ENGINES:
        ctx = ExecutionContext.create(engine_name, value_size=1008, heap_mb=8)
        ctx.kv.put(7, b"\x01" * 1008)  # pre-existing record to update
        ctx.engine.sync_pending()
        recorders[engine_name] = record_one_update(ctx, 7, b"\x02" * 1008)
    scale = max(r.total_ns for r in recorders.values())
    chart = "\n\n".join(
        render_timeline(name, recorders[name], scale_ns=scale)
        for name in ENGINES
    )
    return chart, recorders


def check_shape(recorders):
    undo, cow, kamino = (recorders[n] for n in ENGINES)
    # 1. undo and CoW copy data BEFORE their commit point
    for rec, name in ((undo, "undo"), (cow, "cow")):
        copy = next(s for s in rec.spans if s.name == "copy_data")
        assert copy.end_ns <= rec.commit_ns, f"{name}: copy must precede commit"
    # 2. kamino's only copy happens AFTER its commit point
    backup = next(s for s in kamino.spans if s.name == "copy_to_backup")
    assert backup.start_ns >= kamino.commit_ns, "kamino copy must follow commit"
    assert not any(s.name == "copy_data" for s in kamino.spans)
    # 3. the client-visible critical path is shortest for kamino
    assert critical_path_ns(kamino) < critical_path_ns(undo)
    assert critical_path_ns(kamino) < critical_path_ns(cow)
    # 4. CoW pays the extra copy_to_orig inside the critical path
    apply = next(s for s in cow.spans if s.name == "copy_to_orig")
    assert apply.duration_ns > 0
    # 5. locks release last everywhere (Safety 1: kamino's unlock is
    #    after the backup copy)
    assert kamino.spans[-1].name == "unlock_data"


def test_fig05_timelines(benchmark):
    chart, recorders = benchmark.pedantic(run, rounds=1, iterations=1)
    from conftest import record_result

    record_result("== Figures 2/5/6: mechanism timelines (1 KB update) ==\n" + chart)
    check_shape(recorders)


if __name__ == "__main__":
    chart, recorders = run()
    print(chart)
    check_shape(recorders)
