"""The wall-clock harness and the three options only it consumed stay gone.

``perfbench/`` is the one perf harness; ``lock_mode``, ``device_cls`` and
the trace-then-replay matrix existed so ``repro.bench.wallclock`` could
compare the stack against itself.  A leftover keyword must fail loudly,
not vanish into ``**engine_kwargs``.
"""

import re
from pathlib import Path

import pytest

from repro.nvm import backend
from repro.nvm.reference import ReferenceNVMDevice
from repro.runtime import ExecutionContext

ROOT = Path(__file__).resolve().parents[1]

DEVICE_CLASSES = [ReferenceNVMDevice] + [
    backend.device_class(name) for name in backend.available_backends()
]


@pytest.mark.parametrize("cls", DEVICE_CLASSES, ids=lambda cls: cls.__name__)
def test_devices_take_no_lock_mode(cls):
    with pytest.raises(TypeError):
        cls(4096, lock_mode="locked")


@pytest.mark.parametrize(
    "knob, value", [("lock_mode", "uncontended"), ("device_cls", ReferenceNVMDevice)]
)
def test_create_rejects_retired_knobs(knob, value):
    with pytest.raises(TypeError):
        ExecutionContext.create("undo", value_size=64, heap_mb=1, **{knob: value})


def test_source_tree_names_none_of_them():
    retired = re.compile(
        r"lock_mode|device_cls|wallclock|_PlainSync|_NullLock|set_lock_mode"
    )
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = retired.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"
    assert not list(ROOT.glob("BENCH_PR*.json"))
