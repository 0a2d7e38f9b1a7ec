"""Retired harnesses, options and the second device stay gone.

``perfbench/`` is the one perf harness; ``lock_mode``, ``device_cls`` and
the trace-then-replay matrix existed so ``repro.bench.wallclock`` could
compare the stack against itself.  There is one NVM device: the numpy
byte store, its backend selector and every ``backend`` option that fed
it are deleted, and the core imports nothing outside the standard
library.  A leftover keyword or flag must fail loudly, not vanish into
``**engine_kwargs``.

Every crash sweep runs on one loop (:mod:`repro.parallel`): the worker
job functions, the nemesis corpus wrapper, the chain ``pump`` veneer and
the constructor keywords only those jobs set are gone, and so are the
unused persistent hash table and the chain-budget knob nothing read.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.check.chain
import repro.kvstore
from repro.check import ChainCrashExplorer, MigrationCrashExplorer
from repro.check.pytest_plugin import CheckBudget
from repro.cli import main
from repro.nvm import NVMDevice
from repro.nvm.backend import device_class
from repro.nvm.reference import ReferenceNVMDevice
from repro.runtime import ExecutionContext
from repro.serve import ServeCrashExplorer

ROOT = Path(__file__).resolve().parents[1]

DEVICE_CLASSES = [NVMDevice, ReferenceNVMDevice]


@pytest.mark.parametrize("cls", DEVICE_CLASSES, ids=lambda cls: cls.__name__)
def test_devices_take_no_lock_mode(cls):
    with pytest.raises(TypeError):
        cls(4096, lock_mode="locked")


@pytest.mark.parametrize(
    "knob, value",
    [("lock_mode", "uncontended"), ("device_cls", ReferenceNVMDevice), ("backend", "pure")],
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


@pytest.mark.parametrize("verb", ["scrub", "contend", "check", "cluster"])
def test_cli_verbs_take_no_backend_flag(verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--backend", "pure"])
    assert exc.value.code == 2


def test_the_numpy_device_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.nvm.numpy_device")


def test_source_tree_names_no_second_device():
    retired = re.compile(
        r"REPRO_NVM_BACKEND|set_default_backend|resolve_backend|available_backends"
        r"|make_device|HAVE_NUMPY|NumpyNVMDevice|numpy"
    )
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = retired.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0)}"


def test_the_perfbench_shim_knows_one_device():
    assert device_class("pure") is NVMDevice
    with pytest.raises(RuntimeError):
        device_class("numpy")


_STDLIB_PROBE = """
import sys
import repro
from repro.check import CrashExplorer
from repro.runtime import ExecutionContext
from repro.serve import ServeCrashExplorer
ExecutionContext.create("kamino-simple", value_size=64, heap_mb=1)
assert CrashExplorer("kamino-simple", workload="kv").explore(max_points=4).ok
print("numpy" in sys.modules)
"""


def test_the_core_runs_without_importing_numpy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _STDLIB_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "cls, knob",
    [
        (ServeCrashExplorer, "groups"),
        (ServeCrashExplorer, "shards_per_group"),
        (MigrationCrashExplorer, "f"),
        (MigrationCrashExplorer, "n_keys"),
        (MigrationCrashExplorer, "shards_per_group"),
    ],
)
def test_explorers_take_no_job_only_keywords(cls, knob):
    with pytest.raises(TypeError):
        cls(**{knob: 2})


def test_check_budget_has_no_chain_knob():
    with pytest.raises(TypeError):
        CheckBudget(
            name="quick", max_points=24, random_samples=1, max_nested_points=3,
            chain_max_points=8,
        )


def test_sweep_veneers_and_the_hash_table_are_gone():
    assert not hasattr(repro.check.chain, "explore_nemesis")
    assert not hasattr(ChainCrashExplorer, "pump")
    assert not hasattr(repro.kvstore, "PersistentHashTable")
    with pytest.raises(ModuleNotFoundError):
        __import__("repro.kvstore.hashtable")


def test_source_tree_defines_no_worker_job_function():
    job = re.compile(r"^\s*def _\w*_job\b", re.MULTILINE)
    for path in sorted((ROOT / "src").rglob("*.py")):
        match = job.search(path.read_text(encoding="utf-8"))
        assert match is None, f"{path}: {match.group(0).strip()}"
