"""Unified execution runtime: context, clock, registry, online scheduler.

Everything that *prices* persistence lives here.  The layers below
(:mod:`repro.nvm`, :mod:`repro.tx`, :mod:`repro.heap`) move bytes; the
layers above (:mod:`repro.bench`, :mod:`repro.replication`,
:mod:`repro.cli`) ask this package what those bytes cost and when they
land, through one :class:`~repro.runtime.context.ExecutionContext`.

Heavier submodules (context, online) are imported lazily so that engine
modules can import :mod:`repro.runtime.registry` at class-definition
time without creating an import cycle through the heap.
"""

from .clock import ClockSnapshot, SimClock
from .registry import (
    EngineCapabilities,
    EngineInfo,
    engine_info,
    find_registered,
    make_engine,
    register_engine,
    registered_engines,
    unregister_engine,
)

__all__ = [
    "ClockSnapshot",
    "ContextSnapshot",
    "EngineCapabilities",
    "EngineInfo",
    "ExecutionContext",
    "ReplayResult",
    "SharedResources",
    "SimClock",
    "TxRecord",
    "engine_info",
    "find_registered",
    "make_engine",
    "register_engine",
    "registered_engines",
    "run_online",
    "unregister_engine",
]

_LAZY = {
    "ContextSnapshot": ("repro.runtime.context", "ContextSnapshot"),
    "ExecutionContext": ("repro.runtime.context", "ExecutionContext"),
    "SharedResources": ("repro.runtime.context", "SharedResources"),
    "ReplayResult": ("repro.runtime.records", "ReplayResult"),
    "TxRecord": ("repro.runtime.records", "TxRecord"),
    "run_online": ("repro.runtime.online", "run_online"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.runtime' has no attribute '{name}'") from None
    from importlib import import_module

    value = getattr(import_module(module_name), attr)
    globals()[name] = value
    return value
