"""Decorator-based engine registry with declared capabilities.

The paper's methodology depends on every atomicity scheme being a
drop-in behind one hook surface (:class:`~repro.tx.base.AtomicityEngine`).
The registry is the runtime-facing half of that contract: an engine
module declares itself with::

    @register_engine("kamino-simple", capabilities=EngineCapabilities(
        copies_in_critical_path=False,
        has_backup=True,
        locks_released_after_sync=True,
        cost_profile="kamino",
    ))
    def kamino_simple(**kwargs) -> KaminoEngine: ...

and every consumer — ``make_engine``, the CLI's engine-kwargs parsing,
the scheduler's contention model
(:func:`repro.sim.resources.cost_model_for`), and the property-based
crash suites — reads the registry instead of a hard-coded table.  Adding
an engine therefore touches exactly one file: the engine's own module.

Names are resolved by exact match first, then by longest registered
prefix, because engines may decorate their runtime name with parameters
(``kamino_dynamic(alpha=0.3).name == "kamino-dynamic-30"``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..errors import UnknownEngineError

__all__ = [
    "EngineCapabilities",
    "EngineInfo",
    "engine_info",
    "find_registered",
    "make_engine",
    "register_engine",
    "registered_engines",
    "registry_snapshot",
    "unregister_engine",
]


@dataclass(frozen=True)
class EngineCapabilities:
    """What the runtime may assume about a registered engine.

    Attributes:
        description: one-line summary shown by ``repro engines``.
        copies_in_critical_path: the scheme moves data bytes before its
            commit point (undo's log capture, CoW's shadow copies).
        has_backup: maintains a backup region the recovery protocol must
            re-synchronise (the Kamino family).
        recoverable: can restore a consistent heap on its own after a
            crash, so it participates in standalone crash-injection
            sweeps; False for deliberately unsafe baselines (``nolog``)
            and for engines whose repair needs outside help.
        needs_chain_repair: recovery only *identifies* incomplete work;
            repairing it requires a chain neighbour (§5.3's in-place
            replica engine).  The crash checker sweeps these engines
            through the replication-chain explorer instead of the
            standalone heap explorer.
        locks_released_after_sync: write locks are held past commit until
            the asynchronous backup sync lands, so dependent transactions
            wait longer (paper §7.1).
        cost_profile: key into
            :data:`repro.sim.resources.ENGINE_COST_MODELS` selecting the
            calibrated serialized-software contention model.
        options: tunable constructor kwargs exposed as CLI flags
            (e.g. ``("alpha",)`` for the dynamic backup).
    """

    description: str = ""
    copies_in_critical_path: bool = True
    has_backup: bool = False
    recoverable: bool = True
    needs_chain_repair: bool = False
    locks_released_after_sync: bool = False
    cost_profile: str = "default"
    options: Tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class EngineInfo:
    """One registry row: the factory plus its declared capabilities."""

    name: str
    factory: Callable[..., object]
    capabilities: EngineCapabilities


_REGISTRY: Dict[str, EngineInfo] = {}
_BUILTINS_LOADED = False
_EXTRAS_LOADED = False


def _ensure_builtins_loaded() -> None:
    """Import the engine-defining modules so they self-register.

    The flag is set *before* the import: ``repro.tx`` itself imports this
    module (for the decorator), and re-entering here mid-import would
    recurse.  The replication package's in-place engine lives outside
    ``repro.tx`` and its import chain needs a fully initialised
    :mod:`repro.heap`; during the bootstrap import (heap → tx → registry)
    the heap is mid-import, so its registration is deferred to the next
    registry query after start-up.
    """
    global _BUILTINS_LOADED, _EXTRAS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.tx  # noqa: F401  (side effect: engine registration)
    if not _EXTRAS_LOADED:
        import sys

        heap_mod = sys.modules.get("repro.heap")
        if heap_mod is None or hasattr(heap_mod, "PersistentHeap"):
            _EXTRAS_LOADED = True
            import repro.replication.inplace_engine  # noqa: F401  (intent-only)


def register_engine(
    name: str, *, capabilities: Optional[EngineCapabilities] = None
) -> Callable:
    """Class/function decorator adding an engine factory to the registry."""

    caps = capabilities if capabilities is not None else EngineCapabilities()

    def decorator(factory: Callable) -> Callable:
        _REGISTRY[name] = EngineInfo(name=name, factory=factory, capabilities=caps)
        return factory

    return decorator


def unregister_engine(name: str) -> None:
    """Remove a registration (tests registering throwaway engines)."""
    _REGISTRY.pop(name, None)


@contextmanager
def registry_snapshot():
    """Restore the registry to its entry state on exit.

    Guards registry-mutating code (tests that ``register_engine`` a
    throwaway double, or ``unregister_engine`` a builtin) so later
    registry-driven consumers see the pristine table.  The builtins —
    including the deferred replication extra — are force-loaded *before*
    the snapshot: the loader's once-only flags stay set, so an early
    (pre-extra) snapshot would otherwise permanently erase the deferred
    registration when restored.
    """
    _ensure_builtins_loaded()
    saved = dict(_REGISTRY)
    try:
        yield
    finally:
        _REGISTRY.clear()
        _REGISTRY.update(saved)


def registered_engines() -> Dict[str, EngineInfo]:
    """All registered engines, sorted by name."""
    _ensure_builtins_loaded()
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def find_registered(name: str) -> Optional[EngineInfo]:
    """Resolve ``name`` to a registration, or ``None``.

    Exact match wins; otherwise the longest registered name that is a
    prefix of ``name`` (runtime names like ``kamino-dynamic-30``).
    """
    _ensure_builtins_loaded()
    info = _REGISTRY.get(name)
    if info is not None:
        return info
    best: Optional[EngineInfo] = None
    for key, candidate in _REGISTRY.items():
        if name.startswith(key) and (best is None or len(key) > len(best.name)):
            best = candidate
    return best


def engine_info(name: str) -> EngineInfo:
    """Like :func:`find_registered` but raising on unknown names."""
    info = find_registered(name)
    if info is None:
        raise UnknownEngineError(
            f"unknown engine '{name}'; choose from {sorted(registered_engines())}"
        )
    return info


def make_engine(name: str, **kwargs):
    """Build an engine by its registered name (TX factory entry point)."""
    _ensure_builtins_loaded()
    try:
        info = _REGISTRY[name]
    except KeyError:
        raise UnknownEngineError(
            f"unknown engine '{name}'; choose from {sorted(_REGISTRY)}"
        ) from None
    return info.factory(**kwargs)
