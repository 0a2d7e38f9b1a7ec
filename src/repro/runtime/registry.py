"""Decorator-based engine registry with declared capabilities.

The paper's methodology depends on every atomicity scheme being a
drop-in behind one hook surface (:class:`~repro.tx.base.AtomicityEngine`).
The registry is the runtime-facing half of that contract: an engine
module declares itself with::

    @register_engine("kamino-simple", capabilities=EngineCapabilities(
        description="atomic in-place updates, full heap mirror ...",
    ))
    def kamino_simple(**kwargs) -> KaminoEngine: ...

and every consumer — ``make_engine``, the CLI's engine-kwargs parsing
and the property-based crash suites — reads the registry instead of a
hard-coded table.  The registration is the engine's only declaration:
adding an engine touches exactly one file, the engine's own module.

The registry answers for registered names only.  Facts the built engine
carries are read off the engine, never restated here: what its
transactions cost (:func:`repro.sim.resources.serial_ns_per_intent`),
whether it keeps a backup (``engine.backup``) and whether it copies data
in the critical path (a log data arena, ``engine.log_data_bytes``).
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
        recoverable: can restore a consistent heap on its own after a
            crash, so it participates in standalone crash-injection
            sweeps; False for deliberately unsafe baselines (``nolog``)
            and for engines whose repair needs outside help.
        needs_chain_repair: recovery only *identifies* incomplete work;
            repairing it requires a chain neighbour (§5.3's in-place
            replica engine).  The crash checker sweeps these engines
            through the replication-chain explorer instead of the
            standalone heap explorer.
        options: tunable constructor kwargs exposed as CLI flags
            (e.g. ``("alpha",)`` for the dynamic backup).
    """

    description: str = ""
    recoverable: bool = True
    needs_chain_repair: bool = False
    options: Tuple[str, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class EngineInfo:
    """One registry row: the factory plus its declared capabilities."""

    name: str
    factory: Callable[..., object]
    capabilities: EngineCapabilities


_REGISTRY: Dict[str, EngineInfo] = {}
_BUILTINS_LOADED = False


def _ensure_builtins_loaded() -> None:
    """Import :mod:`repro.tx`, whose modules define and self-register
    every builtin engine.

    The flag is set *before* the import: ``repro.tx`` itself imports this
    module (for the decorator), and re-entering here mid-import would
    recurse.
    """
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        import repro.tx  # noqa: F401  (side effect: engine registration)


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
    registry-driven consumers see the pristine table.  The builtins are
    force-loaded *before* the snapshot: the loader's once-only flag stays
    set, so a snapshot taken before them would erase them when restored.
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
    """The registration under exactly ``name``, or ``None``."""
    _ensure_builtins_loaded()
    return _REGISTRY.get(name)


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
