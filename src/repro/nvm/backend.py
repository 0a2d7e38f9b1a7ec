"""Byte-store backend selection: pure-python vs numpy-vectorized device.

numpy is an **optional** dependency (``pip install repro[numpy]``).  When
it is importable, :class:`~repro.nvm.numpy_device.NumpyNVMDevice` — a
contiguous ``uint8`` byte store with line-granularity dirty bitmaps and
bulk memmove/compare as array ops — becomes the default device the
stack builders construct.  Without it everything falls back to the
pure-python :class:`~repro.nvm.device.NVMDevice`; the two are
bit-identical in every simulated observable (the invariance contract,
docs/INTERNALS.md §8, enforced by the differential suites), so the
backend only ever changes wall-clock time.

Selection order for :func:`resolve_backend`:

1. an explicit backend name passed by the caller;
2. the ``REPRO_NVM_BACKEND`` environment variable (``pure`` | ``numpy``
   | ``auto``), which is how the CI matrix leg runs the whole tier-1
   suite with numpy masked out;
3. auto-detection: ``numpy`` when importable, else ``pure``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple, Type

from .device import NVMDevice

PURE = "pure"
NUMPY = "numpy"
AUTO = "auto"

_ENV_VAR = "REPRO_NVM_BACKEND"

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    HAVE_NUMPY = False

#: process-wide default; ``None`` means "consult env var, then detect"
_default: Optional[str] = None


def available_backends() -> Tuple[str, ...]:
    """Backends this interpreter can actually construct."""
    return (PURE, NUMPY) if HAVE_NUMPY else (PURE,)


def set_default_backend(name: Optional[str]) -> None:
    """Pin the process-wide default backend (``None`` restores
    auto-detection); the CLI's ``--backend`` flag lands here."""
    if name is not None:
        name = resolve_backend(name)
    global _default
    _default = name


def default_backend() -> str:
    """The backend ``resolve_backend(None)`` would pick right now."""
    if _default is not None:
        return _default
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env and env != AUTO:
        return resolve_backend(env)
    return NUMPY if HAVE_NUMPY else PURE


def resolve_backend(name: Optional[str]) -> str:
    """Normalize a requested backend name to a constructible one.

    ``None``/``"auto"`` defer to :func:`default_backend`; asking for
    ``"numpy"`` without numpy installed is an error (auto-detection
    never raises — it just falls back to ``"pure"``).
    """
    if name is None or name == AUTO:
        return default_backend()
    if name == PURE:
        return PURE
    if name == NUMPY:
        if not HAVE_NUMPY:
            raise RuntimeError(
                "backend 'numpy' requested but numpy is not importable; "
                "install the repro[numpy] extra or use backend='pure'"
            )
        return NUMPY
    raise ValueError(f"unknown NVM backend {name!r}; choose from {(PURE, NUMPY, AUTO)}")


def device_class(backend: Optional[str] = None) -> Type[NVMDevice]:
    """The device class implementing ``backend`` (resolved)."""
    if resolve_backend(backend) == NUMPY:
        from .numpy_device import NumpyNVMDevice

        return NumpyNVMDevice
    return NVMDevice


def make_device(size: int, backend: Optional[str] = None, **kwargs) -> NVMDevice:
    """Construct a device on the resolved backend.

    This is the constructor every stack builder goes through, so one
    ``set_default_backend`` (or ``REPRO_NVM_BACKEND``) switches the
    device under benchmarks, engines, replication nodes, the placement
    service, and the crash checker alike.
    """
    return device_class(backend)(size, **kwargs)
