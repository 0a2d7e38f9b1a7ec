"""Device lookup by name, kept only for perfbench's micro-cells.

There is one device, :class:`~repro.nvm.device.NVMDevice`.  perfbench
times its ``micro.nvm.<name>.*`` cells through :func:`device_class` and
may not change in the same PR as the program, so this shim answers
``"pure"`` with that device and every other name with ``RuntimeError``,
which makes the cells of the retired second store read ``null``.  This
module and the ``NVMDevice.backend`` attribute are to be deleted by the
benchmark-only PR (ROADMAP item 1).
"""

from __future__ import annotations

from typing import Type

from .device import NVMDevice


def device_class(name: str) -> Type[NVMDevice]:
    """:class:`NVMDevice` for ``"pure"``; ``RuntimeError`` otherwise."""
    if name != NVMDevice.backend:
        raise RuntimeError(f"no NVM device named {name!r}; there is only {NVMDevice.backend!r}")
    return NVMDevice
