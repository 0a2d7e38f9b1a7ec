"""Media-fault tolerance: checksummed pool integrity, scrub-and-repair.

The crash machinery (PR 3/4) models fail-stop; this package models the
failure class *below* it — the bytes themselves decaying — and turns the
Kamino backup mirror into a detect/repair/degrade loop:

* :class:`MediaFaultModel` — seeded latent bit flips, stuck-at bits, and
  dead lines injected into a device's durable data
  (``device.attach_media()``);
* :class:`ChecksumSidecar` — per-line CRC metadata maintained by the
  device's flush/fence paths;
* :class:`IntegrityTree` — persistent Merkle tree over the line CRCs
  with coalesced (streamed) update propagation; its published
  root binds every line together, catching the consistent multi-line /
  stale-CRC corruption the per-line sidecar cannot see;
* :class:`Scrubber` — periodic verify-and-repair over the pool, using
  commit records and backup-sync lag to pick the authoritative copy,
  quarantining dead lines via the pool's spare-line table, and degrading
  to typed errors when every copy is gone.

See ``docs/INTEGRITY.md`` for the fault model, the scrub/repair state
machine, and the authority rules.
"""

from .checksum import ChecksumSidecar
from .model import MediaFaultModel
from .scrub import ScrubReport, Scrubber, verify_ranges
from .tree import FANOUT, IntegrityTree

__all__ = [
    "ChecksumSidecar",
    "FANOUT",
    "IntegrityTree",
    "MediaFaultModel",
    "ScrubReport",
    "Scrubber",
    "verify_ranges",
]
