"""Membership management: views and failure declaration.

Stands in for the paper's Zookeeper instance (§5.3): it owns the
``viewID`` and records which replicas were declared *failed*.  The
chain's order is not kept here: :attr:`ChainCluster.chain
<repro.replication.chain.ChainCluster.chain>` is the one record of it,
and each transition is checked against the member ids the caller passes
(the chain before the transition).  Chain repair itself is orchestrated
by :mod:`repro.replication.recovery`.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ReplicationError, StaleViewError


class MembershipManager:
    """The current view id and the replicas declared failed."""

    def __init__(self):
        self.view_id = 1
        #: every replica ever declared failed, so a duplicate declaration
        #: (two detectors racing) is distinguishable from an unknown node
        self._removed: set = set()

    def _check_failed(self, node_id: str, members: Sequence[str]) -> None:
        if node_id not in members:
            if node_id in self._removed:
                raise ReplicationError(
                    f"{node_id} was already declared failed (duplicate declaration)"
                )
            raise ReplicationError(f"{node_id} is not in the chain")

    # -- transitions ---------------------------------------------------------------

    def declare_failed(self, node_id: str, members: Sequence[str]) -> int:
        """Remove a failed replica from ``members``; bumps the view and
        returns the new view id.

        A duplicate declaration (two failure detectors racing on the
        same node) is rejected without a view bump — the first one
        already reshaped the chain."""
        self._check_failed(node_id, members)
        if len(members) == 1:
            raise ReplicationError("cannot remove the last replica")
        self._removed.add(node_id)
        self.view_id += 1
        return self.view_id

    def add_at_tail(self, node_id: str, members: Sequence[str]) -> int:
        """Join protocol: new replicas always enter as the tail."""
        if node_id in members:
            raise ReplicationError(f"{node_id} is already in the chain")
        self._removed.discard(node_id)
        self.view_id += 1
        return self.view_id

    def replace_failed(self, failed_id: str, spare_id: str, members: Sequence[str]) -> int:
        """View-change-with-replacement: one bump that removes the
        failed replica and splices a caught-up spare in at the tail.

        A single transition (instead of ``declare_failed`` followed by
        ``add_at_tail``) means no intermediate view exists in which the
        chain is shorter than its fault target — in-flight messages are
        either pre-failure (rejected as stale) or already addressed to
        the replacement topology."""
        self._check_failed(failed_id, members)
        if spare_id in members:
            raise ReplicationError(f"{spare_id} is already in the chain")
        self._removed.add(failed_id)
        self._removed.discard(spare_id)
        self.view_id += 1
        return self.view_id

    # -- rejoin ------------------------------------------------------------------------

    def rejoin_request(self, node_id: str, claimed_view: int) -> int:
        """A rebooted replica asks to rejoin with the view it remembers;
        returns the current view id.

        If the view moved on while it was down, the quick-reboot path is
        no longer safe (its neighbours may have changed identity):
        :class:`~repro.errors.StaleViewError` tells the caller to run
        the fail-stop repair path (or join as a new tail) instead.
        """
        if node_id in self._removed:
            raise ReplicationError(f"{node_id} was removed; rejoin as a new tail")
        if claimed_view < self.view_id:
            raise StaleViewError(
                f"{node_id} rejoined claiming view {claimed_view}, "
                f"current view is {self.view_id}"
            )
        return self.view_id
