"""Membership management: views, failure declaration, chain order.

Stands in for the paper's Zookeeper instance (§5.3): it owns the
``viewID``, records which replicas were declared *failed*, and answers
a rejoining replica's "who are my neighbours?" query.  Chain repair itself is orchestrated by
:mod:`repro.replication.recovery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import ReplicationError, StaleViewError


@dataclass
class ViewInfo:
    """One concrete chain instance."""

    view_id: int
    order: Tuple[str, ...]


class MembershipManager:
    """Authoritative view of which replicas form the chain, in order."""

    def __init__(self, initial_order: List[str]):
        if not initial_order:
            raise ReplicationError("chain cannot be empty")
        self._views: List[ViewInfo] = [ViewInfo(1, tuple(initial_order))]
        #: every replica ever declared failed, so a duplicate declaration
        #: (two detectors racing) is distinguishable from an unknown node
        self._removed: set = set()

    # -- views ---------------------------------------------------------------

    @property
    def current(self) -> ViewInfo:
        return self._views[-1]

    @property
    def view_id(self) -> int:
        return self.current.view_id

    def order(self) -> Tuple[str, ...]:
        return self.current.order

    def neighbours(self, node_id: str) -> Tuple[Optional[str], Optional[str]]:
        """(predecessor, successor) in the current view."""
        order = self.current.order
        if node_id not in order:
            raise ReplicationError(f"{node_id} is not in the current view")
        idx = order.index(node_id)
        pred = order[idx - 1] if idx > 0 else None
        succ = order[idx + 1] if idx + 1 < len(order) else None
        return pred, succ

    # -- transitions ---------------------------------------------------------------

    def declare_failed(self, node_id: str) -> ViewInfo:
        """Remove a failed replica; bumps the view.

        A duplicate declaration (two failure detectors racing on the
        same node) is rejected without a view bump — the first one
        already reshaped the chain."""
        order = list(self.current.order)
        if node_id not in order:
            if node_id in self._removed:
                raise ReplicationError(
                    f"{node_id} was already declared failed (duplicate declaration)"
                )
            raise ReplicationError(f"{node_id} is not in the chain")
        order.remove(node_id)
        if not order:
            raise ReplicationError("cannot remove the last replica")
        view = ViewInfo(self.view_id + 1, tuple(order))
        self._views.append(view)
        self._removed.add(node_id)
        return view

    def add_at_tail(self, node_id: str) -> ViewInfo:
        """Join protocol: new replicas always enter as the tail."""
        if node_id in self.current.order:
            raise ReplicationError(f"{node_id} is already in the chain")
        view = ViewInfo(self.view_id + 1, self.current.order + (node_id,))
        self._views.append(view)
        self._removed.discard(node_id)
        return view

    def replace_failed(self, failed_id: str, spare_id: str) -> ViewInfo:
        """View-change-with-replacement: one bump that removes the
        failed replica and splices a caught-up spare in at the tail.

        A single transition (instead of ``declare_failed`` followed by
        ``add_at_tail``) means no intermediate view exists in which the
        chain is shorter than its fault target — in-flight messages are
        either pre-failure (rejected as stale) or already addressed to
        the replacement topology."""
        order = list(self.current.order)
        if failed_id not in order:
            if failed_id in self._removed:
                raise ReplicationError(
                    f"{failed_id} was already declared failed (duplicate declaration)"
                )
            raise ReplicationError(f"{failed_id} is not in the chain")
        if spare_id in order:
            raise ReplicationError(f"{spare_id} is already in the chain")
        order.remove(failed_id)
        order.append(spare_id)
        view = ViewInfo(self.view_id + 1, tuple(order))
        self._views.append(view)
        self._removed.add(failed_id)
        self._removed.discard(spare_id)
        return view

    # -- rejoin ------------------------------------------------------------------------

    def rejoin_request(self, node_id: str, claimed_view: int) -> ViewInfo:
        """A rebooted replica asks to rejoin with the view it remembers.

        If the view moved on while it was down, the quick-reboot path is
        no longer safe (its neighbours may have changed identity):
        :class:`~repro.errors.StaleViewError` tells the caller to run
        the fail-stop repair path (or join as a new tail) instead.
        """
        if node_id not in self.current.order:
            raise ReplicationError(f"{node_id} was removed; rejoin as a new tail")
        if claimed_view < self.view_id:
            raise StaleViewError(
                f"{node_id} rejoined claiming view {claimed_view}, "
                f"current view is {self.view_id}"
            )
        return self.current
