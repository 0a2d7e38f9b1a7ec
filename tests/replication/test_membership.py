"""Membership manager: views, neighbours, failures, joins."""

import pytest

from repro.errors import ReplicationError, StaleViewError
from repro.replication import MembershipManager


@pytest.fixture
def mm():
    return MembershipManager(["a", "b", "c", "d"])


class TestViews:
    def test_initial_view(self, mm):
        assert mm.view_id == 1
        assert mm.order() == ("a", "b", "c", "d")

    def test_empty_chain_rejected(self):
        with pytest.raises(ReplicationError):
            MembershipManager([])


class TestNeighbours:
    def test_head_has_no_predecessor(self, mm):
        pred, succ = mm.neighbours("a")
        assert pred is None and succ == "b"

    def test_tail_has_no_successor(self, mm):
        pred, succ = mm.neighbours("d")
        assert pred == "c" and succ is None

    def test_middle(self, mm):
        assert mm.neighbours("b") == ("a", "c")

    def test_unknown_node(self, mm):
        with pytest.raises(ReplicationError):
            mm.neighbours("zz")


class TestTransitions:
    def test_declare_failed_bumps_view(self, mm):
        view = mm.declare_failed("b")
        assert view.view_id == 2
        assert view.order == ("a", "c", "d")
        assert mm.neighbours("a") == (None, "c")

    def test_cannot_remove_unknown(self, mm):
        with pytest.raises(ReplicationError):
            mm.declare_failed("zz")

    def test_cannot_empty_chain(self):
        mm = MembershipManager(["solo"])
        with pytest.raises(ReplicationError):
            mm.declare_failed("solo")

    def test_join_at_tail(self, mm):
        view = mm.add_at_tail("e")
        assert view.order[-1] == "e"
        assert mm.view_id == 2

    def test_rejoin_existing_rejected(self, mm):
        with pytest.raises(ReplicationError):
            mm.add_at_tail("a")


class TestDuplicateDeclarations:
    def test_duplicate_failure_declaration_rejected(self, mm):
        mm.declare_failed("b")
        view_before = mm.view_id
        with pytest.raises(ReplicationError, match="duplicate declaration"):
            mm.declare_failed("b")
        assert mm.view_id == view_before  # no second view bump

    def test_duplicate_distinct_from_unknown_node(self, mm):
        with pytest.raises(ReplicationError, match="not in the chain"):
            mm.declare_failed("zz")

    def test_rejoined_node_can_fail_again(self, mm):
        mm.declare_failed("b")
        mm.add_at_tail("b")
        view = mm.declare_failed("b")  # fresh incarnation, fresh failure
        assert "b" not in view.order


class TestReplacement:
    def test_replace_failed_is_single_view_bump(self, mm):
        view = mm.replace_failed("b", "spare")
        assert view.view_id == 2
        assert view.order == ("a", "c", "d", "spare")

    def test_replace_unknown_failed_rejected(self, mm):
        with pytest.raises(ReplicationError, match="not in the chain"):
            mm.replace_failed("zz", "spare")

    def test_replace_already_removed_is_duplicate(self, mm):
        mm.declare_failed("b")
        with pytest.raises(ReplicationError, match="duplicate declaration"):
            mm.replace_failed("b", "spare")

    def test_replace_with_existing_member_rejected(self, mm):
        with pytest.raises(ReplicationError):
            mm.replace_failed("b", "c")

    def test_head_failure_promotes_successor(self, mm):
        view = mm.declare_failed("a")
        assert view.order[0] == "b"
        assert mm.neighbours("b") == (None, "c")

    def test_tail_failure_promotes_predecessor(self, mm):
        view = mm.declare_failed("d")
        assert view.order[-1] == "c"
        assert mm.neighbours("c") == ("b", None)


class TestFailureDetection:
    def test_rejoin_request_current_member(self, mm):
        view = mm.rejoin_request("b", claimed_view=1)
        assert view.view_id == mm.view_id

    def test_rejoin_request_removed_member(self, mm):
        mm.declare_failed("b")
        with pytest.raises(ReplicationError):
            mm.rejoin_request("b", claimed_view=1)

    def test_rejoin_with_stale_view_rejected(self, mm):
        # the view moved on while the replica was down (another failure
        # was handled): the quick-reboot path is no longer safe
        mm.declare_failed("c")
        with pytest.raises(StaleViewError):
            mm.rejoin_request("b", claimed_view=1)

    def test_rejoin_with_current_view_accepted(self, mm):
        mm.declare_failed("c")
        view = mm.rejoin_request("b", claimed_view=mm.view_id)
        assert view.view_id == mm.view_id
