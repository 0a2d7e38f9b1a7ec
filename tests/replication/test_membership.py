"""Membership manager: views, failures, joins; neighbours and order come
from the chain's list of replicas."""

import pytest

from repro.errors import ReplicationError, StaleViewError
from repro.replication import KAMINO, ChainCluster, MembershipManager, fail_stop

ORDER = ("a", "b", "c", "d")


@pytest.fixture
def mm():
    return MembershipManager()


@pytest.fixture
def cluster():
    return ChainCluster(f=2, mode=KAMINO, heap_mb=1, value_size=64)


def ids(cluster):
    return tuple(node.node_id for node in cluster.chain)


class TestViews:
    def test_initial_view(self, mm):
        assert mm.view_id == 1
        assert mm.rejoin_request("a", claimed_view=1) == 1


class TestNeighbours:
    def test_head_has_no_predecessor(self, cluster):
        head = cluster.chain[0]
        assert cluster.predecessor(head) is None
        assert cluster.successor(head) is cluster.chain[1]

    def test_tail_has_no_successor(self, cluster):
        tail = cluster.chain[-1]
        assert cluster.predecessor(tail) is cluster.chain[-2]
        assert cluster.successor(tail) is None

    def test_middle(self, cluster):
        mid = cluster.chain[1]
        assert (cluster.predecessor(mid), cluster.successor(mid)) == (
            cluster.chain[0], cluster.chain[2]
        )

    def test_unknown_node(self, cluster):
        stranger = ChainCluster(f=1, mode=KAMINO, heap_mb=1, value_size=64).chain[0]
        with pytest.raises(ValueError):
            cluster.predecessor(stranger)


class TestTransitions:
    def test_declare_failed_bumps_view(self, mm):
        assert mm.declare_failed("b", ORDER) == 2
        assert mm.view_id == 2

    def test_cannot_remove_unknown(self, mm):
        with pytest.raises(ReplicationError):
            mm.declare_failed("zz", ORDER)

    def test_cannot_empty_chain(self, mm):
        with pytest.raises(ReplicationError):
            mm.declare_failed("solo", ["solo"])
        assert mm.view_id == 1

    def test_join_at_tail(self, mm):
        assert mm.add_at_tail("e", ORDER) == 2
        assert mm.view_id == 2

    def test_rejoin_existing_rejected(self, mm):
        with pytest.raises(ReplicationError):
            mm.add_at_tail("a", ORDER)


class TestDuplicateDeclarations:
    def test_duplicate_failure_declaration_rejected(self, mm):
        mm.declare_failed("b", ORDER)
        view_before = mm.view_id
        with pytest.raises(ReplicationError, match="duplicate declaration"):
            mm.declare_failed("b", ("a", "c", "d"))
        assert mm.view_id == view_before  # no second view bump

    def test_duplicate_distinct_from_unknown_node(self, mm):
        with pytest.raises(ReplicationError, match="not in the chain"):
            mm.declare_failed("zz", ORDER)

    def test_rejoined_node_can_fail_again(self, mm):
        mm.declare_failed("b", ORDER)
        mm.add_at_tail("b", ("a", "c", "d"))
        # fresh incarnation, fresh failure
        assert mm.declare_failed("b", ("a", "c", "d", "b")) == 4


class TestReplacement:
    def test_replace_failed_is_single_view_bump(self, mm):
        assert mm.replace_failed("b", "spare", ORDER) == 2
        assert mm.view_id == 2

    def test_replace_unknown_failed_rejected(self, mm):
        with pytest.raises(ReplicationError, match="not in the chain"):
            mm.replace_failed("zz", "spare", ORDER)

    def test_replace_already_removed_is_duplicate(self, mm):
        mm.declare_failed("b", ORDER)
        with pytest.raises(ReplicationError, match="duplicate declaration"):
            mm.replace_failed("b", "spare", ("a", "c", "d"))

    def test_replace_with_existing_member_rejected(self, mm):
        with pytest.raises(ReplicationError):
            mm.replace_failed("b", "c", ORDER)

    def test_head_failure_promotes_successor(self, cluster):
        before = ids(cluster)
        fail_stop(cluster, 0)
        assert ids(cluster) == before[1:]
        assert cluster.view_id == 2
        assert cluster.predecessor(cluster.head) is None

    def test_tail_failure_promotes_predecessor(self, cluster):
        before = ids(cluster)
        fail_stop(cluster, len(cluster.chain) - 1)
        assert ids(cluster) == before[:-1]
        assert cluster.view_id == 2
        assert cluster.successor(cluster.tail) is None


class TestFailureDetection:
    def test_rejoin_request_current_member(self, mm):
        assert mm.rejoin_request("b", claimed_view=1) == mm.view_id

    def test_rejoin_request_removed_member(self, mm):
        mm.declare_failed("b", ORDER)
        with pytest.raises(ReplicationError):
            mm.rejoin_request("b", claimed_view=1)

    def test_rejoin_with_stale_view_rejected(self, mm):
        # the view moved on while the replica was down (another failure
        # was handled): the quick-reboot path is no longer safe
        mm.declare_failed("c", ORDER)
        with pytest.raises(StaleViewError):
            mm.rejoin_request("b", claimed_view=1)

    def test_rejoin_with_current_view_accepted(self, mm):
        mm.declare_failed("c", ORDER)
        assert mm.rejoin_request("b", claimed_view=mm.view_id) == mm.view_id
