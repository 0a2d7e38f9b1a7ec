"""Chain replication: traditional baseline and Kamino-Tx-Chain (§5)."""

from .chain import KAMINO, TRADITIONAL, ChainCluster, RetryPolicy
from .client import ChainClient, run_clients
from .membership import MembershipManager
from .messages import CleanupAck, TailAck, TxForward
from .node import ReplicaNode, engine_for
from .recovery import fail_stop, join_new_replica, quick_reboot, replace_node, settle

__all__ = [
    "ChainClient",
    "ChainCluster",
    "CleanupAck",
    "KAMINO",
    "MembershipManager",
    "ReplicaNode",
    "RetryPolicy",
    "TRADITIONAL",
    "TailAck",
    "TxForward",
    "engine_for",
    "fail_stop",
    "join_new_replica",
    "quick_reboot",
    "replace_node",
    "run_clients",
    "settle",
]
