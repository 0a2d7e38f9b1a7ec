"""Paper-figure benchmark glue: runners and reporting."""

from ..runtime.records import ReplayResult, TxRecord
from .plot import bar_chart, grouped_bar_chart
from .report import format_table, speedup_note
from .runners import (
    DEFAULT_OPS,
    DEFAULT_RECORDS,
    DEFAULT_VALUE_SIZE,
    run_tpcc_online,
    run_ycsb_matrix,
    run_ycsb_online,
)
from .tco import CostModel, normalized_ops_per_dollar, ops_per_dollar, provisioned_gb

__all__ = [
    "CostModel",
    "DEFAULT_OPS",
    "DEFAULT_RECORDS",
    "DEFAULT_VALUE_SIZE",
    "ReplayResult",
    "bar_chart",
    "TxRecord",
    "format_table",
    "grouped_bar_chart",
    "normalized_ops_per_dollar",
    "ops_per_dollar",
    "provisioned_gb",
    "run_tpcc_online",
    "run_ycsb_matrix",
    "run_ycsb_online",
    "speedup_note",
]
