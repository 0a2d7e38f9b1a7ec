"""Paper-figure benchmark glue: stack builders, runners, reporting."""

from ..runtime.online import replay_records as replay
from ..runtime.records import ReplayResult, TxRecord
from .plot import bar_chart, grouped_bar_chart
from .report import format_table, speedup_note
from .runners import (
    DEFAULT_OPS,
    DEFAULT_RECORDS,
    DEFAULT_VALUE_SIZE,
    Stack,
    build_stack,
    run_tpcc_online,
    run_ycsb_matrix,
    run_ycsb_online,
    trace_tpcc,
    trace_ycsb,
)
from .tco import CostModel, normalized_ops_per_dollar, ops_per_dollar, provisioned_gb

__all__ = [
    "CostModel",
    "DEFAULT_OPS",
    "DEFAULT_RECORDS",
    "DEFAULT_VALUE_SIZE",
    "ReplayResult",
    "Stack",
    "bar_chart",
    "TxRecord",
    "build_stack",
    "format_table",
    "grouped_bar_chart",
    "normalized_ops_per_dollar",
    "ops_per_dollar",
    "provisioned_gb",
    "replay",
    "run_tpcc_online",
    "run_ycsb_matrix",
    "run_ycsb_online",
    "speedup_note",
    "trace_tpcc",
    "trace_ycsb",
]
